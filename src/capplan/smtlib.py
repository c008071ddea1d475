"""SMT-LIB2 rendering and external solver process driving.

The encoding is rendered to plain SMT-LIB2 text, piped to any solver
executable on its standard input, and the answer (sat + model, unsat +
core, unknown) is parsed back: by solve(), one process per script, or
by SmtProcess, one process that exchanges one check after another (the
planner's push/pop session).  Both start their process with start(), or
take one that start() began earlier, so that its start-up overlaps other
work.  Every script has one shape, set by script_header() and
assertion_line(): it asks for models and unsat cores and names every
assertion.  Values are kept as exact rationals throughout, so a model can
be rechecked against the oracle without float drift.

Answers are read with `capplan.sexp`, the one S-expression reader the
reference solver also reads scripts with, and both paths interpret its
nodes alike: the first node that is not an `(error …)` or `unsupported`
is the status, an `(error …)` may span lines, and the model or core is
read from the nodes after it.  SmtProcess feeds each pipe chunk to the
reader and stops at the first complete node it needs; an answer left
unfinished by a live solver waits for the rest until the timeout.
"""

from __future__ import annotations

import codecs
import select
import shlex
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from . import expr as ex
from .encoder import Encoding
from .errors import SolverLaunchError, SolverProtocolError
from .model import Datatype
from .sexp import Reader, SexpError, parse_sexprs, quote, unquote

_SMT_OPS = {
    "plus": "+",
    "minus": "-",
    "times": "*",
    "divide": "/",
    "eq": "=",
    "lt": "<",
    "gt": ">",
    "leq": "<=",
    "geq": ">=",
    "and": "and",
    "or": "or",
    "not": "not",
    "implies": "=>",
}

# Reasons recorded with an unknown outcome.
SOLVER_UNKNOWN = "solver returned unknown"
TIMEOUT = "timeout"


@dataclass
class SolverConfig:
    """How to reach an SMT-LIB2 solver process."""

    command: Union[str, list]
    timeout_seconds: float = 60.0
    random_seed: Optional[int] = None
    transcript: Optional[Union[str, Path]] = None

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        try:
            argv = self.argv()
        except ValueError as exc:
            raise ValueError(f"solver command cannot be split: {exc}") from None
        if not argv:
            raise ValueError("solver command is empty")

    def argv(self) -> list:
        if isinstance(self.command, str):
            return shlex.split(self.command)
        return list(self.command)


@dataclass
class SolveOutcome:
    status: str  # "sat" | "unsat" | "unknown"
    valuation: Optional[dict] = None
    core: Optional[list] = None
    reason: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


def format_symbol(name: str) -> str:
    if "|" in name or "\\" in name:
        raise SolverProtocolError(f"symbol not representable in SMT-LIB: {name!r}")
    return quote(name)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    value = Fraction(value)
    if value < 0:
        return f"(- {format_value(-value)})"
    if value.denominator == 1:
        return f"{value.numerator}.0"
    return f"(/ {value.numerator} {value.denominator})"


def _render_term(term) -> str:
    if isinstance(term, ex.Const):
        return format_value(term.value)
    if isinstance(term, ex.Ref):
        return format_symbol(term.property_id)
    op = _SMT_OPS.get(term.op)
    if op is None:
        if term.op == "neq":
            inner = " ".join(_render_term(a) for a in term.args)
            return f"(not (= {inner}))"
        raise SolverProtocolError(f"cannot render operator {term.op!r}")
    args = " ".join(_render_term(a) for a in term.args)
    return f"({op} {args})"


def script_header(logic: str, random_seed: Optional[int]) -> list:
    """The option lines and set-logic that open every script, one-shot or
    incremental."""
    lines = ["(set-option :produce-models true)",
             "(set-option :produce-unsat-cores true)"]
    if random_seed is not None:
        lines.append(f"(set-option :random-seed {random_seed})")
    lines.append(f"(set-logic {logic})")
    return lines


def declaration(symbol: str, key) -> str:
    sort = "Bool" if key.sort is Datatype.BOOLEAN else "Real"
    return f"(declare-const {format_symbol(symbol)} {sort})"


def assertion_line(name: str, body: str) -> str:
    """A named assert command, so that it can appear in unsat cores."""
    return f"(assert (! {body} :named {format_symbol(name)}))"


def emit(encoding: Encoding, random_seed: Optional[int] = None) -> str:
    """Render the encoding as a self-contained SMT-LIB2 script that asks
    for the model on sat and the core on unsat.

    Byte-deterministic: the same encoding always yields the same text.
    """
    lines = script_header(encoding.logic, random_seed)
    lines += [declaration(symbol, key) for symbol, key in encoding.variables.items()]
    lines += [assertion_line(a.name, _render_term(a.term)) for a in encoding.assertions]
    lines += ["(check-sat)", "(get-model)", "(get-unsat-core)"]
    return "\n".join(lines) + "\n"


# -- answer reading --------------------------------------------------------

def parse_value(node):
    """Parse a model value S-expression into a bool or exact Fraction."""
    if isinstance(node, str):
        if node == "true":
            return True
        if node == "false":
            return False
        try:
            if "." in node:
                return Fraction(node)
            return Fraction(int(node))
        except ValueError as exc:
            raise SolverProtocolError(f"unparseable value {node!r}") from exc
    if isinstance(node, list) and node:
        if node[0] == "-" and len(node) == 2:
            return -parse_value(node[1])
        if node[0] == "/" and len(node) == 3:
            denominator = parse_value(node[2])
            if denominator == 0:
                raise SolverProtocolError("division by zero in model value")
            return parse_value(node[1]) / denominator
    raise SolverProtocolError(f"unparseable value {node!r}")


def _collect_define_funs(node, into: dict) -> None:
    if not isinstance(node, list):
        return
    if len(node) == 5 and node[0] == "define-fun" and node[2] == []:
        into[unquote(node[1])] = parse_value(node[4])
        return
    for child in node:
        _collect_define_funs(child, into)


def _valuation(nodes) -> dict:
    """The values of every define-fun in the answer nodes, at any depth."""
    valuation: dict = {}
    for node in nodes:
        _collect_define_funs(node, valuation)
    return valuation


def _skipped(node) -> bool:
    """A general response that answers no query: an (error ...), or the
    `unsupported` a solver may give a set-option."""
    return node == "unsupported" or isinstance(node, list) and node[:1] == ["error"]


def _core(nodes) -> Optional[list]:
    """The first list of symbols among the answer nodes, if any, unquoted;
    an (error ...) is none."""
    for node in nodes:
        if (isinstance(node, list) and not _skipped(node)
                and all(isinstance(x, str) for x in node)):
            return [unquote(x) for x in node]
    return None


def _status(node) -> str:
    if node not in ("sat", "unsat", "unknown"):
        raise SolverProtocolError(f"unexpected check-sat answer {node!r}")
    return node


def parse_answer(text: str) -> SolveOutcome:
    """Interpret a one-shot script's output as SmtProcess reads it: the
    first node that is not skipped is the status, and the nodes after it
    hold the model or the core."""
    try:
        nodes = [node for node in parse_sexprs(text) if not _skipped(node)]
    except SexpError as exc:
        raise SolverProtocolError(f"{exc} in solver output") from exc
    if not nodes:
        raise SolverProtocolError(f"no sat/unsat/unknown in solver output: {text[:200]!r}")
    status, rest = _status(nodes[0]), nodes[1:]
    if status == "sat":
        return SolveOutcome(status="sat", valuation=_valuation(rest))
    if status == "unsat":
        return SolveOutcome(status="unsat", core=_core(rest))
    return SolveOutcome(status="unknown", reason=SOLVER_UNKNOWN)


def _write_transcript(config: SolverConfig, kind: str, text: str,
                      header: bool = True) -> None:
    """Append a request verbatim, or a response as `; ` comment lines, so
    the transcript replays as a script.  Written as the exchange happens:
    a run that hangs or crashes still leaves what was sent."""
    if config.transcript is None:
        return
    if kind == "response":
        text = "".join(f"; {line}\n" for line in text.splitlines())
    with open(config.transcript, "a", encoding="utf-8") as handle:
        handle.write((f"; --- {kind} ---\n" if header else "") + text)


def start(config: SolverConfig, interactive: bool = False) -> subprocess.Popen:
    """Start a solver process with its input and output on pipes.  An
    interactive process (SmtProcess) discards its stderr; a one-shot
    process (solve) has it captured, to explain an empty answer.  Popen
    returns once the solver's executable has been started, so the solver
    starts up while the caller goes on."""
    try:
        return subprocess.Popen(
            config.argv(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL if interactive else subprocess.PIPE,
        )
    except (FileNotFoundError, PermissionError) as exc:
        raise SolverLaunchError(f"cannot launch solver {config.argv()!r}: {exc}") from exc


def reap(process: subprocess.Popen) -> None:
    """Kill the process unless it has exited, close its pipes and wait for
    it.  Harmless on a process already reaped."""
    with process:
        process.kill()


def solve(text: str, config: SolverConfig,
          process: Optional[subprocess.Popen] = None) -> SolveOutcome:
    """Send the script and EOF to one solver process and parse its answer.

    `process` is one that start(config) began earlier, so that its start-up
    overlapped other work; without it a process is started here.  Either
    way it is reaped before this returns or raises.  The timeout counts
    from when the script is sent."""
    try:
        _write_transcript(config, "request", text)
        process = process or start(config)
        stdout, stderr = process.communicate(text.encode("utf-8"),
                                             timeout=config.timeout_seconds)
    except subprocess.TimeoutExpired:
        _write_transcript(config, "response", "; timeout")
        return SolveOutcome(status="unknown", reason=TIMEOUT)
    finally:
        if process is not None:
            reap(process)
    stdout = stdout.decode("utf-8", errors="replace")
    _write_transcript(config, "response", stdout)
    if not stdout.strip():
        stderr = stderr.decode("utf-8", errors="replace")
        raise SolverProtocolError(
            f"solver produced no output (stderr: {stderr.strip()[:300]!r})"
        )
    return parse_answer(stdout)


class SmtProcess:
    """A persistent solver process, sent one exchange after another: the
    process of the planner's push/pop session."""

    def __init__(self, config: SolverConfig,
                 process: Optional[subprocess.Popen] = None):
        """Drive `process`, one that start(config, interactive=True) began
        earlier, or else a process started here."""
        self.config = config
        self._last_logged = None
        self._deadline = None  # end of the current exchange, if any
        self.proc = process or start(config, interactive=True)

    def _log(self, kind: str, text: str) -> None:
        _write_transcript(self.config, kind, text, header=kind != self._last_logged)
        self._last_logged = kind

    def send(self, text: str) -> None:
        self._log("request", text)
        try:
            self.proc.stdin.write(text.encode("utf-8"))
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise SolverProtocolError("solver closed its input") from exc

    def _read_until(self, wanted=lambda node: True):
        """Read stdout until a complete S-expression for which
        `wanted(node)` holds has arrived, and return it; raise when the
        timeout passes first.  Each chunk is fed to one Reader as it
        arrives.  What was read goes to the transcript, with the error if
        any."""
        deadline = self._deadline or time.monotonic() + self.config.timeout_seconds
        chunks: list = []
        decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        reader = Reader()
        stream = self.proc.stdout
        error = node = None
        while error is None and node is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                error = TimeoutError("solver response timeout")
            elif not select.select([stream], [], [], min(remaining, 0.5))[0]:
                if self.proc.poll() is not None:
                    error = SolverProtocolError("solver exited mid-response")
            else:
                data = stream.read1(65536)
                if not data:
                    error = SolverProtocolError("solver closed its output")
                chunks.append(decoder.decode(data))
                reader.feed(chunks[-1])
                try:
                    node = next(filter(wanted, reader), None)
                except SexpError as exc:
                    error = SolverProtocolError(f"{exc} in solver output")
        buffer = "".join(chunks)
        if error is not None:
            self._log("response", f"{buffer.rstrip()}\n; {error}".lstrip())
            raise error
        self._log("response", buffer)
        return node

    def check_sat(self) -> str:
        self.send("(check-sat)\n")
        return _status(self._read_until(lambda node: not _skipped(node)))

    def get_model(self) -> dict:
        self.send("(get-model)\n")
        return _valuation([self._read_until()])

    def get_unsat_core(self) -> Optional[list]:
        self.send("(get-unsat-core)\n")
        return _core([self._read_until()])

    def exchange(self, text: str, model: bool = True) -> SolveOutcome:
        """One bound's round trip: send `text`, check-sat, then fetch the
        core, or the model unless `model` is false (a sat outcome then has
        no valuation).  As in one-shot solving, the timeout covers the
        whole round trip; when it passes, the outcome is unknown and the
        wedged process is killed (`closed` turns true)."""
        self._deadline = time.monotonic() + self.config.timeout_seconds
        try:
            self.send(text)
            status = self.check_sat()
            if status == "sat":
                return SolveOutcome(status="sat",
                                    valuation=self.get_model() if model else None)
            if status == "unsat":
                return SolveOutcome(status="unsat", core=self.get_unsat_core())
            return SolveOutcome(status="unknown", reason=SOLVER_UNKNOWN)
        except TimeoutError:
            self.close(grace=0)
            return SolveOutcome(status="unknown", reason=TIMEOUT)
        finally:
            self._deadline = None

    @property
    def closed(self) -> bool:
        return self.proc.stdin.closed

    def close(self, grace: float = 2.0) -> None:
        """Close the solver's input and give it `grace` seconds to exit
        before killing it.  Closing twice is harmless."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=grace)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
