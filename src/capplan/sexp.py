"""SMT-LIB2 S-expressions: the one reader and symbol quoter of capplan.

Both ends of the solver pipe read with it: the client reads solver
answers (`smtlib`), and the reference solver reads scripts (`refsolver`).
The lexicon is that of the SMT-LIB Standard v2.6, section 3.1.  A node is
an atom string or a list of nodes; a quoted symbol keeps its bars and a
string literal its quotes and `""` escapes, so every atom is exactly its
source text.

This module imports nothing from capplan, so a spawned reference solver
loads it and nothing else.
"""

from __future__ import annotations

import re

# One token per match, after any whitespace: a `;` comment (no group), a
# parenthesis (group 1), an atom (group 2: a `|quoted symbol|`, a string
# with `""` escapes, or a plain token), or an opening `|` or `"` whose
# closing quote is not in the buffer yet (group 3).  A string must not be
# followed by `"`, because `""` may continue it in the next piece.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:;[^\n]*'
    r'|([()])'
    r'|(\|[^|]*\||"[^"]*(?:""[^"]*)*"(?!")|[^ \t\r\n();|"]+)'
    r'|([|"]))'
)

# The characters of an SMT-LIB simple symbol, which must not start with a
# digit.
SIMPLE_SYMBOL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789~!@$%^&*_-+=<>.?/"
)


class SexpError(ValueError):
    """Text that does not read as S-expressions."""


class Reader:
    """Reads S-expressions from text fed in pieces of any size: whole
    lines or arbitrary pipe chunks.  Iterating yields each top-level
    expression as soon as it is complete and stops when more input is
    needed.  A token that reaches the end of the text fed so far may go
    on in the next piece, so it waits, until end() says none will come.

    A reading error consumes the offending input, so iterating again
    goes on after it."""

    def __init__(self):
        self.buf = ""
        self.pos = 0
        self.open: list = []  # the lists being read, outermost first
        self.ended = False

    def feed(self, text: str) -> None:
        self.buf = self.buf[self.pos :] + text
        self.pos = 0

    def end(self) -> None:
        """No more text will come: what is left must be complete."""
        self.ended = True

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.open
        while True:
            match = _TOKEN.match(self.buf, self.pos)
            if match is None:  # nothing but whitespace is left
                if self.ended and stack:
                    stack.clear()
                    raise SexpError("unexpected end of input inside (")
                raise StopIteration
            paren, atom, opener = match.groups()
            if opener is not None:
                if not self.ended:
                    raise StopIteration
                self.pos = len(self.buf)
                stack.clear()
                raise SexpError(
                    "unterminated quoted symbol" if opener == "|" else "unterminated string"
                )
            end = match.end()
            if paren is None and end == len(self.buf) and not self.ended:
                raise StopIteration  # an atom or comment the next piece may go on
            self.pos = end
            if paren == "(":
                stack.append([])
                continue
            if paren == ")":
                if not stack:
                    raise SexpError("unbalanced )")
                atom = stack.pop()
            elif atom is None:
                continue
            if not stack:
                return atom
            stack[-1].append(atom)


def parse_sexprs(text: str) -> list:
    """Every S-expression of a whole text, in order."""
    reader = Reader()
    reader.feed(text)
    reader.end()
    return list(reader)


class SexpReader:
    """Reads a stream one line at a time and returns each S-expression as
    soon as it is complete, so a command is answered before the line after
    it is read (interactive, push/pop driving)."""

    def __init__(self, stream):
        self.stream = stream
        self.reader = Reader()

    def _fill(self) -> bool:
        line = self.stream.readline()
        if not line:
            return False
        self.reader.feed(line)
        return True

    def read(self):
        """Return the next S-expression (nested lists/str) or None at EOF.

        A reading error consumes the offending input, so the next call
        goes on after it."""
        while True:
            node = next(self.reader, None)
            if node is not None or self.reader.ended:
                return node
            if not self._fill():
                self.reader.end()


def quote(name: str) -> str:
    """`name` as a symbol: bare when it is a simple symbol, else between
    bars.  A name holding `|` or `\\` has no quoted form."""
    if name and SIMPLE_SYMBOL_CHARS.issuperset(name) and not name[0].isdigit():
        return name
    return f"|{name}|"


def unquote(symbol: str) -> str:
    if symbol.startswith("|") and symbol.endswith("|"):
        return symbol[1:-1]
    return symbol
