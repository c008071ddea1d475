"""The README's library snippet and command lines run as written, with the
reference solver started as `python -m capplan.refsolver`."""

import json
import shlex
from pathlib import Path

import fixtures
from capplan.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOLVER = " ".join(shlex.quote(part) for part in fixtures.REFSOLVER_CMD)


def _block(heading: str, language: str) -> str:
    """The first fenced block of `language` under the README's `heading`."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _commands() -> list:
    """Each `capplan …` command of the command-line section, without the
    program name and with the packaged solver replaced."""
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [[SOLVER if word == "capplan-refsolver" else word
             for word in shlex.split(line)[1:]]
            for line in lines if line.startswith("capplan ")]


def _model_arguments(argv: list) -> list:
    return [word for flag in ("--domain", "--problem")
            for word in (flag, argv[argv.index(flag) + 1])]


def test_library_use_snippet(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    snippet = _block("Library use", "python")
    assert 'command="capplan-refsolver"' in snippet
    namespace: dict = {}
    exec(snippet.replace('command="capplan-refsolver"', f"command={SOLVER!r}"), namespace)
    assert namespace["result"].bound_happenings == 1
    assert capsys.readouterr().out.startswith("1 ")


def test_command_line_examples(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(ROOT)
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "plan", "plan", "dump-smt", "validate", "check"]
    happenings = []
    for i, argv in enumerate(argv for argv in commands if argv[0] == "plan"):
        plan_path = tmp_path / f"plan{i}.json"
        assert main(argv + ["--output", str(plan_path)]) == 0, capsys.readouterr().err
        happenings.append(json.loads(plan_path.read_text())["boundHappenings"])
        # The README's `check` names placeholder files; replay each written
        # plan against the model it was planned for instead.
        check = ["check", "--plan", str(plan_path)] + _model_arguments(argv)
        assert main(check) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
    assert happenings == [1, 2]
    for argv in commands[2:4]:
        assert main(argv) == 0, argv
    assert "(check-sat)" in capsys.readouterr().out
