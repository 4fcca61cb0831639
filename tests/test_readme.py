"""The README's API sketch and CLI walkthrough run as written, so they
follow the signatures and flags of what they call."""

import json
import re
import shlex
from pathlib import Path

from kvlatent import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading: str, language: str) -> str:
    """The first `language` code block under `## heading`."""
    section = README.read_text().split(f"## {heading}", 1)[1]
    found = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert found is not None, f"README.md has no {language} block under '## {heading}'"
    return found.group(1)


def api_sketch() -> str:
    return block("API sketch", "python")


def walkthrough() -> list[list[str]]:
    """The arguments of each `kvlatent ...` command of the CLI walkthrough,
    with line continuations joined."""
    text = block("CLI walkthrough", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("kvlatent ")]


def test_api_sketch_runs():
    exec(compile(api_sketch(), f"{README.name} API sketch", "exec"), {})


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough()
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    (schedule,) = (argv for argv in commands if argv[0] == "schedule")
    (evaluate,) = (argv for argv in commands if argv[0] == "eval")
    # At KV parity the conversion is exact, so the logits agree to rounding.
    assert "--parity" in schedule
    out = Path(evaluate[evaluate.index("--out") + 1])
    report = json.loads((out / "eval_report.json").read_text())
    assert report["max_logit_drift"] <= 1e-9
