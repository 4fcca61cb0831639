"""The README's API sketch runs as written, so it follows the signatures
of the functions it calls."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_sketch() -> str:
    section = README.read_text().split("## API sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README.md has no python block under '## API sketch'"
    return block.group(1)


def test_api_sketch_runs():
    exec(compile(api_sketch(), f"{README.name} API sketch", "exec"), {})
