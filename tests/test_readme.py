"""Every python code block in README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[tuple[int, str]]:
    """(line number of the opening fence, code) of each ```python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(line, code):
    exec(compile(code, f"{README.name}:{line}", "exec"), {"__name__": "readme"})
