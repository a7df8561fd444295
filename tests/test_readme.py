"""Every python code block in README.md runs as written, and so does the
README's CLI walkthrough."""

import pathlib
import re
import shlex

import pytest

from mugl import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def code_blocks(lang: str) -> list[tuple[int, str]]:
    """(line number of the opening fence, code) of each ```<lang> block."""
    return [
        (TEXT.count("\n", 0, match.start()) + 1, match.group(1))
        for match in re.finditer(rf"^```{lang}\n(.*?)^```$", TEXT, re.M | re.S)
    ]


def cli_steps() -> list[tuple[str, object]]:
    """The shell blocks that run `mugl`, in order, as ("write", (name, text)),
    ("run", argv) and ("expect", paths) steps.  Any other line in such a
    block fails here, so the walkthrough cannot drift into untested shell."""
    steps = []
    for line_no, code in code_blocks("sh"):
        lines = code.splitlines()
        if not any(line.startswith("mugl ") for line in lines):
            continue
        it = iter(lines)
        for line in it:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = []
                for body_line in it:
                    if body_line == "EOF":
                        break
                    body.append(body_line)
                steps.append(("write", (heredoc.group(1), "\n".join(body) + "\n")))
            elif line.startswith("mugl "):
                steps.append(("run", shlex.split(line)[1:]))
            elif line.startswith("# -> "):
                steps.append(("expect", line[len("# -> "):].split(", ")))
            else:
                raise AssertionError(f"{README.name}:{line_no}: unexpected line {line!r}")
    return steps


BLOCKS = code_blocks("python")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(line, code):
    exec(compile(code, f"{README.name}:{line}", "exec"), {"__name__": "readme"})


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = cli_steps()
    assert [argv[0] for kind, argv in steps if kind == "run"] == [
        "generate", "learn", "eval", "bench"
    ]
    for kind, arg in steps:
        if kind == "write":
            name, text = arg
            pathlib.Path(name).write_text(text)
        elif kind == "run":
            assert cli.main(arg) == 0, (arg, capsys.readouterr().err)
        else:
            for path in arg:
                assert pathlib.Path(path).is_file(), path
