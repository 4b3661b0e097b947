"""The README's shell and library examples print what the README shows."""

import re
import shlex
from pathlib import Path

import ebn
from ebn.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_examples() -> list[tuple[str, str]]:
    """(command line, expected output) for every `$ ebn ...` example."""
    examples = []
    for block in _blocks("sh"):
        for chunk in block.split("\n\n"):
            if chunk.startswith("$ ebn "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


def test_readme_shell_examples(capsys):
    examples = _shell_examples()
    assert len(examples) == 3
    for command, expected in examples:
        command, _, pattern = command.partition(" | grep ")
        assert main(shlex.split(command)[1:]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        out = "".join(line for line in lines if pattern in line)
        assert out == expected, command


def test_readme_library_snippet(capsys):
    (snippet,) = _blocks("python")
    exec(compile(snippet, "README.md", "exec"), {})
    expected = "".join(
        line[2:] + "\n" for line in snippet.splitlines() if line.startswith("# ")
    )
    assert capsys.readouterr().out == expected


def test_every_call_the_readme_shows_is_a_name_of_the_package():
    # a call form such as `reify(ty, value, names)` documents an entry of
    # `ebn`; one that is gone from the package fails here
    names = set(re.findall(r"`([A-Za-z_]\w*)\(", README))
    assert {"norm", "reify"} <= names
    assert sorted(name for name in names if not hasattr(ebn, name)) == []
