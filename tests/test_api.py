"""The package's public surface: README's library and CLI examples and redense.__all__."""

import re
import shlex
import types
from pathlib import Path

import redense
from redense import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README}:Library", "exec"), {"__name__": "readme_library"})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    # the IDX pair the block reads, written by the one-liner README gives before it
    exec(re.search(r'`python -c "(.*?)"`', section).group(1), {})
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["redense", cmd] for cmd in ("train", "features", "redense", "sweep-m", "eval")]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


def test_all_lists_exactly_the_public_bindings():
    for name in redense.__all__:
        assert hasattr(redense, name), name
    public = {name for name, value in vars(redense).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(redense.__all__)
    assert len(redense.__all__) == len(set(redense.__all__))
