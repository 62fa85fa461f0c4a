"""The README's examples run as written: the library tour and the command block."""

import json
import re
import shlex
import shutil
import tomllib
from pathlib import Path

from eivtls.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def fenced_block(heading: str) -> str:
    """The first fenced code block under the README heading ``## heading``."""
    text = (ROOT / "README.md").read_text()
    return re.search(rf"## {heading}\n.*?```\w*\n(.*?)\n```", text, re.S).group(1)


def refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_library_tour_runs():
    tour = fenced_block("Library tour")
    exec(compile(tour, "README.md (Library tour)", "exec"), {})


def test_command_block_exits_0_and_writes_strict_json(tmp_path, monkeypatch):
    # The block's `eivtls` is the console script that calls cli.main.
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"eivtls": "eivtls.cli:main"}
    shutil.copytree(ROOT / "scripts" / "configs", tmp_path / "scripts" / "configs")
    configs = set(tmp_path.rglob("*.json"))
    monkeypatch.chdir(tmp_path)
    for command in fenced_block("Command line").replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(command)
        assert program == "eivtls"
        assert main(argv) == EXIT_OK, command
    # Every report the block writes is strict JSON: no NaN or Infinity.
    reports = set(tmp_path.rglob("*.json")) - configs
    assert reports
    for path in reports:
        json.loads(path.read_text(), parse_constant=refuse)
