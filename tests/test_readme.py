"""README stays true to the code: its configuration table lists exactly
the fields of each block, its commands parse and run every subcommand,
its quickstart config loads, and it names the checkpoint format the code
writes."""

import json
import re
import shlex
from dataclasses import fields, is_dataclass
from pathlib import Path

from normcl.cli import _PARSER
from normcl.config import RunConfig, run_config_from_dict
from normcl.trainer import FORMAT_VERSION

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced blocks opened with ``lang``."""
    blocks, opened, body = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif opened is None:
            opened, body = line[3:].strip(), []
        else:
            if opened == lang:
                blocks.append("\n".join(body) + "\n")
            opened = None
    return blocks


def _top_level_names(cell: str) -> list[str]:
    """The backticked names outside bracketed text, dotted names dropped.

    Either bracket opens and either closes, so an interval such as
    ``(0, 1]`` inside a parenthesis keeps the depth balanced.
    """
    depth, kept = 0, []
    for ch in cell:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return [name for name in re.findall(r"`([^`]+)`", "".join(kept))
            if "." not in name]


def test_config_table_matches_the_dataclasses():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row:
            rows[row.group(1)] = _top_level_names(row.group(2))
    blocks = {f.name: [g.name for g in fields(f.default_factory)]
              for f in fields(RunConfig) if is_dataclass(f.default_factory)}
    assert rows == blocks


def _readme_commands() -> list[list[str]]:
    """Each ``normcl`` command line of the plain fenced blocks, with
    backslash continuations joined and comments dropped."""
    commands = []
    for block in _fenced_blocks(""):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["normcl"]:
                commands.append(words[1:])
    return commands


def _parses(argv: list[str]) -> bool:
    try:
        _PARSER.parse_args(argv)
    except SystemExit:
        return False
    return True


def test_commands_parse():
    """README runs every subcommand the parser offers, and no other."""
    commands = _readme_commands()
    (choices,) = [a.choices for a in _PARSER._actions if a.dest == "command"]
    assert {argv[0] for argv in commands} == set(choices)
    assert [argv for argv in commands if not _parses(argv)] == []


def test_quickstart_config_loads():
    (block,) = _fenced_blocks("json")
    config = run_config_from_dict(json.loads(block))
    assert config.curriculum.kind == "norm_based"


def test_checkpoint_format_matches_the_code():
    formats = re.findall(r"\(format (\d+)\)", README.read_text(encoding="utf-8"))
    assert formats == [str(FORMAT_VERSION)]
