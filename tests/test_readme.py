"""README's configuration table lists exactly the fields of each block."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path

from normcl.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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
