"""README's "Removed names" table names only names that are gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import queryshift

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(queryshift.__path__)}


def removed_module_names() -> list:
    """Each ``module.name`` that opens a code span in the table's first column."""
    section = README.read_text(encoding="utf-8").split("## Removed names", 1)[1]
    names = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first = line.split("|")[1]
        for span in re.findall(r"`([^`]*)`", first):
            head = re.match(r"(\w+)\.(\w+)", span)
            if head and head[1] in MODULES:
                names.append((head[1], head[2]))
    return names


def test_removed_names_are_absent():
    names = removed_module_names()
    # The table holds 19 such names; a parse that finds none checks nothing.
    assert len(names) >= 19
    for module, name in names:
        assert not hasattr(importlib.import_module(f"queryshift.{module}"), name), (
            f"README lists {module}.{name} as removed")
