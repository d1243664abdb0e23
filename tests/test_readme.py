"""README's "Removed names" table names only names that are gone."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import queryshift

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(queryshift.__path__)}


def removed_names() -> list:
    """Each ``head.name`` that opens a code span in the table's first column,
    where ``head`` is a module or a class name."""
    section = README.read_text(encoding="utf-8").split("## Removed names", 1)[1]
    names = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        first = line.split("|")[1]
        for span in re.findall(r"`([^`]*)`", first):
            head = re.match(r"(\w+)\.(\w+)", span)
            if head:
                names.append((head[1], head[2]))
    return names


def package_class(name: str) -> type:
    """The class ``name`` as the package module that defines it holds it."""
    found = []
    for module in sorted(MODULES):
        cls = getattr(importlib.import_module(f"queryshift.{module}"), name, None)
        if inspect.isclass(cls) and cls.__module__ == f"queryshift.{module}":
            found.append(cls)
    assert len(found) == 1, f"README's removed-name row {name} names no single package class"
    return found[0]


def test_removed_names_are_absent():
    names = [(m, n) for m, n in removed_names() if m in MODULES]
    # The table holds 19 such names; a parse that finds none checks nothing.
    assert len(names) >= 19
    for module, name in names:
        assert not hasattr(importlib.import_module(f"queryshift.{module}"), name), (
            f"README lists {module}.{name} as removed")


def test_removed_attributes_are_absent():
    rows = [(c, n) for c, n in removed_names() if c not in MODULES]
    # SessionConfig.batch_size, RunConfig.session_config(), ForwardState.cand_embs
    # and BatchResult.breakdown.
    assert len(rows) >= 4
    for class_name, attr in rows:
        cls = package_class(class_name)
        assert not hasattr(cls, attr), f"README lists {class_name}.{attr} as removed"
        if dataclasses.is_dataclass(cls):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert attr not in fields, f"README lists {class_name}.{attr} as removed"
