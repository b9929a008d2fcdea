"""Every cross-reference in the package's docstrings and in the README names something that exists."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gkptrack").rglob("*.py")) + [ROOT / "README.md"]
# a Sphinx role's target, and a single-backticked name in the package
ROLE = re.compile(r":(?:func|mod|class|data):`~?([\w.]+)`")
NAME = re.compile(r"(?<![`:\w])`(gkptrack(?:\.\w+)*)`(?!`)")


def module_of(path):
    """The dotted module name of a source file; ``None`` for the README."""
    if path.suffix != ".py":
        return None
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def references():
    """(file, module, name) of every reference, in file order."""
    for path in SOURCES:
        text = path.read_text()
        for pattern in (ROLE, NAME):
            for match in pattern.finditer(text):
                yield path.relative_to(ROOT), module_of(path), match.group(1)


def resolve(name, module):
    """The object ``name`` names, absolute or relative to ``module``."""
    parts = name.split(".")
    if parts[0] != "gkptrack":
        if module is None:
            raise AttributeError(f"relative name {name!r} outside a module")
        parts = module.split(".") + parts
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_cross_references_resolve():
    refs = list(references())
    # the patterns still find the references (63 of them)
    assert len(refs) > 30
    unresolved = []
    for path, module, name in refs:
        try:
            resolve(name, module)
        except (ImportError, AttributeError):
            unresolved.append(f"{path}: {name}")
    assert unresolved == []
