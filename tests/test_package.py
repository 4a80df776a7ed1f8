"""Package surface: every exported name exists, and no module imports
another module's private names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from importlib.util import resolve_name
from pathlib import Path

import pytest

import plate_fsi

MODULES = ["plate_fsi"] + sorted(
    info.name for info in pkgutil.walk_packages(plate_fsi.__path__, "plate_fsi.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name: str) -> None:
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_no_module_imports_private_names_of_another() -> None:
    # A name one module shares with another belongs to its public surface;
    # tests may still reach private names.
    root = Path(plate_fsi.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        package = ".".join(("plate_fsi",) + path.parent.relative_to(root).parts)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = resolve_name("." * node.level + (node.module or ""), package)
            if source.split(".")[0] == "plate_fsi":
                offenders += [
                    f"{path.relative_to(root)}: {source}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
