"""Package surface: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

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
