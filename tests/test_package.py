from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import suggestgate


def test_every_exported_name_resolves():
    for name in suggestgate.__all__:
        assert hasattr(suggestgate, name), name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_scripts_import():
    import tomllib

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
