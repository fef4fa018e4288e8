from __future__ import annotations

import importlib
import pkgutil
import re
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


def test_readme_names_resolve():
    # Every `module.name`, `module.name(...)` and `module.name.attr` that
    # README gives for a suggestgate module exists, down to the last attribute.
    modules = {info.name for info in pkgutil.iter_modules(suggestgate.__path__)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = [
        (module, path)
        for module, path in re.findall(r"`(\w+)((?:\.\w+)+)[`(]", readme)
        if module in modules
    ]
    assert len(named) >= 5
    for module, path in named:
        owner = importlib.import_module(f"suggestgate.{module}")
        for name in path[1:].split("."):
            assert hasattr(owner, name), f"{module}{path}"
            owner = getattr(owner, name)
