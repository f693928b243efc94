"""The public names of the package and of each module resolve."""

import importlib
import re
from pathlib import Path

import pytest

import ppsde

MODULES = ("cli", "de", "phases", "problems", "selection", "solver", "stats")


def test_package_names_resolve():
    missing = [name for name in ppsde.__all__ if not hasattr(ppsde, name)]
    assert missing == []
    assert len(set(ppsde.__all__)) == len(ppsde.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"ppsde.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_version_matches_project_metadata():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert match and match.group(1) == ppsde.__version__
