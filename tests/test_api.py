"""The public names of the package and of each module resolve."""

import importlib
import os
import re
import subprocess
import sys
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


def _loaded_modules_after(code):
    """Names from a fresh interpreter's sys.modules once ``code`` has run."""
    src = str(Path(ppsde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return set(out.stdout.split())


def test_import_does_not_load_scipy_stats():
    # scipy.stats is most of the import time, and nothing in ppsde needs it
    loaded = _loaded_modules_after("import ppsde")
    assert "scipy.stats" not in loaded
    assert "scipy.special" not in loaded


def test_friedman_aligned_loads_scipy_special_only():
    loaded = _loaded_modules_after("import ppsde; ppsde.friedman_aligned([[1, 2], [3, 5]])")
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
