"""The public names of the package and of each module resolve, each module
uses what it imports, and each public name has a use outside the unit tests."""

import ast
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


def _unused_imports(source):
    """The names a module imports and never reads, outside ``__all__``.

    ``from __future__`` imports and import statements with a line marked
    ``# noqa`` are skipped.
    """
    tree, lines = ast.parse(source), source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted((Path(ppsde.__file__).parent).glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_import_check_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Sequence  # noqa: F401\n"
              "from json import dumps as to_json, loads\n"
              "__all__ = ['loads']\n"
              "print(sys.argv)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "to_json")]


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _unreferenced_exports(modules, others):
    """The ``(module, name)`` pairs of ``__all__`` names that no source refers to.

    ``modules`` maps a module's label to its source, and ``others`` holds
    further sources that may refer to their names.  A name is referred to
    when some source reads it, reads it as an attribute or spells it as a
    whole string, as a ``getattr`` target does.  Its definition, an import
    of it and its entry in an ``__all__`` do not count.
    """
    used, exports = set(), []
    for source in (*modules.values(), *others):
        tree = ast.parse(source)
        entries = {id(c) for node in tree.body if _is_all(node) for c in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and id(node) not in entries:
                used.add(node.value)
    for label, source in modules.items():
        for node in ast.parse(source).body:
            if _is_all(node):
                exports += [(label, name) for name in ast.literal_eval(node.value)]
    return sorted((label, name) for label, name in exports if name not in used)


def test_every_exported_name_is_used_outside_the_tests():
    """A public name is used by the package, a demo, a script or the
    benchmark, or pinned by the acceptance tests, not kept for unit tests alone."""
    root = Path(__file__).resolve().parents[1]
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(ppsde.__file__).parent.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for folder in ("demos", "scripts", "perfbench")
              for path in sorted((root / folder).rglob("*.py"))]
    others.append((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert _unreferenced_exports(modules, others) == []


def test_the_export_check_finds_a_name_only_tests_use():
    module = ("__all__ = ['LIMIT', 'helper', 'traced', 'tested']\n"
              "LIMIT = 3\n"
              "def helper():\n    return LIMIT\n"
              "def traced():\n    pass\n"
              "def tested():\n    pass\n")
    caller = "import m\nm.helper()\ngetattr(m, 'traced')\n"
    unit_test = "from m import tested\ntested()\n"
    assert _unreferenced_exports({"m.py": module}, [caller]) == [("m.py", "tested")]
    assert _unreferenced_exports({"m.py": module}, [caller, unit_test]) == []


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


def test_a_run_loads_no_numpy_ma():
    # np.quantile would load numpy.ma at the first pull generation
    loaded = _loaded_modules_after(
        "from ppsde import RunConfig, make_suite_problem, run\n"
        "problem = make_suite_problem('P4', 4)\n"
        "res = run(problem, RunConfig(algorithm='pps-de', max_fes=4000))\n"
        "assert res.switch_generation is not None\n"
        "run(problem, RunConfig(algorithm='eps-de', max_fes=2000))")
    assert "numpy.ma" not in loaded


def test_a_batch_loads_no_numpy_ma(tmp_path):
    # np.median in the cell summaries would load numpy.ma
    argv = ["run", "--problem", "P1", "--dim", "2", "--runs", "3", "--max-fes", "200",
            "--out", str(tmp_path)]
    loaded = _loaded_modules_after("from ppsde.cli import execute, parse_args\n"
                                   f"assert execute(parse_args({argv!r})) == 0")
    assert (tmp_path / "summary.json").is_file()
    assert "numpy.ma" not in loaded


def _bound(owner, attr):
    # a class's own attribute as stored (a classmethod stays one), else getattr
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_the_benchmark_tracer_wraps_every_target_and_restores_it(monkeypatch):
    """perfbench's tracer wraps ppsde names by attribute, so a deleted or
    renamed one must fail here and not only in a traced benchmark pass."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    targets = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    before = [_bound(owner, attr) for owner, attr in targets]
    with tracing.Tracer().installed():
        inside = [_bound(owner, attr) for owner, attr in targets]
    after = [_bound(owner, attr) for owner, attr in targets]
    assert [t for t, raw, now in zip(targets, before, inside) if now is raw] == []
    assert [t for t, raw, now in zip(targets, before, after) if now is not raw] == []


def test_cli_import_loads_no_process_pool():
    # only a batch with more than one worker needs the pool machinery
    loaded = _loaded_modules_after("import ppsde.cli")
    assert "concurrent.futures" not in loaded
    assert "multiprocessing" not in loaded
