"""Source guards: no module-level memo caches or containers, no numpy in the
polynomial layer and no numpy.random in the oracle, and package __init__
files that import nothing (the ``flagein`` command is the one entry point)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagein

PACKAGE = Path(flagein.__file__).resolve().parent
_MEMOS = {"lru_cache", "cache"}


def _memo_decorators(source: str) -> list[str]:
    """Names of the functions decorated with functools.lru_cache or
    functools.cache, in any spelling the imports allow."""
    tree = ast.parse(source)
    memo_names, module_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            memo_names |= {a.asname or a.name for a in node.names if a.name in _MEMOS}
        elif isinstance(node, ast.Import):
            module_names |= {a.asname or a.name for a in node.names if a.name == "functools"}
    found = []
    for node in ast.walk(tree):
        for decorator in getattr(node, "decorator_list", ()):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name):
                hit = target.id in memo_names
            else:
                hit = (
                    isinstance(target, ast.Attribute)
                    and target.attr in _MEMOS
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_names
                )
            if hit:
                found.append(node.name)
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x\n",
        "from functools import cache\n@cache\ndef f(x): return x\n",
        "from functools import lru_cache as memo\n@memo\ndef f(x): return x\n",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
        "import functools as ft\nclass A:\n    @ft.cache\n    def f(self): return 1\n",
    ],
)
def test_memo_guard_flags_each_spelling(source):
    assert _memo_decorators(source) == ["f"]


def test_memo_guard_allows_instance_cached_property():
    source = "from functools import cached_property\nclass A:\n    @cached_property\n    def f(self): return 1\n"
    assert _memo_decorators(source) == []


def test_no_memo_caches_in_the_package():
    found = {
        str(path.relative_to(PACKAGE)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := _memo_decorators(path.read_text()))
    }
    assert found == {}


@pytest.mark.parametrize("init", ["__init__.py", "polyalg/__init__.py"])
def test_package_init_imports_nothing(init):
    tree = ast.parse((PACKAGE / init).read_text())
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def _imports_numpy(source: str) -> bool:
    """Whether any import, at any depth, names numpy or a numpy submodule."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            return True
    return False


@pytest.mark.parametrize(
    "source, hit",
    [
        ("import numpy as np\n", True),
        ("def f():\n    from numpy.linalg import solve\n", True),
        ("from .poly import MultiPoly\n", False),
        ("import numbers\n", False),
    ],
)
def test_numpy_guard_flags_each_spelling(source, hit):
    assert _imports_numpy(source) is hit


def test_no_numpy_in_the_polynomial_layer():
    # the exact layer runs without numpy, so a run that never reaches the
    # oracle never pays its import
    found = sorted(
        str(path.relative_to(PACKAGE))
        for path in (PACKAGE / "polyalg").rglob("*.py")
        if _imports_numpy(path.read_text())
    )
    assert found == []


def test_oracle_never_imports_numpy_random():
    # the oracle draws its starts from the standard library; numpy.random
    # would add ~5 MB to the peak memory of every run that reaches it
    script = (
        "import sys\n"
        "from flagein.rootsys import root_system\n"
        "from flagein.solver import build_system, newton_oracle\n"
        "newton_oracle(build_system(root_system('G2'), normalization={'x1': 1}), starts=50, seed=1)\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert run.stdout.split() == ["True", "False"]


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_TYPES = {"dict", "list", "set"}


def _module_level_containers(source: str) -> list[int]:
    """Lines where a module-level statement binds a name to a dict, list or
    set display, comprehension or constructor call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            value = node.value
            called = value.func.id if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) else None
            if isinstance(value, _MUTABLE_DISPLAYS) or called in _MUTABLE_TYPES:
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source, lines",
    [
        ("CACHE = {}\n", [1]),
        ("X = 1\nSEEN: set[int] = set()\n", [2]),
        ("ROWS = [n for n in range(3)]\n", [1]),
        ("TABLE = dict(a=1)\n", [1]),
        ("NAMES = ('a', 'b')\nLIMIT = frozenset({1})\ndef f():\n    seen = {}\n", []),
    ],
)
def test_container_guard_flags_each_spelling(source, lines):
    assert _module_level_containers(source) == lines


def test_no_module_level_containers_in_the_package():
    found = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _module_level_containers(path.read_text()))
    }
    assert found == {}
