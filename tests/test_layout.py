"""Source guards: no module-level memo caches, and package __init__ files
that import nothing (the ``flagein`` command is the one entry point)."""

import ast
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
