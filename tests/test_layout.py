"""Source guards: no module-level memo caches or containers, no numpy in the
polynomial layer and no numpy.random in the oracle, package __init__ files
that import nothing (the ``flagein`` command is the one entry point), no
function, class, method or module-level constant that nothing in the package
refers to, and no error message raised from two functions."""

import ast
import os
import subprocess
import sys
from collections import Counter
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
        "from flagein.solver import newton_oracle\n"
        "newton_oracle(root_system('G2'), starts=50, seed=1)\n"
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


def _referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read as a Name, an Attribute or an import alias."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants, and non-dunder methods
    of module-level classes, whose name appears nowhere in *sources* outside
    their own definition (for a constant, the statement that assigns it).

    The match is by name alone, so a definition escapes when any other name
    in the package is spelled the same: a method ``value`` or ``width`` is
    never flagged while some local variable is called ``value`` or ``width``.
    """
    trees = {path: ast.parse(source) for path, source in sources.items()}
    total = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                members = [(name, name, node) for name in names if not name.startswith("__")]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                members = [(node.name, node.name, node)]
                if isinstance(node, ast.ClassDef):
                    members += [
                        (f"{node.name}.{item.name}", item.name, item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    ]
            else:
                continue
            for label, name, definition in members:
                if total[name] == _referenced_names(definition)[name]:
                    found.append(f"{path}:{label}")
    return found


def test_dead_definition_guard_flags_each_kind():
    sources = {
        "a.py": (
            "from .b import used\n"
            "def dead(): return dead()\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def kept(self): return 1\n"
            "    def spare(self): return self.spare()\n"
            "print(Box().kept(), used, LIMIT)\n"
            "LIMIT: int = 3\n"
            "_CONTENT_STEP_BITS = 64\n"
        ),
        # the variable ``value`` hides the unused function of that name
        "b.py": "def used():\n    value = 1\n    return value\nclass Unused: pass\ndef value(): pass\n",
    }
    assert _unreferenced(sources) == ["a.py:dead", "a.py:Box.spare", "a.py:_CONTENT_STEP_BITS", "b.py:Unused"]


def test_every_definition_is_reached_from_the_package():
    sources = {str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert _unreferenced(sources) == []


# messages that two functions raise on purpose, with the reason for each
_SHARED_MESSAGES = {
    "empty generator list": "saturate reads generators[0] before buchberger can check the list",
}


def _shared_messages(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each string constant that is the message of a raised ``...Error`` in
    more than one function, with those functions as 'path:qualified name'.

    The match is by text, so an f-string message is never counted; other
    exceptions, such as the Groebner kernel's budget signal, carry data, not
    a message."""
    raisers: dict[str, set[str]] = {}

    def visit(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and child.exc.args:
                func, message = child.exc.func, child.exc.args[0]
                error = getattr(func, "id", getattr(func, "attr", "")).endswith("Error")
                if error and isinstance(message, ast.Constant) and isinstance(message.value, str):
                    raisers.setdefault(message.value, set()).add(f"{path}:{scope}")
            visit(child, path, scope)

    for path, source in sources.items():
        visit(ast.parse(source), path, "")
    return {message: sorted(where) for message, where in raisers.items() if len(where) > 1}


def _one_owner_violations(sources: dict[str, str], allowed) -> dict[str, list[str]]:
    """Each shared message that *allowed* does not name, with its raisers,
    and each message *allowed* names that no two functions share, with none:
    a stale entry fails the guard as an unlisted one does."""
    shared = _shared_messages(sources)
    found = {message: where for message, where in shared.items() if message not in allowed}
    found.update({message: [] for message in allowed if message not in shared})
    return found


def test_one_owner_guard_flags_a_message_raised_from_two_functions():
    sources = {
        "a.py": (
            "def check(n):\n"
            "    if n < 0:\n"
            "        raise ValueError('n must be >= 0')\n"
            "class Box:\n"
            "    def put(self, n):\n"
            "        raise errors.ValueError('n must be >= 0')\n"
            "def twice(n):\n"
            "    if n:\n"
            "        raise KeyError('once')\n"
            "    raise KeyError('once')\n"
        ),
        # an f-string and a bare re-raise are not constant messages, and a
        # signal that is not an error carries no message
        "b.py": (
            "def stop():\n"
            "    raise _Stop('pairs')\n"
            "def other(n):\n"
            "    if n:\n"
            "        raise ValueError(f'{n} must be >= 0')\n"
            "    try:\n"
            "        check(n)\n"
            "    except ValueError:\n"
            "        raise\n"
            "    raise TypeError('n must be >= 0')\n"
            "def halt():\n"
            "    raise _Stop('pairs')\n"
        ),
    }
    shared = {"n must be >= 0": ["a.py:Box.put", "a.py:check", "b.py:other"]}
    assert _shared_messages(sources) == shared
    assert _one_owner_violations(sources, {}) == shared
    # 'once' is raised from one function only, so an entry for it is stale
    assert _one_owner_violations(sources, {"n must be >= 0": "shared", "once": "stale"}) == {"once": []}


def test_each_message_is_raised_from_one_function():
    sources = {str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert _one_owner_violations(sources, _SHARED_MESSAGES) == {}
