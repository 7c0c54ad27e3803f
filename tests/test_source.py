"""Static checks on the package source, with the standard library only."""

import ast
import collections
import importlib
from pathlib import Path

from conftest import FIRST_REFUSED_SIZE

import majinv
from majinv.cli import VERIFY_SUITES

PACKAGE = Path(majinv.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_one():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert _unused_imports(source) == ["os (line 2)", "c (line 3)"]


def test_modules_use_every_import():
    # __init__.py imports to re-export, so it is left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _imports_numpy(source: str) -> list[int]:
    """The lines that import numpy or a submodule of it, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_numpy_import_check_sees_each_form():
    source = (
        "import numpy as np\n"
        "def f():\n    import numpy.linalg\n"
        "def g():\n    from numpy import arange\n"
        "import numpyish\nfrom . import numpy\n"
    )
    assert _imports_numpy(source) == [1, 3, 5]


def test_only_mahonian_imports_numpy():
    # mahonian owns the array kernels; the other modules stay pure Python
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    importers = [p.stem for p in modules if _imports_numpy(p.read_text(encoding="utf-8"))]
    assert importers == ["mahonian"]


# private functions that only the tests call, as module.name in module order
TEST_HOOKS = ("qseries._clear_memos", "transform._clear_memos")


def _read_names(tree):
    """The names a tree reads, plain or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node.id if isinstance(node, ast.Name) else node.attr


def _unread_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, as module.name, that no code of the
    modules ``sources`` reads outside the function's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = collections.Counter(name for tree in trees.values() for name in _read_names(tree))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and reads[node.name] == list(_read_names(node)).count(node.name)
    ]


def test_unread_private_function_check_sees_one():
    sources = {
        "a": "def _used(): pass\ndef _rec(n): return _rec(n - 1)\ndef _dead(): pass\n",
        "b": "from . import a\ndef _hook(): a._used()\ndef __getattr__(name): pass\n",
    }
    assert _unread_private_functions(sources) == ["a._rec", "a._dead", "b._hook"]


def test_every_private_function_is_read():
    # code with no caller goes; a test hook is named in TEST_HOOKS
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert _unread_private_functions(sources) == list(TEST_HOOKS)


def _unbounded_caches(source: str) -> list[str]:
    """Caches that grow for the life of the process: functools.cache, and
    lru_cache with maxsize None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"cache (line {node.lineno})" for a in node.names if a.name == "cache"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cache"
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"cache (line {node.lineno})")
        elif isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)
        ) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(f"lru_cache (line {node.lineno})")
    return found


def test_unbounded_cache_check_sees_each_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(None)\ndef c(): pass\n"
        "@lru_cache(maxsize=8)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n"
        "cache = {}\n"
    )
    assert _unbounded_caches(source) == [
        "cache (line 2)",
        "cache (line 3)",
        "lru_cache (line 5)",
        "lru_cache (line 7)",
    ]


def test_every_cache_is_bounded():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unbounded = {
        p.name: found
        for p in modules
        if (found := _unbounded_caches(p.read_text(encoding="utf-8")))
    }
    assert unbounded == {}


def test_traced_bench_names_exist():
    # bench/tracing.py wraps these attributes by name; a rename would break
    # the traced bench run, so the names are read from that file, not copied
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    (spanned,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]
    )
    assert spanned
    missing = [
        f"{module}.{name}"
        for module, names in spanned.items()
        for name in names
        if not hasattr(importlib.import_module(f"majinv.{module}"), name)
    ]
    assert missing == []


def test_every_sized_suite_has_a_refusal_row():
    # a suite that reads --size is refused by its cost, and the refusal
    # table of the tests names its first refused size
    sized = sorted(s for s, (_, options) in VERIFY_SUITES.items() if "size" in options)
    assert sized and sized == sorted(FIRST_REFUSED_SIZE)


def _assigned_names(source: str) -> list[str]:
    """The names a module assigns at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_assigned_name_check_sees_each_form():
    source = "A_CAP = 1\nB: int = 2\nfrom x import C_CAP\ndef f():\n    D_CAP = 3\n"
    assert _assigned_names(source) == ["A_CAP", "B"]


def test_mahonian_sets_no_alphabet_cap_by_hand():
    # each suite refuses an alphabet size by the work it would do, against a
    # budget of the package, not by a hand-set cap
    names = _assigned_names((PACKAGE / "mahonian.py").read_text(encoding="utf-8"))
    assert names and [name for name in names if name.endswith("_CAP")] == []
