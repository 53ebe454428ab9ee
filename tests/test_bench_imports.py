"""The benchmark scripts under bench/ against the package they drive: read
with `ast`, never run, so a script that no test executes still fails here
when a name it uses from mirroratoms is renamed or removed, or a keyword it
passes is no longer accepted."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _resolve(module: str, name: str):
    """What `from module import name` binds: an attribute, else a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _imported(tree) -> dict:
    """Local name -> object for every name the script imports from mirroratoms."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mirroratoms":
            for alias in node.names:
                bound[alias.asname or alias.name] = _resolve(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mirroratoms":
                    module = importlib.import_module(alias.name)  # `import a.b` binds a
                    bound[alias.asname or "mirroratoms"] = (
                        module if alias.asname else importlib.import_module("mirroratoms"))
    return bound


def _lookup(node, bound):
    """The object an expression `name` or `name.attr...` stands for, when
    `name` is imported from mirroratoms; None otherwise. AssertionError
    names an attribute the object lacks."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _lookup(node.value, bound)
        if owner is not None:
            assert hasattr(owner, node.attr), f"{ast.unparse(node)} does not resolve"
            return getattr(owner, node.attr)
    return None


def test_bench_scripts_are_found():
    names = {path.name for path in SCRIPTS}
    assert {"run.py", "spans.py", "checks.py", "make_cmax_reference.py"} <= names


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_bench_calls_into_mirroratoms_resolve_and_bind(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    bound = _imported(tree)  # an import that does not resolve raises here
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _lookup(node, bound)
        if not (isinstance(node, ast.Call) and callable(target := _lookup(node.func, bound))):
            continue
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        args = [None] * sum(not isinstance(arg, ast.Starred) for arg in node.args)
        kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        complete = len(args) == len(node.args) and len(kwargs) == len(node.keywords)
        bind = signature.bind if complete else signature.bind_partial
        try:
            bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{script.name}:{node.lineno}: {ast.unparse(node)}: {exc}")
