"""The benchmark tracer rebinds library functions by name; every name it
lists must still resolve, so a rename or a removal fails here and not
in a traced benchmark run.  Besides its tables, ``Tracer.install``
names functions in its own ``replace`` calls; those names are read
from the source with ``ast``."""

import ast
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    """bench/tracing.py run from its source text, which leaves no
    bytecode cache beside it."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _installed_by_name() -> list[str]:
    """The string literals ``Tracer.install`` passes to ``_patcher.replace``."""
    tree = ast.parse(TRACING.read_text())
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return [call.args[0].value for call in ast.walk(install)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "replace"
            and isinstance(call.func.value, ast.Attribute)
            and call.func.value.attr == "_patcher"
            and call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)]


tracing = _tracing()
INSTALLED = _installed_by_name()


def test_install_names_are_found():
    assert INSTALLED


@pytest.mark.parametrize("target", [
    *(target for target, _ in tracing.SPANS),
    *(target for target, _ in tracing.ITERATORS),
    *tracing.PEAKS,
    *INSTALLED,
])
def test_traced_name_resolves(target):
    owner, attr, original = tracing._resolve(target)
    assert callable(original), target
