"""The benchmark tracer rebinds library functions by name; every name it
lists must still resolve, so a rename or a removal fails here and not
in a traced benchmark run."""

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


tracing = _tracing()


@pytest.mark.parametrize("target", [
    *(target for target, _ in tracing.SPANS),
    *(target for target, _ in tracing.ITERATORS),
    *tracing.PEAKS,
])
def test_traced_name_resolves(target):
    owner, attr, original = tracing._resolve(target)
    assert callable(original), target
