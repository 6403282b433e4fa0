"""Library checks must survive ``python -O``, which strips assert statements;
the spectral core stays exact and keeps no per-word state between calls;
the oracle generators and the tiling reconstruction stay apart from the
closed form; no library module imports a name it never reads."""

import ast
from pathlib import Path

import trifold


def test_library_has_no_assert_statements():
    modules = sorted(Path(trifold.__file__).parent.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_spectral_has_no_floats_or_argument_caches():
    path = Path(trifold.__file__).parent / "spectral.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    floats = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
              or isinstance(node, ast.Name) and node.id == "float"]
    assert floats == []
    # a cache on a function of a word would outlive the command that filled it
    cached = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.decorator_list
              and (node.args.args or node.args.posonlyargs or node.args.kwonlyargs
                   or node.args.vararg or node.args.kwarg)
              and any("cache" in ast.unparse(d) for d in node.decorator_list)]
    assert cached == []


def _names_used(name: str) -> set[str]:
    """Names a library module imports with ``from`` or reads as attributes."""
    path = Path(trifold.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    return used | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_oracle_generators_never_meet_the_closed_form():
    # the unfolder and the substituter check the closed form, so neither
    # may reach its layer rule or its painter
    closed_form = {"layer_kernel", "layer_data", "_paint", "_layer_colors",
                   "color_of_segment", "patch"}
    for name in ("unfold.py", "substitution.py"):
        assert _names_used(name) & closed_form == set(), name


def test_reconstruction_is_local():
    # reconstruct rebuilds colors from red counts alone: no layer
    # arithmetic and no closed-form pattern may reach tiling.py, and
    # no line or hexagon geometry either, so a tile reads only its own sides
    closed_form = {"layer_of", "layer_data", "layer_kernel", "v2", "color_of_segment",
                   "patch", "ball_patch", "_paint"}
    beyond_a_tile = {"line_position", "segment_at", "line_of", "AROUND", "SPOKES"}
    assert _names_used("tiling.py") & (closed_form | beyond_a_tile) == set()


def test_library_modules_have_no_unused_imports():
    unused = []
    for path in sorted(Path(trifold.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []
