"""Every definition of src/kgen is named somewhere in the program (src/,
perfbench/, scripts/) besides its own definition: top-level functions and
classes, the methods and properties of top-level classes, their class
attributes and dataclass fields, and module constants.

A name counts as used where it appears as syntax: an attribute read, an
imported name, or a bare name that is not a local or a parameter of an
enclosing function (a function-local `stack` does not keep expander.stack
in use).  Comments and strings do not count.  A class attribute or dataclass
field counts as used only where it is read as an attribute.  The match is by
name only, so `int.from_bytes` would keep a method `from_bytes` in use, and a
field `k` is read wherever any object's `k` is.  Dunder names are the
language's, and never checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "perfbench", "scripts")

# library code kept only as a test oracle -> the test that relies on it
TEST_ORACLES = {
    "all_small_row_subsets_independent": "test_acceptance_02_expander_composition",
    "clmul_portable": "test_acceptance_11b_clmul_paths_bit_identical",
    "random_polynomial": "test_acceptance_04a_additive_fft_gf256",
    "stack": "test_acceptance_03_stacking",
    "wilson_interval": "test_acceptance_10_load_balancing",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned(node):
    """The names a class-body or module-level statement assigns."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions():
    """(kind, where, name): kind "name" for what any use keeps alive, "field"
    for what only an attribute read does."""
    for path in sorted((ROOT / "src" / "kgen").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFS):
                yield "name", path.name, node.name
            for name in _assigned(node):
                yield "name", path.name, name
            if not isinstance(node, ast.ClassDef):
                continue
            where = f"{path.name}:{node.name}"
            for member in node.body:
                if isinstance(member, _DEFS):
                    yield "name", where, member.name
                for name in _assigned(member):
                    yield "field", where, name


def _bound(scope):
    """Parameters and names bound inside a function, lambda or comprehension,
    less those it declares global or nonlocal."""
    names, free = set(), set()
    for node in ast.walk(scope):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, _DEFS) and node is not scope:
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
    return names - free


def _uses():
    """(names, reads): what the program names, and the attributes it reads."""
    names, reads = set(), set()

    def visit(node, local):
        if isinstance(node, _SCOPES):
            local = local | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    for top in PROGRAM:
        for path in (ROOT / top).rglob("*.py"):
            visit(ast.parse(path.read_text()), frozenset())
    return names, reads


def test_every_library_definition_has_a_program_caller():
    names, reads = _uses()
    defined = set(_definitions())
    dead = sorted(f"{where}:{name}" for kind, where, name in defined
                  if not _is_dunder(name) and name not in TEST_ORACLES
                  and name not in (reads if kind == "field" else names))
    assert dead == [], "no caller under src/, perfbench/ or scripts/: " + ", ".join(dead)
    # an oracle that gains a program caller, or is deleted, leaves the list
    defined_names = {name for _, _, name in defined}
    assert all(name in defined_names and name not in names for name in TEST_ORACLES)
