"""Every top-level function and class of src/kgen is named somewhere in the
program (src/, perfbench/, scripts/) besides its own definition.

A name counts as used where it appears as syntax: a variable, an attribute
or an imported name; comments and strings do not count.  The match is by
name only, so a same-named local counts too (field.py's local `stack` keeps
expander.stack in use).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "perfbench", "scripts")

# library code kept only as a test oracle -> the test that relies on it
TEST_ORACLES = {
    "all_small_row_subsets_independent": "test_acceptance_02_expander_composition",
    "random_polynomial": "test_acceptance_04a_additive_fft_gf256",
    "wilson_interval": "test_acceptance_10_load_balancing",
}


def _definitions():
    for path in sorted((ROOT / "src" / "kgen").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, path.name


def _used_names():
    used = set()
    for top in PROGRAM:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
    return used


def test_every_library_definition_has_a_program_caller():
    used = _used_names()
    defined = dict(_definitions())
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in used and name not in TEST_ORACLES)
    assert dead == [], "no caller under src/, perfbench/ or scripts/: " + ", ".join(dead)
    # an oracle that gains a program caller, or is deleted, leaves the list
    assert all(name in defined and name not in used for name in TEST_ORACLES)
