"""No public API that only tests use: every public top-level function and
class in ``src/periwave`` is named by some other line of ``src/`` (a call,
an import, an annotation or an attribute), or is on the allow-list below with
its reason.  An entry of ``__all__`` is a string and does not count."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "periwave"

ALLOWED = {
    "finite_difference_surface_derivatives":
        "the independent reference the kernel-solve surface is tested against",
    "constant_state": "the oracle of acceptance criterion 7",
    "resolvent_consistency": "traced by name in perfbench/spantrace.TRACED",
    "multiplier_matrix": "traced by name in perfbench/spantrace.TRACED",
    "derivative_matrix": "traced by name in perfbench/spantrace.TRACED",
    "sobolev_weight_matrix": "traced by name in perfbench/spantrace.TRACED",
}


def _public_and_named():
    """(public top-level functions and classes, every identifier src/ names)."""
    public, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        public.update(node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return public, named


def test_public_names_without_a_src_caller_are_allowed():
    public, named = _public_and_named()
    unnamed = public - named
    assert unnamed <= ALLOWED.keys(), sorted(unnamed - ALLOWED.keys())
    # an entry whose name is gone from src/ leaves the list with it
    assert ALLOWED.keys() <= public, sorted(ALLOWED.keys() - public)
