"""Only the tape routes gradients: a `numkernel` op returns its value and one
VJP per parent, and `GradTape.backward` alone reduces broadcasts and
accumulates into `.grad`. Run with `python -m pytest tests/test_tape_routing.py`.
"""

import ast
from pathlib import Path

KERNEL = Path(__file__).resolve().parent.parent / "src" / "rrmgnn" / "numkernel.py"


def _scoped_nodes():
    """(scope, node) for every AST node of the kernel, the scope being the
    top-level definition it sits in and, inside a class, the method
    ("GradTape.backward")."""
    for top in ast.parse(KERNEL.read_text()).body:
        name = getattr(top, "name", "<module>")
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for item in members:
            scope = f"{name}.{item.name}" if item is not top and hasattr(item, "name") else name
            yield from ((scope, node) for node in ast.walk(item))


def test_only_the_tape_reduces_and_accumulates():
    for helper in ("_accumulate", "_unbroadcast"):
        scopes = {scope for scope, node in _scoped_nodes()
                  if isinstance(node, ast.Name) and node.id == helper}
        assert scopes == {"GradTape.backward"}, (helper, sorted(scopes))


def test_only_tensor_make_and_tape_read_requires_grad():
    allowed = {"Tensor", "_make", "GradTape"}
    readers = {scope for scope, node in _scoped_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
               and isinstance(node.ctx, ast.Load)}
    assert readers and {s.split(".")[0] for s in readers} <= allowed, sorted(readers)
