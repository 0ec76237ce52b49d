"""Every public top-level function and class of the package must be used by the
package itself or by the benchmark in `rrmbench/`; API that only tests call is
dead weight. Run with `python -m pytest tests/test_api_surface.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rrmgnn"

# public names that stay although nothing outside the tests calls them
ALLOWED = {
    "permute_graph": "the equivariance harness of acceptance 1, 2 and 10",
    "permute_instance": "the equivariance harness of acceptance 1, 2 and 10",
    "masked_max_aggregate": "tests/gradcheck_util.py calls it by name in acceptance 3's sweep",
    "dot": "a primitive in acceptance 3's gradient sweep",
    "exp": "a primitive in acceptance 3's gradient sweep",
    "read_dataset": "the reader of the instance datasets `rrmgnn gen` writes",
    "build_ic_instance": "the per-kind builder the acceptance suite calls",
    "build_ibc_instance": "the per-kind builder the acceptance suite calls",
    "build_coop_instance": "the per-kind builder the acceptance suite calls",
}


def _definitions():
    """(module, name) of every public top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _uses(path):
    """(module, name) pairs a file refers to: `from <module> import name`,
    `<module alias>.name`, or a bare name inside the package module itself."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == PACKAGE else None
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = node.module or ""
        if (node.level == 1 and src) or src.startswith("rrmgnn."):
            uses.update((src.rsplit(".", 1)[-1], a.name) for a in node.names)
        elif node.level == 1 or src == "rrmgnn":
            modules.update({a.asname or a.name: a.name for a in node.names})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own:
            uses.add((own, node.id))
    return uses


def _all_uses():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "rrmbench").glob("*.py")]
    return set().union(*(_uses(p) for p in files))


def test_every_public_name_is_used_outside_tests():
    used = _all_uses()
    unused = [f"{mod}.{name}" for mod, name in _definitions()
              if (mod, name) not in used and name not in ALLOWED]
    assert not unused, f"public API that only tests call: {unused}"


def test_allowlist_names_exist_and_are_unused():
    used = _all_uses()
    defined = dict((name, mod) for mod, name in _definitions())
    stale = [name for name in ALLOWED
             if name not in defined or (defined[name], name) in used]
    assert not stale, f"allowlist entries to remove: {stale}"
