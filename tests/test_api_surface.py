"""Every public top-level function and class of the package, and every public
method and property of its public classes, must be used by the package itself
or by the benchmark in `rrmbench/`, and every defaulted
parameter of a top-level function, public or private, must be passed by one of
their calls; API and options that only tests use are dead weight. Run with
`python -m pytest tests/test_api_surface.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rrmgnn"

# public names that stay although nothing outside the tests calls them
ALLOWED = {
    "permute_graph": "the equivariance harness of acceptance 1, 2 and 10",
    "permute_instance": "the equivariance harness of acceptance 1, 2 and 10",
    "NodePermutation": "the equivariance harness of acceptance 1, 2 and 10",
}


def _definitions():
    """(module, name) of every public top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _imports(tree):
    """The package modules a file imports, {alias: module}, and the package
    names it imports directly, {alias: (module, name)}."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = node.module or ""
        if (node.level == 1 and src) or src.startswith("rrmgnn."):
            names.update({a.asname or a.name: (src.rsplit(".", 1)[-1], a.name)
                          for a in node.names})
        elif node.level == 1 or src == "rrmgnn":
            modules.update({a.asname or a.name: a.name for a in node.names})
    return modules, names


def _uses(path):
    """(module, name) pairs a file refers to: `from <module> import name`,
    `<module alias>.name`, or a bare name inside the package module itself."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == PACKAGE else None
    modules, names = _imports(tree)
    uses = set(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own:
            uses.add((own, node.id))
    return uses


def _files():
    return [*PACKAGE.glob("*.py"), *(ROOT / "rrmbench").glob("*.py")]


def _all_uses():
    return set().union(*(_uses(p) for p in _files()))


def _methods():
    """(module, class, name) of every public method and property of a public
    top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, node.name, item.name


def _unused():
    """(name, qualified name) of every public definition nothing outside the
    tests uses. A method or property counts as used when the package or the
    benchmark reads an attribute of its name, whatever the object."""
    used = _all_uses()
    attributes = {node.attr for p in _files() for node in ast.walk(ast.parse(p.read_text()))
                  if isinstance(node, ast.Attribute)}
    return ([(name, f"{mod}.{name}") for mod, name in _definitions() if (mod, name) not in used]
            + [(name, f"{mod}.{cls}.{name}") for mod, cls, name in _methods()
               if name not in attributes])


def test_every_public_name_is_used_outside_tests():
    unused = [qualified for name, qualified in _unused() if name not in ALLOWED]
    assert not unused, f"public API that only tests call: {unused}"


def test_allowlist_names_exist_and_are_unused():
    unused = {name for name, _ in _unused()}
    stale = [name for name in ALLOWED if name not in unused]
    assert not stale, f"allowlist entries to remove: {stale}"


# defaulted parameters that stay although no package or benchmark call passes them
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "None makes argparse read sys.argv; tests pass argument lists",
    "harness.run_baseline(solver_cfg)": "rrmbench/test_bench.py passes it through an "
                                        "alias the walk does not follow",
}


def _calls():
    """(module, name) -> (most positional arguments, keywords) over every call
    in the package and the benchmark; *args passes every position, **kwargs
    (keyword None) every keyword."""
    calls = {}
    for path in _files():
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        modules, names = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                target = modules[f.value.id], f.attr
            elif isinstance(f, ast.Name):
                target = names.get(f.id, (own, f.id))
            else:
                continue
            n_pos, keys = calls.get(target, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            calls[target] = (max(n_pos, float("inf") if star else len(node.args)),
                             keys | {k.arg for k in node.keywords})
    return calls


def _defaulted():
    """(module, function, parameter, position or None if keyword-only) of every
    defaulted parameter of a top-level function, public or private, that the
    package or the benchmark calls (ALLOWED names are called by tests alone)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name in ALLOWED:
                continue
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            for pos, a in enumerate(args[first:], first):
                yield path.stem, node.name, a.arg, pos
            for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if d is not None:
                    yield path.stem, node.name, a.arg, None


def _unpassed():
    calls = _calls()
    for mod, name, arg, pos in _defaulted():
        n_pos, keys = calls.get((mod, name), (0, set()))
        if None not in keys and arg not in keys and (pos is None or n_pos <= pos):
            yield f"{mod}.{name}({arg})"


def test_every_default_parameter_is_passed_outside_tests():
    unpassed = [p for p in _unpassed() if p not in ALLOWED_DEFAULTS]
    assert not unpassed, f"optional parameters that only tests pass: {unpassed}"


def test_default_allowlist_entries_exist_and_are_unpassed():
    unpassed = set(_unpassed())
    stale = [p for p in ALLOWED_DEFAULTS if p not in unpassed]
    assert not stale, f"default allowlist entries to remove: {stale}"


def test_baselines_import_no_tape():
    # the solvers score, step and differentiate in numpy: the tape serves
    # training and the gradient checks alone
    tree = ast.parse((PACKAGE / "baselines.py").read_text())
    modules, names = _imports(tree)
    imported = {*modules.values(), *(mod for mod, _ in names.values()),
                *(a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                  for a in node.names)}
    assert not any("numkernel" in name for name in imported), sorted(imported)
