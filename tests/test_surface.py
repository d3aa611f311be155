"""The public surface is what the program and the acceptance gate use.

Every top-level public function and class in ``src/scrollgeom`` must be
read somewhere in ``src/`` outside its own definition, or by an
acceptance criterion.  A name counts where code reads it (a name or an
attribute), not where it is imported, so a re-export is not a use.
"""

import ast
from collections import Counter
from pathlib import Path

import scrollgeom
from scrollgeom import reports

PACKAGE = Path(scrollgeom.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _reads(tree):
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def test_every_public_definition_is_used():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum((_reads(tree) for tree in modules.values()), Counter())
    gate = _reads(ast.parse(ACCEPTANCE.read_text()))
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not gate[node.name]
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert unused == []


def test_package_version_matches_reports():
    assert scrollgeom.__version__ == reports.PACKAGE_VERSION


def _scoped(node, scope="<module>"):
    """(name of the innermost enclosing function, node) for every node below."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(child, inner)


def test_every_true_division_is_the_field_aware_one():
    # whole rationals are ints, and a bare / on two ints gives a float;
    # forms._div divides them as a Fraction
    divisions = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == [("forms.py", "_div")]


def test_only_the_field_layer_and_reports_read_fp_element():
    # forms, quadrics and matrices carry their field, so no other module
    # looks for FpElement among its scalars to find it
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _reads(ast.parse(path.read_text()))["FpElement"]
    ]
    assert readers == ["fields.py", "reports.py"]


def _public_field_defaults(tree):
    """Names of public functions and methods, constructors included, whose field has a default."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.startswith("_") and node.name != "__init__":
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if "field" in defaulted:
            yield node.name


def test_every_caller_names_the_field():
    # forms, quadrics and experiments are built over the field their
    # caller names: no module works a field out from scalars, and no
    # public signature fills one in
    inferring, defaulted = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        if _reads(tree)["infer_field"] or "infer_field" in defined:
            inferring.append(path.name)
        defaulted += [f"{path.name}:{name}" for name in _public_field_defaults(tree)]
    assert inferring == [] and defaulted == []
