"""Source hygiene: every name a library module imports is used by it,
every function the library defines is called from the library, only
the packing module knows the field layout, only poly ORs monomials, no
check returns a verdict tuple, only checks defines a check and no library
module imports report, only report serialises a counterexample, one
function builds family members, every console script names a function of
the CLI, and every unchecked kernel add is listed.

``__init__.py`` is skipped by the import scan, since its imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import grothpoly

SRC = Path(grothpoly.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "MultiPoly" or "dict | None" name things too
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert sorted(_imported(tree) - _used(tree)) == []


def test_no_module_imports_typing():
    """typing, with the re, enum and contextlib it loads, costs a fresh CLI
    process several ms; annotation names come from collections.abc, and
    records are built on collections.namedtuple."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "typing"]
    assert found == []


# Defined in src/ for the tests only: public API the tests exercise, and the
# reference oracles they compare the fast paths against.
KEPT_FOR_TESTS = {
    "generators",
    "original_generators",
    "bruhat_lower",
    "from_monomials",
    "monomials",
    "reduced_words",
}


def _is_check(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "check"
        for d in node.decorator_list
    )


def _overrides(path: Path, tree: ast.Module) -> set[str]:
    """Methods that override an attribute of a base class, such as an
    ArgumentParser's error: the base class is their caller."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    if not classes:
        return set()
    module = importlib.import_module(f"grothpoly.{path.stem}")
    return {
        item.name
        for node in classes
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and any(hasattr(base, item.name) for base in getattr(module, node.name).__mro__[1:])
    }


def _references(node: ast.AST, enclosing: frozenset = frozenset()):
    """Names and attributes referenced under node, except a function's
    references to itself (or to a function it sits in) from its own body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    elif isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_function_has_a_caller():
    referenced = set(_imported(ast.parse((SRC / "__init__.py").read_text())))
    defined = set()
    overrides = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        referenced.update(_references(tree))
        overrides.update(_overrides(path, tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and not _is_check(node):
                    defined.add(name)
    assert sorted(KEPT_FOR_TESTS - defined) == []
    assert sorted(defined - referenced - overrides - KEPT_FOR_TESTS) == []


def _layout_definitions(tree: ast.Module):
    """Line numbers that assign FIELD_BITS or FIELD_MASK, or shift
    FIELD_MASK into a mask."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if names & {"FIELD_BITS", "FIELD_MASK"}:
                yield node.lineno
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            if isinstance(node.left, ast.Name) and node.left.id == "FIELD_MASK":
                yield node.lineno


def test_only_packing_defines_the_field_layout():
    """Field widths and kind masks come from _packing's one layout table;
    a second copy elsewhere drifts (an x mask without the x-degree field)."""
    found = [
        f"{p.name}:{line}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "_packing.py"
        for line in _layout_definitions(ast.parse(p.read_text()))
    ]
    assert found == []
    assert list(_layout_definitions(ast.parse((SRC / "_packing.py").read_text())))


def _monomial_ors(tree: ast.Module):
    """Line numbers of reduce(operator.or_, ...) calls, however reduce and
    or_ are imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func, op = node.func, node.args[0]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            op_name = op.id if isinstance(op, ast.Name) else getattr(op, "attr", None)
            if name == "reduce" and op_name == "or_":
                yield node.lineno


def test_only_poly_ors_monomials():
    """A polynomial's monomials are ORed by poly.or_monomials alone, the one
    place that knows an OR shows every variable present; the x-support and
    kind tests are all built on it."""
    found = {p.name: list(_monomial_ors(ast.parse(p.read_text()))) for p in sorted(SRC.glob("*.py"))}
    assert len(found.pop("poly.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def _own_returns(fn: ast.FunctionDef):
    """The return statements of fn itself, not of functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_check_returns_a_verdict_tuple():
    """A check passes by returning its detail and fails by raising
    Counterexample; a returned tuple is the old (ok, counterexample,
    detail) verdict coming back."""
    found = [
        f"{p.name}:{ret.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and _is_check(node)
        for ret in _own_returns(node)
        if isinstance(ret.value, ast.Tuple)
    ]
    assert found == []


def test_only_checks_defines_checks():
    """The verify catalog is the checks module, in its order; a check
    defined in a library module would join the catalog as a side effect
    of importing that module."""
    found = [
        f"{p.name}:{node.lineno}"
        for p in MODULES
        if p.name != "checks.py"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and _is_check(node)
    ]
    assert found == []


# the modules above the library: the catalog, its registry and runner, and
# the CLI (and __init__, which re-exports)
ABOVE_THE_LIBRARY = {"checks.py", "report.py", "cli.py", "__init__.py"}


def test_no_library_module_imports_report():
    """The library (families, operators, kernel) knows nothing of the
    check registry: no module below checks, report and cli imports from
    report, so the rank checks it shares with them live in perms."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ABOVE_THE_LIBRARY:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name.rsplit(".", 1)[-1] for a in node.names if a.name.startswith("grothpoly")]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "report"]
    assert found == []


def test_only_report_serialises_counterexamples():
    """report.verify alone gives a counterexample its JSON form, so no
    other module calls .json_obj()."""
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "report.py"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "json_obj"
    ]
    assert found == []


def _scoped(node: ast.AST, fn: str | None = None):
    """(name of the innermost function enclosing it, or None, node) for
    every node under node."""
    for child in ast.iter_child_nodes(node):
        yield fn, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
        yield from _scoped(child, inner)


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _family_building(path: Path, tree: ast.Module):
    """(what, "module:function") for each place that reads an entry of
    TOWERS, writes _TABLE_CACHE or calls _descent_tower."""
    for fn, node in _scoped(tree):
        where = f"{path.name}:{fn}"
        if isinstance(node, ast.Subscript) and _is_name(node.value, "TOWERS"):
            yield "reads TOWERS", where
        elif isinstance(node, ast.Attribute) and _is_name(node.value, "TOWERS") and node.attr != "update":
            yield "reads TOWERS", where
        elif isinstance(node, ast.Subscript) and _is_name(node.value, "_TABLE_CACHE"):
            if not isinstance(node.ctx, ast.Load):
                yield "writes _TABLE_CACHE", where
        elif isinstance(node, ast.Attribute) and _is_name(node.value, "_TABLE_CACHE") and node.attr != "get":
            yield "writes _TABLE_CACHE", where
        elif isinstance(node, ast.Name) and node.id == "_TABLE_CACHE" and isinstance(node.ctx, ast.Store):
            if fn is not None or path.name != "classical.py":
                yield "writes _TABLE_CACHE", where
        elif isinstance(node, ast.Global) and "_TABLE_CACHE" in node.names:
            yield "writes _TABLE_CACHE", where
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_descent_tower":
                yield "calls _descent_tower", where


def test_one_family_builder():
    """family_members alone turns a TOWERS entry into members: only it
    reads an entry of TOWERS (quantum registers its families with
    TOWERS.update), and with it the rule that slices a y=0 table from a
    cached full one, and only family_table writes the table cache.  A
    descent tower is built by family_members, by expand_dual_basis (one
    pi+ tower of its f) and by interpolation (one y-tower of each staircase
    monomial), and nowhere else.  A second builder, such as one of
    embedded members with its own memo, or a second slice rule, shows up
    here."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for what, where in _family_building(path, ast.parse(path.read_text())):
            found.setdefault(what, set()).add(where)
    assert found == {
        "reads TOWERS": {"classical.py:family_members"},
        "writes _TABLE_CACHE": {"classical.py:family_table"},
        "calls _descent_tower": {
            "classical.py:family_members",
            "classical.py:expand_dual_basis",
            "checks.py:_check_interpolation",
        },
    }


def test_project_scripts_resolve_to_cli_callables():
    """Each [project.scripts] target in pyproject.toml is a callable of
    grothpoly.cli.  Read by regex, since Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    targets = re.findall(r'^([\w.-]+)\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    assert targets
    for script, module, attr in targets:
        assert module == "grothpoly.cli", script
        assert callable(getattr(importlib.import_module(module), attr, None)), script


# Each kernel add in src/ that no check guards, as "module:function" (the
# outermost function holding it) -> how many there are.  Above each one, in
# that function, a comment says why no field can carry.
UNCHECKED_KERNEL_ADDS = {
    "classical.py:_paired": 2,
    "classical.py:NormalFormContext._x_normal_form": 2,
    "classical.py:_at_point": 1,
    "checks.py:_times_images": 1,
    "checks.py:divexact": 1,
    "checks.py:_check_pieri_double": 1,
}
KERNEL_ADDS = {"addmul", "addmul_all"}


def _outermost_functions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _unchecked_kernel_adds(tree: ast.Module):
    """(function, call) for each kernel.addmul or addmul_all call not
    guarded: an addmul at the monomial 0 moves no monomial, and a function
    that calls _check_product_fields checks its fields."""
    for name, fn in _outermost_functions(tree):
        if any(_is_name(n, "_check_product_fields") for n in ast.walk(fn)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
                continue
            if not (_is_name(call.func.value, "kernel") and call.func.attr in KERNEL_ADDS):
                continue
            mono = call.args[2] if call.func.attr == "addmul" else None
            if not (isinstance(mono, ast.Constant) and mono.value == 0):
                yield name, fn, call


def test_every_unchecked_kernel_add_is_listed_and_says_why():
    """With 8-bit fields an unchecked add can carry one exponent into the
    next on accepted input; each one the library makes is listed here,
    with the reason it cannot, so a new one is a deliberate choice."""
    found: dict[str, int] = {}
    silent = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for name, fn, call in _unchecked_kernel_adds(ast.parse(text)):
            where = f"{path.name}:{name}"
            found[where] = found.get(where, 0) + 1
            above = lines[fn.lineno - 1 : call.lineno]
            if not any("#" in line and "carry" in line.split("#", 1)[1] for line in above):
                silent.append(f"{where}:{call.lineno}")
    assert found == UNCHECKED_KERNEL_ADDS
    assert silent == []
