"""Rules that every module of the package keeps."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import contred
from contred import category, lattice

PACKAGE = Path(contred.__file__).resolve().parent


def test_no_module_guards_with_assert():
    # a check that guards a result must be an explicit raise: python -O
    # strips assert statements
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _functions(tree):
    """(dotted name, node) of every function, nested ones under their parent."""
    todo = [("", tree)]
    while todo:
        prefix, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                todo.append((prefix + child.name + ".", child))
            else:
                todo.append((prefix, child))


def _calls_itself(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
                and f.attr == fn.name
            ):
                return True
    return False


def test_no_function_recurses():
    # every backtracking search runs on kernel._search, which keeps its
    # steps on a stack of its own, so pruning added there reaches all of
    # them; no module keeps a recursive search beside it
    found = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
        if _calls_itself(fn)
    ]
    assert found == []


def _cached(fn) -> bool:
    """Whether ``fn`` carries ``functools.cache`` or ``lru_cache``, called
    or not."""
    names = set()
    for d in fn.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.add(d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
    return bool(names & {"cache", "lru_cache"})


def test_no_function_with_parameters_is_cached_globally():
    # a global cache keyed by arguments keeps its entries for good; what is
    # derived from a space is kept on the space and dies with it
    cached = {
        f"{path.name}:{name}": any(ast.iter_child_nodes(fn.args))
        for path in sorted(PACKAGE.glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
        if _cached(fn)
    }
    # the rule sees the one cache the package keeps, which takes no parameters
    assert cached.get("cli.py:build_parser") is False
    assert [name for name, takes in cached.items() if takes] == []


def test_only_the_kernel_counts_nodes():
    # a Budget's used and limit are read and written in kernel.py alone:
    # its search counts nodes and _recorded charges a kept answer, so a
    # budget means the same thing wherever it is spent; other modules call
    # Budget.spend() or pass the budget on
    found = {
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("used", "limit")
    }
    assert any(name.startswith("kernel.py:") for name in found)
    assert [name for name in found if not name.startswith("kernel.py:")] == []


NAME_CONSTRUCTORS = {"make_map", "total_map", "partial_map", "relation", "PartialMap"}


def test_only_the_boundary_builds_from_point_names():
    # maps and relations are built from point names where names come in,
    # in spaces.py and corpus.py; every other module builds them from
    # value vectors and target bitmasks, and looks no name up again
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("spaces.py", "corpus.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called in NAME_CONSTRUCTORS:
                    found.append(f"{path.name}:{node.lineno}:{called}")
    assert found == []


def test_a_family_carries_its_own_tags():
    # a join or meet takes its tags from the family, a plain sequence or
    # tagged(items, tags), so no tags can be given twice; and the family
    # that holds the member fixes the codomain of the member's injection
    takes_tags = [
        f"{module.__name__}.{name}"
        for module in (lattice, category)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        and "tags" in inspect.signature(fn).parameters
    ]
    assert takes_tags == ["contred.lattice.tagged"]
    assert "cod" not in inspect.signature(lattice.sup0_upper_witness).parameters


def test_only_the_lect_copy_count_is_a_cap_parameter():
    # a ceiling on what an enumeration builds is a module constant, counted
    # before anything is built; the one cap a caller sets is lect's number
    # of parallel copies, which picks the relation decided, not a size
    takes_cap = sorted(
        f"{module.__name__}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module in [importlib.import_module(f"contred.{path.stem}")]
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        and "cap" in inspect.signature(fn).parameters
    )
    assert takes_cap == [
        "contred.explore.degree_poset",
        "contred.explore.search_antichain",
        "contred.lattice.verify_glb",
        "contred.lattice.verify_lub",
        "contred.reducibility.compare",
        "contred.reducibility.decide",
        "contred.reducibility.le_ct",
    ]
