"""Shared fixtures, definitional oracles, and hypothesis strategies.

The oracles here re-derive topological notions from first principles
(open sets, closures, preimages) without using the library's bitmask
machinery, so that library results can be checked against an
independent formulation.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

import contred
from contred import (
    PartialMap,
    Problem,
    Space,
    build_space,
    make_map,
    problem,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
)

# --------------------------------------------------------------------------
# exhaustive space enumeration (independent of the library constructors)
# --------------------------------------------------------------------------


def _is_transitive(n: int, rel: set[tuple[int, int]]) -> bool:
    return all(
        (i, k) in rel
        for (i, j) in rel
        for (j2, k) in rel
        if j == j2
    )


@lru_cache(maxsize=None)
def preorders_on(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """All reflexive-transitive relations on n labelled points."""
    base = {(i, i) for i in range(n)}
    free = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((False, True), repeat=len(free)):
        rel = base | {p for p, keep in zip(free, bits) if keep}
        if _is_transitive(n, rel):
            out.append(frozenset(rel))
    return tuple(out)


@lru_cache(maxsize=None)
def all_spaces_up_to(max_points: int) -> tuple[Space, ...]:
    """One Space per preorder on 0..max_points labelled points."""
    spaces = []
    for n in range(max_points + 1):
        pts = tuple(f"q{i}" for i in range(n))
        for k, rel in enumerate(preorders_on(n)):
            pairs = [(pts[i], pts[j]) for i, j in sorted(rel) if i != j]
            spaces.append(build_space(f"P{n}_{k}", pts, pairs))
    return tuple(spaces)


def all_total_maps(dom: Space, cod: Space, prefix: str = "m"):
    """Every total map dom -> cod, continuous or not."""
    for k, values in enumerate(itertools.product(cod.points, repeat=len(dom.points))):
        yield make_map(
            f"{prefix}{k}[{dom.name}>{cod.name}]", dom, cod, zip(dom.points, values)
        )


def all_partial_maps(dom: Space, cod: Space, prefix: str = "pm"):
    """Every partial map dom -> cod (None marks an undefined point)."""
    options = (None,) + tuple(cod.points)
    for k, values in enumerate(itertools.product(options, repeat=len(dom.points))):
        rows = [(x, y) for x, y in zip(dom.points, values) if y is not None]
        yield make_map(f"{prefix}{k}[{dom.name}>{cod.name}]", dom, cod, rows)


# --------------------------------------------------------------------------
# definitional oracles
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def oracle_open_sets(space: Space) -> tuple[frozenset[str], ...]:
    """All up-sets, computed by brute force over the powerset."""
    pts = space.points
    opens = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            s = frozenset(combo)
            if all(
                y in s
                for x in s
                for y in pts
                if space.below(x, y)
            ):
                opens.append(s)
    return tuple(opens)


def oracle_closure(space: Space, subset) -> frozenset[str]:
    """Intersection of all closed supersets (closed = complement of open)."""
    subset = frozenset(subset)
    full = frozenset(space.points)
    acc = full
    for u in oracle_open_sets(space):
        c = full - u
        if subset <= c:
            acc &= c
    return acc


def oracle_is_continuous(f: PartialMap) -> bool:
    """Preimage formulation: every codomain open pulls back to a set that is
    open in the induced order on defined_on (no library machinery used)."""
    defined = sorted(f.defined_on)
    for u in oracle_open_sets(f.cod):
        pre = {x for x in defined if f(x) in u}
        for x in pre:
            for y in defined:
                if f.dom.below(x, y) and y not in pre:
                    return False
    return True


def brute_force_basesize(f: PartialMap) -> int:
    """Least number of parts of defined_on with every restriction continuous."""
    from contred import is_continuous, restrict

    pts = sorted(f.defined_on)
    if not pts:
        return 0
    for size in range(1, len(pts) + 1):
        for assignment in itertools.product(range(size), repeat=len(pts)):
            if set(assignment) != set(range(size)):
                continue
            parts = [
                [p for p, a in zip(pts, assignment) if a == c] for c in range(size)
            ]
            if all(is_continuous(restrict(f, part)) for part in parts):
                return size
    raise AssertionError("singleton partition must always work")


def least_witness(p: PartialMap, q: PartialMap, relation: str):
    """The least witness of ``p`` below ``q`` under ``le0`` or ``le2``, by
    trying every G in turn: ``(gvec, fvec)`` as index vectors, ``fvec``
    None for le0, or None when no G works.

    G is undefined exactly off p's domain of definition; its values there
    run through X2's points in lexicographic order, X1's points read in
    index order.  A G works when it is monotone on that domain and, for
    le0, q(G x) = p(x) there; for le2, q(G x) is defined there and the F
    it forces, F(x, q(G x)) = p(x) and undefined elsewhere, is monotone
    on those points of X1 x Y2 in the product order.  Only point names,
    ``below`` and the maps' name views are read."""
    X1, X2, Y2, Y1 = p.dom, q.dom, q.cod, p.cod
    pm, qm = p.mapping, q.mapping
    defined = [x for x in X1.points if x in pm]
    for values in itertools.product(X2.points, repeat=len(defined)):
        g = dict(zip(defined, values))
        if any(X1.below(x, y) and not X2.below(g[x], g[y]) for x in defined for y in defined):
            continue
        answer = {x: qm.get(g[x]) for x in defined}
        gvec = tuple(X2.points.index(g[x]) if x in g else -1 for x in X1.points)
        if relation == "le0":
            if all(answer[x] == pm[x] for x in defined):
                return gvec, None
            continue
        if None in answer.values() or any(
            X1.below(x, y) and Y2.below(answer[x], answer[y]) and not Y1.below(pm[x], pm[y])
            for x in defined
            for y in defined
        ):
            continue
        k = len(Y2.points)
        fvec = [-1] * (len(X1.points) * k)
        for x in defined:
            fvec[X1.points.index(x) * k + Y2.points.index(answer[x])] = Y1.points.index(pm[x])
        return gvec, tuple(fvec)
    return None


# --------------------------------------------------------------------------
# a small DOT syntax checker (node/edge statements with quoted identifiers)
# --------------------------------------------------------------------------

_DOT_ID = r'"(?:[^"\\]|\\.)*"'


def assert_valid_dot(text: str) -> None:
    import re

    lines = text.splitlines()
    assert lines, "empty DOT output"
    assert re.fullmatch(rf"digraph {_DOT_ID} \{{", lines[0]), lines[0]
    assert lines[-1] == "}", lines[-1]
    node_or_edge = re.compile(
        rf"  (?:rankdir=[A-Z]+|{_DOT_ID}(?: -> {_DOT_ID})?);"
    )
    for line in lines[1:-1]:
        assert node_or_edge.fullmatch(line), f"bad DOT statement: {line!r}"


# --------------------------------------------------------------------------
# hypothesis strategies (deterministic generators driven by drawn seeds)
# --------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10**9)


@st.composite
def spaces_st(draw, min_points: int = 0, max_points: int = 4):
    n = draw(st.integers(min_points, max_points))
    density = draw(st.sampled_from((0.0, 0.2, 0.4, 0.7, 1.0)))
    return random_space(n, edge_density=density, seed=draw(seeds))


@st.composite
def total_maps_st(draw, min_points: int = 0, max_points: int = 4):
    dom = draw(spaces_st(min_points, max_points))
    cod = draw(spaces_st(1, max_points))
    return random_map(dom, cod, seed=draw(seeds))


@st.composite
def partial_maps_st(draw, min_points: int = 0, max_points: int = 4):
    dom = draw(spaces_st(min_points, max_points))
    cod = draw(spaces_st(1, max_points))
    return random_partial_map(dom, cod, seed=draw(seeds))


@st.composite
def problems_st(draw, max_points: int = 3, max_members: int = 3):
    dom = draw(spaces_st(0, max_points))
    cod = draw(spaces_st(1, max_points))
    size = draw(st.integers(0, max_members))
    return random_problem(dom, cod, seed=draw(seeds), size=size)


# --------------------------------------------------------------------------
# fresh interpreters on the source under test
# --------------------------------------------------------------------------


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` with the contred these tests import on its path."""
    src = str(Path(contred.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# --------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary
# --------------------------------------------------------------------------


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_report(request):
    lines = request.config._acceptance_lines

    def record(number: int, description: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        lines.append((number, f"criterion {number:2d} {verdict}  {description}"))
        assert ok, f"acceptance criterion {number} failed: {description}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, text in sorted(lines):
        terminalreporter.write_line(text)
