"""Discontinuity invariants: level hierarchies and base size.

The level hierarchy repeatedly discards points at which the restricted
map is continuous; how many rounds it takes to empty the domain measures
how discontinuous the map is.  Variant 1 keeps the discontinuity points
as they are, variant 2 closes them (within the domain subspace) before
the next round.  On finite spaces the descending chains stabilize after
finitely many successor steps, so limit stages never contribute;
``Unbounded`` reports chains that stabilize on a nonempty set.

The base size is the least number of pieces in a partition of the domain
of definition into sets on which the map restricts continuously.  A
restriction is continuous precisely when its piece spans no edge of the
conflict graph (comparable points whose values fail to compare the same
way), so the base size is that graph's chromatic number.  It is computed
exactly on the backtracking kernel that the reducibility searches use.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count

from .errors import ContredError
from .kernel import Budget, _search
from .spaces import PartialMap, Problem, _bits, conflict_structure


class LevelValue(int):
    """A natural number below ``sys.maxsize``, or UNBOUNDED
    (``LevelValue(None)``) above all of them.  UNBOUNDED is stored as
    ``sys.maxsize``, which no level reaches: a chain stops within
    |dom| + 1 stages.  A LevelValue given keeps its value."""

    __slots__ = ()

    def __new__(cls, value: int | None = None) -> "LevelValue":
        if value is None:
            value = sys.maxsize
        elif not 0 <= value < sys.maxsize and not isinstance(value, LevelValue):
            raise ValueError("levels are natural numbers below sys.maxsize")
        return super().__new__(cls, value)

    def __getnewargs__(self) -> tuple[int | None]:
        # pickle and copy rebuild UNBOUNDED from None, not from sys.maxsize
        return (self.value,)

    @property
    def value(self) -> int | None:
        return None if self.is_unbounded else int(self)

    @property
    def is_unbounded(self) -> bool:
        return self == sys.maxsize

    def __repr__(self) -> str:
        return "Unbounded" if self.is_unbounded else f"LevelValue({int(self)})"

    def __str__(self) -> str:
        return "unbounded" if self.is_unbounded else str(int(self))


UNBOUNDED = LevelValue(None)


def _discontinuity_mask(f: PartialMap, live: int) -> int:
    """Points of ``live`` at which f restricted to ``live`` is discontinuous."""
    out = 0
    for i, j in conflict_structure(f)[1]:
        if (live >> i) & 1 and (live >> j) & 1:
            out |= 1 << i
    return out


def _closure_within(f: PartialMap, mask: int, ambient: int) -> int:
    down = f.dom.down
    acc = 0
    for i in _bits(mask):
        acc |= down[i]
    return acc & ambient


def _level_chain(f: PartialMap, variant: int) -> list[int]:
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    ambient = f.def_mask
    chain = [ambient]
    while chain[-1]:
        nxt = _discontinuity_mask(f, chain[-1])
        if variant == 2:
            nxt = _closure_within(f, nxt, ambient)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    # finite strictly-descending chains must stop within |dom| + 1 stages
    if len(chain) > f.dom.n + 1:
        raise ContredError(f"level chain of {f.name!r} failed to stabilize")
    return chain


def level_sets(f: PartialMap, variant: int = 1) -> tuple[frozenset[str], ...]:
    """The descending chain of surviving point sets, as named sets.

    The chain starts at the domain of definition and ends either at the
    empty set or at the nonempty set it stabilizes on.
    """
    return tuple(f.dom.set_of(m) for m in _level_chain(f, variant))


def _stage(chain: list[int], mask: int) -> LevelValue:
    """First stage of ``chain`` that holds no point of ``mask``."""
    for k, m in enumerate(chain):
        if not m & mask:
            return LevelValue(k)
    return UNBOUNDED


def level(f: PartialMap, variant: int = 1) -> LevelValue:
    """Number of rounds needed to empty the domain; Unbounded if it never does."""
    return _stage(_level_chain(f, variant), -1)


def lev_point(f: PartialMap, x: str, variant: int = 1) -> LevelValue:
    """First round at which the point has been discarded."""
    i = f.dom.point_index(x)
    if not (f.def_mask >> i) & 1:
        raise ValueError(f"map {f.name!r} undefined at {x!r}")
    return _stage(_level_chain(f, variant), 1 << i)


def level_problem(P: Problem, variant: int = 1) -> LevelValue:
    """Least member level; the empty problem sits above everything."""
    if not P.members:
        return UNBOUNDED
    return min(level(m, variant) for m in P.members)


# -- base size ------------------------------------------------------------


def conflict_graph(f: PartialMap) -> tuple[tuple[str, str], ...]:
    """Pairs of defined points that no continuous piece may contain together.

    {x, y} is an edge when the two points are comparable but their values
    do not compare the same way; a restriction of f is continuous exactly
    when its domain spans no edge.
    """
    return _named(f, _conflict_pairs(f))


def _conflict_pairs(f: PartialMap) -> list[tuple[int, int]]:
    """The conflict graph's edges as point index pairs, lower index first."""
    return sorted({(min(e), max(e)) for e in conflict_structure(f)[1]})


def _named(f: PartialMap, edges: list[tuple[int, int]]) -> tuple[tuple[str, str], ...]:
    """Index pairs of f's domain as pairs of point names."""
    pts = f.dom.points
    return tuple((pts[i], pts[j]) for i, j in edges)


def _clique_size(verts: list[int], edges: list[tuple[int, int]]) -> int:
    """Size of a clique of the graph, grown greedily from the points with
    the most neighbours: 0 without points, 1 without edges."""
    adj = dict.fromkeys(verts, 0)
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    clique = size = 0
    for v in sorted(verts, key=lambda v: -adj[v].bit_count()):
        if adj[v] & clique == clique:
            clique |= 1 << v
            size += 1
    return size


def _coloring(f: PartialMap, edges: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Chromatic number of the conflict graph ``edges`` (as
    :func:`_conflict_pairs` gives them) and its first coloring in point
    order, by point index (-1 off the domain of definition).

    Color counts are tried in turn on the search kernel, from the size of
    a clique found greedily: a clique needs a color per point.
    Step t may only use colors below min(k, t + 1): any coloring can be
    renamed so that colors first appear in step order, so this loses none.
    The two ends of an edge differ: color c allows every color but c.
    """
    budget = Budget(float("inf"))
    verts = list(_bits(f.def_mask))
    pairs = ([i for i, _ in edges], [j for _, j in edges])
    # no count below the chromatic number finds a coloring, so starting
    # at a lower bound leaves the first coloring found unchanged
    for k in count(_clique_size(verts, edges)):
        options = [range(min(k, t + 1)) for t in range(len(verts))]
        others = tuple(~(1 << c) for c in range(k))
        colors = _search(f.dom.n, pairs, verts, options, lambda *_: others, budget)
        if colors is not None:
            return k, colors


def basesize(f: PartialMap) -> int:
    """Least number of continuous pieces covering the domain of definition."""
    return _coloring(f, _conflict_pairs(f))[0]


def basesize_partition(f: PartialMap) -> tuple[frozenset[str], ...]:
    """A witnessing partition into continuous pieces, one per color."""
    k, colors = _coloring(f, _conflict_pairs(f))
    masks = [0] * k
    for i in _bits(f.def_mask):
        masks[colors[i]] |= 1 << i
    return tuple(f.dom.set_of(m) for m in masks)


def basesize_problem(P: Problem) -> LevelValue:
    """Least member base size; the empty problem sits above everything."""
    if not P.members:
        return UNBOUNDED
    return LevelValue(min(basesize(m) for m in P.members))


# -- profile ---------------------------------------------------------------

def _levels(f: PartialMap) -> tuple[LevelValue, LevelValue]:
    """``(level(f, 1), level(f, 2))``, computed on the first call and kept
    in the map's ``__dict__``, as a ``_once`` attribute is."""
    got = f.__dict__.get("_levels")
    if got is None:
        got = f.__dict__["_levels"] = (level(f, 1), level(f, 2))
    return got


def _refuted(p: PartialMap, q: PartialMap) -> bool:
    """Whether p's levels exceed q's in a variant.  Both are monotone along
    le2, and le0 lies inside le2, so p is then below q under neither.
    The base size is monotone too, but when p maps into at most two points
    it is ``min(level 1, 2)`` there and at least that on q, so it refutes
    no pair the levels leave; it would cost a colouring."""
    (a1, a2), (b1, b2) = _levels(p), _levels(q)
    return a1 > b1 or a2 > b2


# -- report ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InvariantReport:
    subject: str
    level_sets_1: tuple[frozenset[str], ...]
    level_sets_2: tuple[frozenset[str], ...]
    lev1: LevelValue
    lev2: LevelValue
    pointwise: tuple[tuple[str, LevelValue, LevelValue], ...]
    bas: int
    conflict_edges: tuple[tuple[str, str], ...]


def invariant_report(f: PartialMap) -> InvariantReport:
    """All invariants of one map, with the cross-checks they must satisfy."""
    chain1, chain2 = _level_chain(f, 1), _level_chain(f, 2)
    ls1, ls2 = tuple(map(f.dom.set_of, chain1)), tuple(map(f.dom.set_of, chain2))
    lev1, lev2 = _stage(chain1, -1), _stage(chain2, -1)
    pointwise = tuple(
        (f.dom.points[i], _stage(chain1, 1 << i), _stage(chain2, 1 << i))
        for i in _bits(f.def_mask)
    )
    edges = _conflict_pairs(f)
    bas = _coloring(f, edges)[0]
    # closing can only grow the surviving sets, and the chain is monotone
    stages = max(len(ls1), len(ls2))
    for k in range(stages):
        s1 = ls1[min(k, len(ls1) - 1)]
        s2 = ls2[min(k, len(ls2) - 1)]
        if not s1 <= s2:
            raise ContredError(f"{f.name!r}: level set {k} shrinks under closure")
    for x, l1, l2 in pointwise:
        if not l1 <= l2:
            raise ContredError(f"{f.name!r}: pointwise levels out of order at {x!r}")
    if not bas <= lev1 <= lev2:
        raise ContredError(
            f"{f.name!r}: basesize {bas}, levels {lev1}, {lev2} out of order"
        )
    return InvariantReport(
        f.name, ls1, ls2, lev1, lev2, pointwise, bas, _named(f, edges)
    )
