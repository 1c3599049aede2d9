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
way), so the base size is that graph's chromatic number, computed
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import ContredError
from .spaces import PartialMap, Problem, _bits


@total_ordering
@dataclass(frozen=True, eq=False)
class LevelValue:
    """A natural number or the sentinel above all of them (value None)."""

    value: int | None = None

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 0:
            raise ValueError("levels are natural numbers")

    @property
    def is_unbounded(self) -> bool:
        return self.value is None

    @staticmethod
    def _coerce(other: object) -> "LevelValue | None":
        if isinstance(other, LevelValue):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LevelValue(other)
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.value is None:
            return False
        if o.value is None:
            return True
        return self.value < o.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return "Unbounded" if self.value is None else f"LevelValue({self.value})"

    def __str__(self) -> str:
        return "unbounded" if self.value is None else str(self.value)


UNBOUNDED = LevelValue(None)


def _discontinuity_mask(f: PartialMap, live: int) -> int:
    """Points of ``live`` at which f restricted to ``live`` is discontinuous."""
    vec = f.vec
    up = f.dom.up
    upc = f.cod.up
    out = 0
    for i in _bits(live):
        vi = vec[i]
        for j in _bits(up[i] & live):
            if not (upc[vi] >> vec[j]) & 1:
                out |= 1 << i
                break
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


def level(f: PartialMap, variant: int = 1) -> LevelValue:
    """Number of rounds needed to empty the domain; Unbounded if it never does."""
    chain = _level_chain(f, variant)
    if chain[-1] == 0:
        return LevelValue(len(chain) - 1)
    return UNBOUNDED


def lev_point(f: PartialMap, x: str, variant: int = 1) -> LevelValue:
    """First round at which the point has been discarded."""
    i = f.dom.point_index(x)
    if not (f.def_mask >> i) & 1:
        raise ValueError(f"map {f.name!r} undefined at {x!r}")
    chain = _level_chain(f, variant)
    for k, m in enumerate(chain):
        if not (m >> i) & 1:
            return LevelValue(k)
    if chain[-1] == 0:  # pragma: no cover - empty final stage contains nothing
        return LevelValue(len(chain) - 1)
    return UNBOUNDED


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
    pts = f.dom.points
    return tuple((pts[i], pts[j]) for i, j in _conflict_pairs(f))


def _conflict_pairs(f: PartialMap) -> list[tuple[int, int]]:
    """The conflict graph's edges as point index pairs, lower index first."""
    vec = f.vec
    up = f.dom.up
    upc = f.cod.up
    dm = f.def_mask
    edges = []
    for i in _bits(dm):
        for j in _bits(dm >> (i + 1) << (i + 1)):
            bad = False
            if (up[i] >> j) & 1 and not (upc[vec[i]] >> vec[j]) & 1:
                bad = True
            elif (up[j] >> i) & 1 and not (upc[vec[j]] >> vec[i]) & 1:
                bad = True
            if bad:
                edges.append((i, j))
    return edges


def _exact_coloring(adj: list[int]) -> tuple[int, list[int]]:
    """Chromatic number with certificate: lowest vertex first, colors ascending."""
    n = len(adj)
    if n == 0:
        return 0, []
    # greedy first-fit upper bound
    greedy = [-1] * n
    for v in range(n):
        used = {greedy[u] for u in _bits(adj[v]) if u < v}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    ub = max(greedy) + 1
    # greedy clique lower bound
    clique: list[int] = []
    cmask = 0
    for v in range(n):
        if cmask & ~adj[v]:
            continue
        clique.append(v)
        cmask |= 1 << v
    lb = max(1, len(clique))

    def try_k(k: int) -> list[int] | None:
        colors = [-1] * n

        def bt(v: int, used: int) -> bool:
            if v == n:
                return True
            limit = min(k, used + 1)
            for c in range(limit):
                if all(colors[u] != c for u in _bits(adj[v])):
                    colors[v] = c
                    if bt(v + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return list(colors) if bt(0, 0) else None

    for k in range(lb, ub):
        res = try_k(k)
        if res is not None:
            return k, res
    return ub, greedy


def _conflict_adjacency(f: PartialMap) -> tuple[list[int], list[int]]:
    verts = [i for i in _bits(f.def_mask)]
    pos = {i: k for k, i in enumerate(verts)}
    adj = [0] * len(verts)
    for i, j in _conflict_pairs(f):
        a, b = pos[i], pos[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return verts, adj


def basesize(f: PartialMap) -> int:
    """Least number of continuous pieces covering the domain of definition."""
    _, adj = _conflict_adjacency(f)
    k, _ = _exact_coloring(adj)
    return k


def basesize_partition(f: PartialMap) -> tuple[frozenset[str], ...]:
    """A witnessing partition into continuous pieces, one per color."""
    verts, adj = _conflict_adjacency(f)
    k, colors = _exact_coloring(adj)
    parts = [set() for _ in range(k)]
    for pos, i in enumerate(verts):
        parts[colors[pos]].add(f.dom.points[i])
    return tuple(frozenset(p) for p in parts)


def basesize_problem(P: Problem) -> LevelValue:
    """Least member base size; the empty problem sits above everything."""
    if not P.members:
        return UNBOUNDED
    return LevelValue(min(basesize(m) for m in P.members))


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
    ls1 = level_sets(f, 1)
    ls2 = level_sets(f, 2)
    lev1 = level(f, 1)
    lev2 = level(f, 2)
    pointwise = tuple(
        (x, lev_point(f, x, 1), lev_point(f, x, 2))
        for x in f.dom.points
        if f.defined_at(x)
    )
    bas = basesize(f)
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
        f.name, ls1, ls2, lev1, lev2, pointwise, bas, conflict_graph(f)
    )
