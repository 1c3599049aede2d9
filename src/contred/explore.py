"""Degree posets, decomposition experiments, and search utilities.

This module sits on top of the deciders: it organizes families of maps
or problems into the induced partial order of degrees (with DOT export),
runs the level-slicing decomposition, checks the finite analog of
admissibility through the join's universal property (the join is never
built), and hunts for maps with prescribed invariants or for antichains,
each in a fixed catalog.  Everything returned by a search is re-verified
by the deciders or the invariants machinery first.  A fruitless invariant
search returns None, a definite no, because its catalog is complete: no
map within the bound has the target.  A fruitless antichain search raises
``SearchExhaustedError`` without saying that none exists.  The random
generators are seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import (
    ContredError,
    SearchExhaustedError,
    SpaceMismatchError,
)
from .invariants import (
    UNBOUNDED,
    LevelValue,
    _level_chain,
    invariant_report,
)
from .kernel import Budget
from .lattice import TaggedFamily, sup2, tagged
from .reducibility import (
    decide,
    enumerate_continuous_partial,
    enumerate_continuous_total,
    le0_map,
    le2_map,
)
from .spaces import (
    PartialMap,
    Problem,
    Space,
    _bits,
    _once,
    _restrict_mask,
    _vec_map,
    build_space,
    chain,
    discrete,
    indiscrete,
    is_continuous,
    problem,
)

# -- degree posets --------------------------------------------------------


@dataclass(frozen=True)
class DegreePoset:
    """The partial order a reducibility induces on a finite item pool.

    ``classes`` are the mutual-reducibility equivalence classes (each a
    sorted tuple of item indices, classes ordered by their member names);
    bit b of ``above[a]`` says class a lies below class b; ``hasse`` holds
    the covering pairs (lower class, upper class) in ascending order.
    ``matrix[i][j]``, items[i] below items[j], is read off on first use.
    """

    items: tuple
    relation: str
    classes: tuple[tuple[int, ...], ...]
    above: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]

    def class_of(self, item_index: int) -> int:
        for c, members in enumerate(self.classes):
            if item_index in members:
                return c
        raise ValueError(f"no item with index {item_index}")

    def class_label(self, c: int) -> str:
        return ", ".join(sorted(self.items[i].name for i in self.classes[c]))

    def class_below(self, a: int, b: int) -> bool:
        return bool(self.above[a] >> b & 1)

    @_once
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        of = [self.class_of(i) for i in range(len(self.items))]
        return tuple(tuple(self.class_below(a, b) for b in of) for a in of)


def degree_poset(
    items: Sequence,
    relation: str = "le2",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> DegreePoset:
    """The degree poset of ``items`` under ``relation``, decided class
    first in name order: each item is decided both ways against the
    representatives found so far and joins the first one it is mutually
    reducible with, once it answers against every earlier one as that one
    does; otherwise it becomes a representative.  So which pairs are
    decided, and whether ``budget`` runs out, depend only on the set of
    items.  Under lect nothing joins, so every ordered pair is decided:
    bounded-copies reductions need not compose within cap.  A decider that
    is not a preorder raises ``ContredError``.
    """
    items = tuple(items)
    kinds = {isinstance(x, Problem) for x in items}
    if len(kinds) > 1:
        raise TypeError("mix of maps and problems in one poset")
    names = [x.name for x in items]
    if len(set(names)) != len(names):
        raise ValueError("poset items need distinct names")
    if relation == "le0" and items:
        cods = {x.cod for x in items}
        if len(cods) > 1:
            raise SpaceMismatchError("le0 poset needs one common codomain")
    n = len(items)
    # bitmasks over positions in name order: the representatives above
    # representative r and the earlier ones below it; and r's class
    order = sorted(range(n), key=names.__getitem__)
    named = [items[i] for i in order]
    names.sort()
    up, down = [0] * n, [0] * n
    members: dict[int, list[int]] = {}
    reps: list[int] = []

    for i, x in enumerate(named):
        row = col = 0
        joinable = relation != "lect"
        for r in reps:
            y = named[r]
            row |= (decide(x, y, relation, budget, cap) is not None) << r
            col |= (decide(y, x, relation, budget, cap) is not None) << r
            if joinable and (row & col) >> r & 1:
                # an item that answers against an earlier representative
                # unlike r joins nothing: as a representative, its row
                # breaks transitivity below
                joinable = not ((row ^ up[r]) | (col ^ down[r])) & ((1 << r) - 1)
                if joinable:
                    members[r].append(i)
                    break
        else:
            bit = 1 << i
            if decide(x, x, relation, budget, cap) is not None:
                row, col = row | bit, col | bit
            up[i], down[i], members[i] = row, col, [i]
            for r in _bits(col):
                up[r] |= bit
            reps.append(i)
    for r in reps:
        if not up[r] >> r & 1:
            raise ContredError(f"{relation} is not reflexive at {names[r]!r}")
        for j in _bits(up[r]):
            missed = up[j] & ~up[r]
            if missed:
                k = next(_bits(missed))
                raise ContredError(
                    f"{relation} is not transitive on "
                    f"{names[r]!r}, {names[j]!r}, {names[k]!r}"
                )

    # a class is the members of the representatives that share a row: one
    # representative if the relation joins (a later one with an earlier
    # one's row would have joined it), maybe several under lect.  So classes
    # come ordered by their least member's name, as their labels sort
    rows: dict[int, list[int]] = {}
    for r in reps:
        rows.setdefault(up[r], []).extend(members[r])
    classes = [tuple(c) for c in rows.values()]
    # each class's bit, at its first member, which is a representative
    class_bit = [0] * n
    for a, c in enumerate(classes):
        class_bit[c[0]] = 1 << a
    above, hasse = [], []
    for c in classes:
        row, mask = 0, up[c[0]]
        for r in reps:
            if mask >> r & 1:
                row |= class_bit[r]
        above.append(row)
    strict = [row & ~(1 << a) for a, row in enumerate(above)]
    for a, row in enumerate(strict):
        # b covers a when no class strictly between them lies above a
        through = 0
        for c in _bits(row):
            through |= strict[c]
        for b in _bits(row & ~through):
            hasse.append((a, b))
    # back to indices into the given items
    classes = [tuple(sorted(order[i] for i in c)) for c in classes]
    return DegreePoset(items, relation, tuple(classes), tuple(above), tuple(hasse))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(poset: DegreePoset) -> str:
    """Deterministic DOT text: one node per class, covers drawn upward."""
    lines = ['digraph "degrees" {', "  rankdir=BT;"]
    for c in range(len(poset.classes)):
        lines.append(f"  {_dot_quote(poset.class_label(c))};")
    for a, b in sorted(
        poset.hasse, key=lambda e: (poset.class_label(e[0]), poset.class_label(e[1]))
    ):
        lines.append(
            f"  {_dot_quote(poset.class_label(a))} -> {_dot_quote(poset.class_label(b))};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- decomposition by level slices ----------------------------------------


@dataclass(frozen=True)
class Decomposition:
    parts: TaggedFamily
    holds: bool


def decompose_by_level(
    f: PartialMap,
    thresholds: Sequence[int],
    budget: int | Budget | None = None,
) -> Decomposition:
    """Slice f below its level sets and test whether the slices suffice.

    For each threshold t the slice keeps the points that have already
    left the variant-2 chain by stage t.  The direction "the join of the
    slices is below f" always holds and is checked; the converse is
    decided and reported, not assumed — on finite spaces it can fail.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("need at least one threshold")
    if any(t < 0 for t in thresholds) or list(thresholds) != sorted(set(thresholds)):
        raise ValueError("thresholds must be strictly ascending naturals")
    chain2 = _level_chain(f, 2)
    parts = []
    tags = []
    for t in thresholds:
        stage = chain2[min(t, len(chain2) - 1)]
        parts.append(_restrict_mask(f, f.dom.full_mask & ~stage, f"{f.name}@{t}"))
        tags.append(str(t))
    fam = tagged(parts, tags)
    joined = sup2(fam)
    if le2_map(joined, f, budget) is None:
        raise ContredError(f"the join of the level slices is not below {f.name!r}")
    holds = le2_map(f, joined, budget) is not None
    return Decomposition(fam, holds)


# -- admissibility --------------------------------------------------------


def admissible(f: PartialMap, budget: int | Budget | None = None) -> bool:
    """Is f interchangeable, in the composition order, with the join of
    every continuous partial map sharing its source and target?

    The join is a least upper bound, so it lies below f exactly when every
    member does; and f lies below the join exactly when f is continuous,
    for a continuous f is a member, and the join after a continuous G is
    continuous.  So the join is never built: each member is decided
    against f, a number ``budget`` bounding each decision apart.
    """
    return is_continuous(f) and all(
        le0_map(h, f, budget) is not None
        for h in enumerate_continuous_partial(f.dom, f.cod)
    )


def is_surjective(f: PartialMap) -> bool:
    return len(set(f.vec) - {-1}) == f.cod.n


# -- catalog maps ---------------------------------------------------------


def mod_chain_map(length: int, modulus: int, name: str | None = None) -> PartialMap:
    """Chain of the given length labeled cyclically into a discrete space.

    For 2 <= modulus <= length this realizes level exactly ``length`` and
    basesize exactly ``modulus``.
    """
    if length < 0 or modulus < 1:
        raise ValueError("length >= 0 and modulus >= 1 required")
    vec = [i % modulus for i in range(length)]
    return _vec_map(name or f"mod{modulus}x{length}", chain(length), discrete(modulus), vec)


def injective_indiscrete_map(k: int, name: str | None = None) -> PartialMap:
    """An injective labeling of an indiscrete space; level is unbounded
    for k >= 2, basesize is k."""
    return _vec_map(name or f"blur{k}", indiscrete(k), discrete(k), range(k))


# -- random generators ----------------------------------------------------


def _rng(*parts) -> random.Random:
    """Deterministic stream keyed by a readable string; no global state."""
    return random.Random(":".join(map(str, parts)))


def random_space(n: int, edge_density: float = 0.3, seed: int = 0) -> Space:
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = _rng("space", n, edge_density, seed)
    pts = tuple(f"p{i}" for i in range(n))
    below = [
        (pts[i], pts[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_density
    ]
    # the name must tell densities apart: whole percentages keep the short
    # form, any other density is spelled out in full
    pct = int(edge_density * 100)
    density = pct if pct / 100 == edge_density else repr(edge_density)
    return build_space(f"R{n}e{density}s{seed}", pts, below)


def random_map(dom: Space, cod: Space, seed: int = 0, name: str | None = None) -> PartialMap:
    if cod.n == 0 and dom.n > 0:
        raise ValueError("no total map into the empty space")
    rng = _rng("map", dom.name, cod.name, seed)
    vec = [rng.randrange(cod.n) for _ in range(dom.n)]
    return _vec_map(name or f"rm{seed}[{dom.name}>{cod.name}]", dom, cod, vec)


def random_partial_map(
    dom: Space,
    cod: Space,
    seed: int = 0,
    defined_density: float = 0.7,
    name: str | None = None,
) -> PartialMap:
    rng = _rng("pmap", dom.name, cod.name, seed, defined_density)
    # the test comes first, and only a defined point draws its value
    vec = [
        rng.randrange(cod.n) if cod.n and rng.random() < defined_density else -1
        for _ in range(dom.n)
    ]
    return _vec_map(name or f"rp{seed}[{dom.name}>{cod.name}]", dom, cod, vec)


def random_continuous_map(
    dom: Space, cod: Space, seed: int = 0, name: str | None = None
) -> PartialMap:
    pool = enumerate_continuous_total(dom, cod)
    if not pool:
        raise ValueError(f"no continuous total maps {dom.name} -> {cod.name}")
    rng = _rng("cmap", dom.name, cod.name, seed)
    pick = rng.choice(pool)
    if name is None:
        return pick
    return _vec_map(name, dom, cod, pick.vec)


def random_problem(
    dom: Space,
    cod: Space,
    seed: int = 0,
    size: int = 3,
    name: str | None = None,
) -> Problem:
    rng = _rng("problem", dom.name, cod.name, seed, size)
    members = [
        random_partial_map(dom, cod, seed=rng.randrange(1 << 30))
        for _ in range(size)
    ]
    return problem(name or f"rP{seed}[{dom.name}>{cod.name}]", dom, cod, members)


# -- searches -------------------------------------------------------------


def search_lev_bas_witness(
    target_lev: int, target_bas: int, max_points: int = 8
) -> PartialMap | None:
    """A total map with the requested first-variant level and basesize on
    at most ``max_points`` points, from a catalog that is complete.

    A finite level k needs k defined points, for each round removes one at
    least; the basesize never exceeds level 1; basesize 1 means the map is
    continuous, so level 1; and an unbounded level needs basesize 2 at
    least, so that many points.  The catalog realises each other profile
    on as few points as that: the 0-point map (0, 0), ``mod_chain_map(k,
    b)`` (k, b) on k points for 2 <= b <= k or k = b = 1, and
    ``injective_indiscrete_map(b)`` (unbounded, b) on b points.  So when
    the candidate's invariant report misses the target, no map within
    ``max_points`` has it, and the answer is None."""
    lev_t = LevelValue(target_lev)
    if not 0 <= target_bas <= lev_t:
        raise ValueError("basesize target must lie between 0 and the level target")
    candidates: list[PartialMap] = []
    if lev_t == 0 and target_bas == 0:
        candidates.append(_vec_map("void", chain(0), discrete(1), ()))
    if 1 <= target_bas <= lev_t <= max_points:
        candidates.append(mod_chain_map(lev_t.value, target_bas))
    if lev_t == UNBOUNDED and 2 <= target_bas <= max_points:
        candidates.append(injective_indiscrete_map(target_bas))
    for m in candidates:
        report = invariant_report(m)
        if report.lev1 == lev_t and report.bas == target_bas:
            return m
    return None


def _antichain_catalog(
    size: int, relation: str, max_points: int, cap: int
) -> list[tuple[PartialMap, ...]]:
    out: list[tuple[PartialMap, ...]] = []
    if relation == "le0":
        cod = discrete(size)
        dot = indiscrete(1)
        if max_points >= 1:
            out.append(tuple(_vec_map(f"k{v}", dot, cod, (v,)) for v in range(size)))
        return out
    # Incomparable invariant profiles: unbounded level with small
    # basesize against descending-level ascending-basesize chains.
    longest = 2 * size - 1
    if longest <= max_points:
        fam = [injective_indiscrete_map(2)]
        for t in range(size - 1):
            fam.append(mod_chain_map(longest - t, 3 + t))
        out.append(tuple(fam))
    if relation == "lect" and size == 2:
        width = 2**cap + 1
        if width <= max_points:
            out.append(
                (injective_indiscrete_map(2), mod_chain_map(width, width))
            )
    return out


def search_antichain(
    size: int,
    relation: str = "le2",
    max_points: int = 8,
    budget: int | Budget | None = None,
    cap: int = 3,
) -> tuple[PartialMap, ...]:
    """Find pairwise-incomparable maps under the given reducibility.

    Only catalog families are tried: constants for the composition order,
    incomparable invariant profiles otherwise.  The returned family is
    confirmed pairwise incomparable by the decider; when no catalog family
    within ``max_points`` is one, ``SearchExhaustedError`` says that none
    was found, not that none exists."""
    if size < 2:
        raise ValueError("an antichain needs at least two members")

    def pairwise_incomparable(fam: Sequence[PartialMap]) -> bool:
        for a, b in combinations(fam, 2):
            if decide(a, b, relation, budget, cap) is not None:
                return False
            if decide(b, a, relation, budget, cap) is not None:
                return False
        return True

    for fam in _antichain_catalog(size, relation, max_points, cap):
        if len(fam) == size and pairwise_incomparable(fam):
            return tuple(fam)
    raise SearchExhaustedError(
        f"no antichain of size {size} under {relation} found "
        f"within {max_points} points"
    )
