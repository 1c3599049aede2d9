"""Degree posets, decomposition experiments, and search utilities.

This module sits on top of the deciders: it organizes families of maps
or problems into the induced partial order of degrees (with DOT export),
runs the level-slicing decomposition, checks the finite analog of
admissibility, and hunts for maps with prescribed invariants or for
antichains.  Everything returned by a search is re-verified by the
deciders or the invariants machinery first; a fruitless search raises
``SearchExhaustedError`` rather than pretending the target does not
exist.  All randomness is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import (
    ContredError,
    InvalidWitnessError,
    SearchExhaustedError,
    SpaceMismatchError,
)
from .invariants import (
    UNBOUNDED,
    LevelValue,
    _level_chain,
    basesize,
    invariant_report,
    level,
)
from .lattice import TaggedFamily, sup0, sup2, tagged
from .reducibility import (
    Budget,
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
    TotalMap,
    _restrict_mask,
    _vec_map,
    build_space,
    chain,
    discrete,
    indiscrete,
    partial_map,
    problem,
    total_map,
)

# -- degree posets --------------------------------------------------------


@dataclass(frozen=True)
class DegreePoset:
    """The partial order a reducibility induces on a finite item pool.

    ``matrix[i][j]`` records items[i] below items[j]; ``classes`` are the
    mutual-reducibility equivalence classes (each a sorted tuple of item
    indices, classes ordered by their member names); ``hasse`` holds the
    covering pairs (lower class, upper class).
    """

    items: tuple
    relation: str
    matrix: tuple[tuple[bool, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    hasse: tuple[tuple[int, int], ...]

    def class_of(self, item_index: int) -> int:
        for c, members in enumerate(self.classes):
            if item_index in members:
                return c
        raise ValueError(f"no item with index {item_index}")

    def class_label(self, c: int) -> str:
        return ", ".join(sorted(self.items[i].name for i in self.classes[c]))

    def class_below(self, a: int, b: int) -> bool:
        return self.matrix[self.classes[a][0]][self.classes[b][0]]


def degree_poset(
    items: Sequence,
    relation: str = "le2",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> DegreePoset:
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
    matrix = tuple(
        tuple(
            decide(items[i], items[j], relation, budget, cap) is not None
            for j in range(n)
        )
        for i in range(n)
    )
    for i in range(n):
        if not matrix[i][i]:
            raise ContredError(f"{relation} is not reflexive at {names[i]!r}")
        for j in range(n):
            for k in range(n):
                if matrix[i][j] and matrix[j][k] and not matrix[i][k]:
                    raise ContredError(
                        f"{relation} is not transitive on "
                        f"{names[i]!r}, {names[j]!r}, {names[k]!r}"
                    )

    assigned: dict[int, int] = {}
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if i in assigned:
            continue
        members = tuple(
            j for j in range(n) if matrix[i][j] and matrix[j][i]
        )
        for j in members:
            assigned[j] = len(classes)
        classes.append(members)
    order = sorted(
        range(len(classes)),
        key=lambda c: tuple(sorted(items[i].name for i in classes[c])),
    )
    classes = [classes[c] for c in order]

    def below(a: int, b: int) -> bool:
        return matrix[classes[a][0]][classes[b][0]]

    m = len(classes)
    hasse = []
    for a in range(m):
        for b in range(m):
            if a == b or not below(a, b):
                continue
            if not any(
                c != a and c != b and below(a, c) and below(c, b)
                for c in range(m)
            ):
                hasse.append((a, b))
    return DegreePoset(items, relation, matrix, tuple(classes), tuple(hasse))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(poset: DegreePoset, graph_name: str = "degrees") -> str:
    """Deterministic DOT text: one node per class, covers drawn upward."""
    lines = [f"digraph {_dot_quote(graph_name)} {{", "  rankdir=BT;"]
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


@lru_cache(maxsize=None)
def _full_continuous_sup(dom: Space, cod: Space) -> PartialMap:
    fam = enumerate_continuous_partial(dom, cod)
    return sup0(fam, cod=cod, name=f"allcont[{dom.name}>{cod.name}]")


def admissible(f: PartialMap, budget: int | Budget | None = None) -> bool:
    """Is f interchangeable with the join of every continuous partial
    map sharing its source and target?

    Equivalent formulation: f bounds, and is bounded by, that join in
    the composition order.
    """
    full = _full_continuous_sup(f.dom, f.cod)
    if le0_map(f, full, budget) is None:
        return False
    return le0_map(full, f, budget) is not None


def is_surjective(f: PartialMap) -> bool:
    return len(set(f.vec) - {-1}) == f.cod.n


# -- catalog maps ---------------------------------------------------------


def mod_chain_map(length: int, modulus: int, name: str | None = None) -> TotalMap:
    """Chain of the given length labeled cyclically into a discrete space.

    For 2 <= modulus <= length this realizes level exactly ``length`` and
    basesize exactly ``modulus``.
    """
    if length < 0 or modulus < 1:
        raise ValueError("length >= 0 and modulus >= 1 required")
    dom = chain(length)
    cod = discrete(modulus)
    rows = {p: str(i % modulus) for i, p in enumerate(dom.points)}
    return total_map(name or f"mod{modulus}x{length}", dom, cod, rows)


def injective_indiscrete_map(k: int, name: str | None = None) -> TotalMap:
    """An injective labeling of an indiscrete space; level is unbounded
    for k >= 2, basesize is k."""
    dom = indiscrete(k)
    cod = discrete(k)
    return total_map(name or f"blur{k}", dom, cod, {p: p for p in dom.points})


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


def random_map(dom: Space, cod: Space, seed: int = 0, name: str | None = None) -> TotalMap:
    if cod.n == 0 and dom.n > 0:
        raise ValueError("no total map into the empty space")
    rng = _rng("map", dom.name, cod.name, seed)
    rows = {p: rng.choice(cod.points) for p in dom.points}
    return total_map(name or f"rm{seed}[{dom.name}>{cod.name}]", dom, cod, rows)


def random_partial_map(
    dom: Space,
    cod: Space,
    seed: int = 0,
    defined_density: float = 0.7,
    name: str | None = None,
) -> PartialMap:
    rng = _rng("pmap", dom.name, cod.name, seed, defined_density)
    rows = {
        p: rng.choice(cod.points)
        for p in dom.points
        if cod.n and rng.random() < defined_density
    }
    return partial_map(name or f"rp{seed}[{dom.name}>{cod.name}]", dom, cod, rows)


def random_continuous_map(
    dom: Space, cod: Space, seed: int = 0, name: str | None = None
) -> TotalMap:
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


def _matches_targets(m: PartialMap, lev_t: LevelValue, bas_t: int) -> bool:
    return level(m, 1) == lev_t and basesize(m) == bas_t


def search_lev_bas_witness(
    target_lev: int | LevelValue,
    target_bas: int,
    max_points: int = 8,
    seed: int = 0,
    attempts: int = 300,
) -> TotalMap:
    """Find a total map with the requested first-variant level and
    basesize.  Random candidates first, then a deterministic cyclically
    labeled chain; every hit is re-verified through the full invariant
    report before being returned."""
    lev_t = target_lev if isinstance(target_lev, LevelValue) else LevelValue(target_lev)
    if LevelValue(target_bas) > lev_t:
        raise ValueError("basesize target cannot exceed the level target")

    def verified(m: TotalMap) -> TotalMap:
        report = invariant_report(m)
        if report.lev1 != lev_t or report.bas != target_bas:
            raise InvalidWitnessError(
                f"{m.name!r} has level {report.lev1} and basesize {report.bas}"
            )
        return m

    candidates: list[TotalMap] = []
    if lev_t == LevelValue(0) and target_bas == 0:
        candidates.append(total_map("void", chain(0), discrete(1), {}))
    rng = _rng("search", lev_t, target_bas, seed)
    for _ in range(attempts):
        n = rng.randint(1, max_points)
        dom = random_space(n, rng.choice([0.2, 0.4, 0.7]), rng.randrange(1 << 30))
        cod = discrete(rng.randint(1, min(4, max(1, n))))
        candidates.append(random_map(dom, cod, rng.randrange(1 << 30)))
    if lev_t.value is not None and 1 <= target_bas <= lev_t.value <= max_points:
        candidates.append(mod_chain_map(lev_t.value, target_bas))
    if lev_t == UNBOUNDED and 2 <= target_bas <= max_points:
        candidates.append(injective_indiscrete_map(target_bas))
    for m in candidates:
        if _matches_targets(m, lev_t, target_bas):
            return verified(m)
    raise SearchExhaustedError(
        f"no map with level {lev_t} and basesize {target_bas} "
        f"within {max_points} points ({attempts} random attempts)"
    )


def _antichain_catalog(
    size: int, relation: str, max_points: int, cap: int
) -> list[tuple[PartialMap, ...]]:
    out: list[tuple[PartialMap, ...]] = []
    if relation == "le0":
        cod = discrete(size)
        dot = indiscrete(1)
        out.append(
            tuple(
                total_map(f"k{v}", dot, cod, {"0": str(v)})
                for v in range(size)
            )
        )
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
    seed: int = 0,
    attempts: int = 200,
    budget: int | Budget | None = None,
    cap: int = 3,
) -> tuple[PartialMap, ...]:
    """Find pairwise-incomparable maps under the given reducibility.

    Catalog families (constants for the composition order, invariant
    profiles otherwise) are tried first, then seeded random pools; the
    returned family is confirmed pairwise incomparable by the decider."""
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
    rng = _rng("antichain", size, relation, seed)
    pool: list[PartialMap] = []
    cod = discrete(min(size, 3)) if relation == "le0" else None
    for _ in range(attempts):
        n = rng.randint(1, min(4, max_points))
        dom = random_space(n, rng.choice([0.0, 0.3, 0.6]), rng.randrange(1 << 30))
        target = cod or discrete(rng.randint(1, 3))
        pool.append(random_map(dom, target, rng.randrange(1 << 30)))
        if len(pool) >= size:
            for fam in combinations(pool[-12:], size):
                if pairwise_incomparable(fam):
                    return tuple(fam)
    raise SearchExhaustedError(
        f"no antichain of size {size} under {relation} found "
        f"within {max_points} points"
    )
