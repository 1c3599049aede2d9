"""Suprema and infima for the reducibility degree structures.

Three canonical constructions:

* ``sup2`` — tagged disjoint union of maps, the least upper bound for
  one-query reducibility: (tag, x) is sent to (tag, f_tag(x)).
* ``sup0`` — untagged join of maps into one shared codomain, the least
  upper bound for composition reducibility.
* ``inf0`` — the greatest lower bound for composition reducibility: the
  common value on the subspace of the product where all members agree.

Problem variants lift these memberwise: a member of ``sup2_problem`` is
the sup of one selection of members, one from each problem.  The
witnesses that make these genuine bounds are constructed directly from
the shape of the construction (injections, projections, reassembled
member witnesses) and replayed before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

from .errors import CapacityError, ContredError, InvalidWitnessError
from .reducibility import (
    Budget,
    Witness0,
    Witness2,
    decide,
    le2_map,
    le2_problem,
    verify_witness0,
    verify_witness2,
)
from .spaces import (
    PartialMap,
    Problem,
    Relation,
    Space,
    _bits,
    _restrict_mask,
    _vec_map,
    choice_functions,
    coproduct,
    problem,
    product,
    product_space,
    relation,
    subspace,
)

SELECTION_CAP = 10_000


@dataclass(frozen=True)
class TaggedFamily:
    """An ordered family of items keyed by unique string tags."""

    entries: tuple[tuple[str, object], ...]

    def __post_init__(self) -> None:
        tags = [t for t, _ in self.entries]
        if len(set(tags)) != len(tags):
            raise ValueError("family tags must be unique")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    @property
    def items(self) -> tuple:
        return tuple(x for _, x in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def tagged(items: Sequence, tags: Sequence[str] | None = None) -> TaggedFamily:
    if tags is None:
        tags = tuple(str(i) for i in range(len(items)))
    if len(tags) != len(items):
        raise ValueError("one tag per item required")
    return TaggedFamily(tuple(zip(tags, items)))


def _family(family, tags=None) -> TaggedFamily:
    if isinstance(family, TaggedFamily):
        if tags is not None and tuple(tags) != family.tags:
            raise ValueError(
                f"tags {list(tags)} disagree with the family's {list(family.tags)}"
            )
        return family
    return tagged(tuple(family), tags)


# -- sup2 -----------------------------------------------------------------


def sup2(
    family: Sequence[PartialMap] | TaggedFamily,
    tags: Sequence[str] | None = None,
    name: str | None = None,
) -> PartialMap:
    """Tagged disjoint union: (tag, x) -> (tag, f_tag(x)).

    The empty family yields the nowhere-relevant map between empty
    spaces, the bottom of the one-query order.
    """
    fam = _family(family, tags)
    maps: tuple[PartialMap, ...] = fam.items
    dom = coproduct([m.dom for m in maps], fam.tags).space
    cod = coproduct([m.cod for m in maps], fam.tags)
    # the summands' points follow one another, so the vector is the members'
    # vectors one after another, values moved into their tag's block
    vec = [
        inj.vec[v] if v >= 0 else -1
        for m, inj in zip(maps, cod.injections)
        for v in m.vec
    ]
    label = name or "sup2(" + ",".join(m.name for m in maps) + ")"
    return _vec_map(label, dom, cod.space, vec)


def sup2_problem(
    family: Sequence[Problem] | TaggedFamily,
    tags: Sequence[str] | None = None,
    name: str | None = None,
    cap: int = SELECTION_CAP,
) -> Problem:
    """All sups of memberwise selections, one member per problem.

    Any empty factor leaves no selections, so the result is the empty
    problem at the coproduct type.
    """
    fam = _family(family, tags)
    probs: tuple[Problem, ...] = fam.items
    count = 1
    for P in probs:
        count *= len(P.members)
        if count > cap:
            raise CapacityError(f"more than {cap} member selections in sup2_problem")
    dom = coproduct([P.dom for P in probs], fam.tags).space
    cod = coproduct([P.cod for P in probs], fam.tags).space
    label = name or "sup2(" + ",".join(P.name for P in probs) + ")"
    members = []
    for k, picks in enumerate(_iproduct(*(P.members for P in probs))):
        members.append(
            sup2(tagged(picks, fam.tags), name=f"{label}.s{k}")
        )
    return problem(label, dom, cod, members)


def sup2_upper_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
    tags: Sequence[str] | None = None,
) -> Witness2:
    """Witness that the tagged member sits below the sup: inject, then untag."""
    fam = _family(family, tags)
    maps = fam.items
    pos = fam.tags.index(tag)
    member: PartialMap = maps[pos]
    g = coproduct([m.dom for m in maps], fam.tags).injections[pos]
    cod = coproduct([m.cod for m in maps], fam.tags)
    untag = [-1] * cod.space.n
    for y, v in enumerate(cod.injections[pos].vec):
        untag[v] = y
    prod = product_space(member.dom, cod.space)
    f = _vec_map(f"untag[{tag}]", prod, member.cod, untag * member.dom.n)
    w = Witness2(g, f)
    if not verify_witness2(member, sup2(fam), w):
        raise InvalidWitnessError("sup2 upper witness failed to replay")
    return w


def sup2_least_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    bound: PartialMap,
    member_witnesses: Sequence[Witness2],
    tags: Sequence[str] | None = None,
) -> Witness2:
    """Reassemble member witnesses below a common bound into one for the sup.

    Given, for each tagged member, a one-query reduction to ``bound``,
    translate componentwise and tag the postprocessed answers.
    """
    fam = _family(family, tags)
    maps = fam.items
    sup = sup2(fam)
    cop_dom = coproduct([m.dom for m in maps], fam.tags).space
    cop_cod = coproduct([m.cod for m in maps], fam.tags)
    # both G's domain and F's (the coproduct times bound.cod) list the
    # members' blocks one after another, so each vector is the members'
    # vectors in turn
    g_vec = [v for w in member_witnesses for v in w.translation.vec]
    g = _vec_map(f"G[sup,{bound.name}]", cop_dom, bound.dom, g_vec)
    f_vec = [
        inj.vec[v] if v >= 0 else -1
        for w, inj in zip(member_witnesses, cop_cod.injections)
        for v in w.postprocess.vec
    ]
    prod = product_space(cop_dom, bound.cod)
    if len(g_vec) != cop_dom.n or len(f_vec) != prod.n:
        raise InvalidWitnessError("member witnesses do not fit the family")
    f = _vec_map(f"F[sup,{bound.name}]", prod, cop_cod.space, f_vec)
    w = Witness2(g, f)
    if not verify_witness2(sup, bound, w):
        raise InvalidWitnessError("sup2 least witness failed to replay")
    return w


# -- sup0 -----------------------------------------------------------------


def _common_cod(maps: Sequence[PartialMap], cod: Space | None) -> Space:
    cods = {m.cod for m in maps}
    if len(cods) > 1:
        raise ContredError("sup0/inf0 need one shared codomain")
    if cods:
        shared = next(iter(cods))
        if cod is not None and cod != shared:
            raise ContredError("explicit codomain disagrees with the family")
        return shared
    if cod is None:
        raise ValueError("empty family needs an explicit codomain")
    return cod


def sup0(
    family: Sequence[PartialMap] | TaggedFamily,
    tags: Sequence[str] | None = None,
    cod: Space | None = None,
    name: str | None = None,
) -> PartialMap:
    """Untagged join into the shared codomain: (tag, x) -> f_tag(x)."""
    fam = _family(family, tags)
    maps: tuple[PartialMap, ...] = fam.items
    z = _common_cod(maps, cod)
    dom = coproduct([m.dom for m in maps], fam.tags).space
    vec = [v for m in maps for v in m.vec]
    label = name or "sup0(" + ",".join(m.name for m in maps) + ")"
    return _vec_map(label, dom, z, vec)


def sup0_problem(
    family: Sequence[Problem] | TaggedFamily,
    tags: Sequence[str] | None = None,
    cod: Space | None = None,
    name: str | None = None,
    cap: int = SELECTION_CAP,
) -> Problem:
    """All untagged joins of memberwise selections."""
    fam = _family(family, tags)
    probs: tuple[Problem, ...] = fam.items
    z = _common_cod([P for P in probs], cod) if probs else cod
    if z is None:
        raise ValueError("empty family needs an explicit codomain")
    count = 1
    for P in probs:
        count *= len(P.members)
        if count > cap:
            raise CapacityError(f"more than {cap} member selections in sup0_problem")
    dom = coproduct([P.dom for P in probs], fam.tags).space
    label = name or "sup0(" + ",".join(P.name for P in probs) + ")"
    members = []
    for k, picks in enumerate(_iproduct(*(P.members for P in probs))):
        members.append(sup0(tagged(picks, fam.tags), cod=z, name=f"{label}.s{k}"))
    return problem(label, dom, z, members)


def sup0_upper_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
    tags: Sequence[str] | None = None,
    cod: Space | None = None,
) -> Witness0:
    """The injection witnesses each member below the join."""
    fam = _family(family, tags)
    pos = fam.tags.index(tag)
    cop = coproduct([m.dom for m in fam.items], fam.tags)
    w = Witness0(cop.injections[pos])
    if not verify_witness0(fam.items[pos], sup0(fam, cod=cod), w):
        raise InvalidWitnessError("sup0 upper witness failed to replay")
    return w


def sup0_least_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    bound: PartialMap,
    member_witnesses: Sequence[Witness0],
    tags: Sequence[str] | None = None,
) -> Witness0:
    """Member translations glued componentwise over the coproduct."""
    fam = _family(family, tags)
    dom = coproduct([m.dom for m in fam.items], fam.tags).space
    vec = [v for w in member_witnesses for v in w.translation.vec]
    if len(vec) != dom.n:
        raise InvalidWitnessError("member witnesses do not fit the family")
    w = Witness0(_vec_map(f"G[sup0,{bound.name}]", dom, bound.dom, vec))
    if not verify_witness0(sup0(fam), bound, w):
        raise InvalidWitnessError("sup0 least witness failed to replay")
    return w


# -- inf0 -----------------------------------------------------------------


def _indiscrete_copy(space: Space) -> Space:
    full = (1 << space.n) - 1
    return Space(
        f"indiscrete({space.name})", space.points, tuple(full for _ in space.points)
    )


def fibered_with_projections(
    family: Sequence[PartialMap] | TaggedFamily,
    tags: Sequence[str] | None = None,
    name: str | None = None,
) -> tuple[Space, tuple[PartialMap, ...], PartialMap]:
    """The subspace of the product of domains on which all member
    answers coincide, its projections, and the common-answer map.

    Points are input tuples, one coordinate per member; a tuple
    survives when every member sends its coordinate to the same value.
    Members must be total and share a codomain."""
    fam = _family(family, tags)
    maps: tuple[PartialMap, ...] = fam.items
    if not maps:
        raise ValueError("fibered subspace needs at least one map")
    for m in maps:
        if not m.is_total:
            raise ValueError("inf0 takes total maps")
    z = _common_cod(maps, None)
    prod = product([m.dom for m in maps])
    agreeing = []
    values = []
    for a in range(prod.space.n):
        vals = {m.vec[pr.vec[a]] for m, pr in zip(maps, prod.projections)}
        if len(vals) == 1:
            agreeing.append(a)
            values.extend(vals)
    label = name or "inf0(" + ",".join(m.name for m in maps) + ")"
    pts = prod.space.points
    sub = subspace(prod.space, [pts[a] for a in agreeing], name=f"eq[{label}]")
    projections = tuple(
        _vec_map(f"pr{k}[{label}]", sub, m.dom, [pr.vec[a] for a in agreeing])
        for k, (m, pr) in enumerate(zip(maps, prod.projections))
    )
    common = _vec_map(label, sub, z, values)
    return sub, projections, common


def _tupling(sub: Space, projections, legs) -> list[int]:
    """Send x to the point of the fibred subspace ``sub`` whose coordinates
    are the legs' values at x; -1 where a leg is undefined or that tuple
    is not in the subspace."""
    at = {tuple(pr.vec[k] for pr in projections): k for k in range(sub.n)}
    return [at.get(images, -1) for images in zip(*(leg.vec for leg in legs))]


def inf0(
    family: Sequence[PartialMap] | TaggedFamily,
    tags: Sequence[str] | None = None,
    cod: Space | None = None,
    name: str | None = None,
) -> PartialMap:
    """Greatest lower bound for composition reducibility.

    Nonempty families: the common answer on the coincidence subspace of
    the product of the domains (input tuples all members answer alike).
    The empty family: the identity viewed from an indiscrete copy of the
    codomain, the top of that order.
    """
    fam = _family(family, tags)
    if not len(fam):
        if cod is None:
            raise ValueError("empty family needs an explicit codomain")
        return _vec_map(
            name or f"top({cod.name})", _indiscrete_copy(cod), cod, range(cod.n)
        )
    _, _, common = fibered_with_projections(fam, name=name)
    return common


def inf0_lower_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
    tags: Sequence[str] | None = None,
) -> Witness0:
    """The projection witnesses the inf below each member."""
    fam = _family(family, tags)
    pos = fam.tags.index(tag)
    _, projections, common = fibered_with_projections(fam)
    w = Witness0(projections[pos])
    if not verify_witness0(common, fam.items[pos], w):
        raise InvalidWitnessError("inf0 lower witness failed to replay")
    return w


def inf0_greatest_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    lower: PartialMap,
    member_witnesses: Sequence[Witness0],
    tags: Sequence[str] | None = None,
) -> Witness0:
    """Tuple the member translations; agreement lands them in the subspace."""
    fam = _family(family, tags)
    sub, projections, common = fibered_with_projections(fam)
    vec = _tupling(sub, projections, [w.translation for w in member_witnesses])
    w = Witness0(_vec_map(f"G[{lower.name},inf0]", lower.dom, sub, vec))
    if not verify_witness0(lower, common, w):
        raise InvalidWitnessError("inf0 greatest witness failed to replay")
    return w


# -- distributivity -------------------------------------------------------


def _tag_at(tags: Sequence[str], spaces: Sequence[Space]) -> list[str]:
    """The tag of each point of the coproduct of ``spaces``, by index."""
    return [t for t, s in zip(tags, spaces) for _ in range(s.n)]


def distribute2(
    f: PartialMap,
    family: Sequence[PartialMap] | TaggedFamily,
    witness: Witness2,
    tags: Sequence[str] | None = None,
    budget: int | Budget | None = None,
) -> TaggedFamily:
    """Split f along the components its translation queries.

    Given a replaying witness for f below sup2(family), the preimage of
    each component is clopen in f's domain of definition; restricting f
    there yields pieces with f_tag below g_tag and f equivalent to
    sup2 of the pieces.  All three facts are re-established by the
    deciders before returning.
    """
    fam = _family(family, tags)
    sup = sup2(fam)
    if not verify_witness2(f, sup, witness):
        raise InvalidWitnessError("witness does not reduce f to the sup")
    gv = witness.translation.vec
    tag_at = _tag_at(fam.tags, [m.dom for m in fam.items])
    dm = f.def_mask
    buckets = dict.fromkeys(fam.tags, 0)
    for i in _bits(dm):
        if gv[i] < 0:
            raise InvalidWitnessError(
                f"translation undefined at defined point {f.dom.points[i]!r}"
            )
        buckets[tag_at[gv[i]]] |= 1 << i
    up = f.dom.up
    down = f.dom.down
    parts = []
    for t in fam.tags:
        mask = buckets[t]
        for i in _bits(mask):
            if (up[i] & dm) & ~mask or (down[i] & dm) & ~mask:
                raise ContredError(
                    f"component preimage for tag {t!r} is not clopen"
                )
        parts.append(_restrict_mask(f, mask, f"{f.name}_{t}"))
    for (t, g_t), f_t in zip(fam, parts):
        if le2_map(f_t, g_t, budget) is None:
            raise ContredError(f"piece {f_t.name!r} does not reduce to {g_t.name!r}")
    split = sup2(tagged(parts, fam.tags))
    if le2_map(f, split, budget) is None or le2_map(split, f, budget) is None:
        raise ContredError("pieces do not reassemble to the original map")
    return tagged(parts, fam.tags)


def distribute2_relation(
    rel: Relation,
    family: Sequence[Relation] | TaggedFamily,
    witness: Witness2,
    tags: Sequence[str] | None = None,
    budget: int | Budget | None = None,
    cap: int = SELECTION_CAP,
) -> TaggedFamily:
    """The relation form of distribute2, through choice-function problems."""
    fam = _family(family, tags)
    P = choice_functions(rel, cap)
    Q = sup2_problem([choice_functions(s, cap) for s in fam.items], fam.tags, cap=cap)
    if not verify_witness2(P, Q, witness):
        raise InvalidWitnessError("witness does not reduce the choice problems")
    gv = witness.translation.vec
    tag_at = _tag_at(fam.tags, [s.dom for s in fam.items])
    buckets: dict[str, set[str]] = {t: set() for t in fam.tags}
    for x, target in zip(rel.dom.points, gv):
        if x not in rel.targets:
            continue
        if target < 0:
            raise InvalidWitnessError(f"translation undefined at source {x!r}")
        buckets[tag_at[target]].add(x)
    parts = tuple(
        relation(
            f"{rel.name}_{t}",
            rel.dom,
            rel.cod,
            [(x, y) for x, y in rel.pairs if x in buckets[t]],
        )
        for t in fam.tags
    )
    for (t, s_t), r_t in zip(fam, parts):
        if le2_problem(choice_functions(r_t, cap), choice_functions(s_t, cap), budget) is None:
            raise ContredError(f"piece {r_t.name!r} does not reduce to {s_t.name!r}")
    split = sup2_problem([choice_functions(r, cap) for r in parts], fam.tags, cap=cap)
    if (
        le2_problem(P, split, budget) is None
        or le2_problem(split, P, budget) is None
    ):
        raise ContredError("pieces do not reassemble to the original relation")
    return tagged(parts, fam.tags)


# -- bound verification ----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    violations: tuple[str, ...]


def verify_lub(
    candidate,
    family: Sequence | TaggedFamily,
    pool: Sequence,
    relation: str = "le2",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> BoundReport:
    """Check the two halves of being a least upper bound, against a pool.

    Upper: every family member reduces to the candidate.  Least: any pool
    item bounding the whole family also bounds the candidate.  Violations
    carry the offending names.
    """
    fam = _family(family)
    violations = []
    for tag, item in fam:
        if decide(item, candidate, relation, budget, cap) is None:
            violations.append(f"member {tag} ({item.name}) is not below the candidate")
    for other in pool:
        if all(
            decide(item, other, relation, budget, cap) is not None
            for _, item in fam
        ):
            if decide(candidate, other, relation, budget, cap) is None:
                violations.append(
                    f"pool item {other.name} bounds the family but not the candidate"
                )
    return BoundReport(not violations, tuple(violations))


def verify_glb(
    candidate,
    family: Sequence | TaggedFamily,
    pool: Sequence,
    relation: str = "le0",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> BoundReport:
    """Dual of verify_lub: lower bound plus greatest against a pool."""
    fam = _family(family)
    violations = []
    for tag, item in fam:
        if decide(candidate, item, relation, budget, cap) is None:
            violations.append(f"candidate is not below member {tag} ({item.name})")
    for other in pool:
        if all(
            decide(other, item, relation, budget, cap) is not None
            for _, item in fam
        ):
            if decide(other, candidate, relation, budget, cap) is None:
                violations.append(
                    f"pool item {other.name} bounds the family but not the candidate"
                )
    return BoundReport(not violations, tuple(violations))
