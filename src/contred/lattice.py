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

A family is a plain sequence, whose members are tagged "0", "1", ..., or
``tagged(items, tags)``; the tags name the summands of a coproduct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

from .errors import CapacityError, ContredError, InvalidWitnessError, SpaceMismatchError
from .kernel import Budget
from .reducibility import Witness0, Witness2, _replayed, decide
from .spaces import (
    PartialMap,
    Problem,
    Relation,
    Space,
    _bits,
    _restrict_mask,
    _subspace,
    _vec_map,
    choice_functions,
    coproduct,
    problem,
    product,
    product_space,
)

SELECTION_CAP = 10_000  # ceiling on the member selections of a problem join


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


def _family(family) -> TaggedFamily:
    return family if isinstance(family, TaggedFamily) else tagged(tuple(family))


def _lift(join, prefix: str, fam: TaggedFamily, cod: Space, name) -> Problem:
    """The problem whose members are ``join`` of each memberwise selection,
    one member from each problem of ``fam``; ``prefix`` names the join."""
    probs: tuple[Problem, ...] = fam.items
    count = 1
    for P in probs:
        count *= len(P.members)
        if count > SELECTION_CAP:
            raise CapacityError(
                f"more than {SELECTION_CAP} member selections in {prefix}_problem"
            )
    dom = coproduct([P.dom for P in probs], fam.tags).space
    label = name or prefix + "(" + ",".join(P.name for P in probs) + ")"
    members = [
        join(tagged(picks, fam.tags), name=f"{label}.s{k}")
        for k, picks in enumerate(_iproduct(*(P.members for P in probs)))
    ]
    return problem(label, dom, cod, members)


def _glued(fam: TaggedFamily, bound: PartialMap, member_witnesses, label: str):
    """The member translations one after another: the coproduct of the
    members' domains lists their blocks in the same order."""
    dom = coproduct([m.dom for m in fam.items], fam.tags).space
    vec = [v for w in member_witnesses for v in w.gvec]
    if len(vec) != dom.n:
        raise InvalidWitnessError("member witnesses do not fit the family")
    return _vec_map(label, dom, bound.dom, vec)


# -- sup2 -----------------------------------------------------------------


def sup2(
    family: Sequence[PartialMap] | TaggedFamily,
    name: str | None = None,
) -> PartialMap:
    """Tagged disjoint union: (tag, x) -> (tag, f_tag(x)).

    The empty family yields the nowhere-relevant map between empty
    spaces, the bottom of the one-query order.
    """
    fam = _family(family)
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
    name: str | None = None,
) -> Problem:
    """All sups of memberwise selections, one member per problem.

    Any empty factor leaves no selections, so the result is the empty
    problem at the coproduct type.
    """
    fam = _family(family)
    cod = coproduct([P.cod for P in fam.items], fam.tags).space
    return _lift(sup2, "sup2", fam, cod, name)


def sup2_upper_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
) -> Witness2:
    """Witness that the tagged member sits below the sup: inject, then untag."""
    fam = _family(family)
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
    return _replayed(
        member, sup2(fam), Witness2(g, f), "sup2 upper witness failed to replay"
    )


def sup2_least_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    bound: PartialMap,
    member_witnesses: Sequence[Witness2],
) -> Witness2:
    """Reassemble member witnesses below a common bound into one for the sup.

    Given, for each tagged member, a one-query reduction to ``bound``,
    translate componentwise and tag the postprocessed answers.
    """
    if not all(isinstance(w, Witness2) for w in member_witnesses):
        raise InvalidWitnessError("member witnesses do not fit the family")
    fam = _family(family)
    cop_cod = coproduct([m.cod for m in fam.items], fam.tags)
    # F's domain, the coproduct times bound.cod, also lists the members'
    # blocks one after another, so F's vector is the members' in turn
    f_vec = [
        inj.vec[v] if v >= 0 else -1
        for w, inj in zip(member_witnesses, cop_cod.injections)
        for v in w.fvec
    ]
    g = _glued(fam, bound, member_witnesses, f"G[sup,{bound.name}]")
    prod = product_space(g.dom, bound.cod)
    if len(f_vec) != prod.n:
        raise InvalidWitnessError("member witnesses do not fit the family")
    f = _vec_map(f"F[sup,{bound.name}]", prod, cop_cod.space, f_vec)
    return _replayed(
        sup2(fam), bound, Witness2(g, f), "sup2 least witness failed to replay"
    )


# -- sup0 -----------------------------------------------------------------


def _common_cod(maps: Sequence[PartialMap], cod: Space | None) -> Space:
    cods = {m.cod for m in maps}
    if len(cods) > 1:
        raise SpaceMismatchError("sup0/inf0 need one shared codomain")
    if cods:
        shared = next(iter(cods))
        if cod is not None and cod != shared:
            raise SpaceMismatchError("explicit codomain disagrees with the family")
        return shared
    if cod is None:
        raise ValueError("empty family needs an explicit codomain")
    return cod


def sup0(
    family: Sequence[PartialMap] | TaggedFamily,
    cod: Space | None = None,
    name: str | None = None,
) -> PartialMap:
    """Untagged join into the shared codomain: (tag, x) -> f_tag(x)."""
    fam = _family(family)
    maps: tuple[PartialMap, ...] = fam.items
    z = _common_cod(maps, cod)
    dom = coproduct([m.dom for m in maps], fam.tags).space
    vec = [v for m in maps for v in m.vec]
    label = name or "sup0(" + ",".join(m.name for m in maps) + ")"
    return _vec_map(label, dom, z, vec)


def sup0_problem(
    family: Sequence[Problem] | TaggedFamily,
    cod: Space | None = None,
    name: str | None = None,
) -> Problem:
    """All untagged joins of memberwise selections."""
    fam = _family(family)
    z = _common_cod(fam.items, cod)
    return _lift(lambda picks, name: sup0(picks, cod=z, name=name), "sup0", fam, z, name)


def sup0_upper_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
) -> Witness0:
    """The injection witnesses each member below the join."""
    fam = _family(family)
    pos = fam.tags.index(tag)
    cop = coproduct([m.dom for m in fam.items], fam.tags)
    w = Witness0(cop.injections[pos])
    return _replayed(
        fam.items[pos], sup0(fam), w, "sup0 upper witness failed to replay"
    )


def sup0_least_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    bound: PartialMap,
    member_witnesses: Sequence[Witness0],
) -> Witness0:
    """Member translations glued componentwise over the coproduct."""
    fam = _family(family)
    w = Witness0(_glued(fam, bound, member_witnesses, f"G[sup0,{bound.name}]"))
    # only the empty family takes its codomain from the bound: a member's
    # codomain other than the bound's is reported by the replay
    join = sup0(fam, cod=None if len(fam) else bound.cod)
    return _replayed(join, bound, w, "sup0 least witness failed to replay")


# -- inf0 -----------------------------------------------------------------


def _indiscrete_copy(space: Space) -> Space:
    full = (1 << space.n) - 1
    return Space(
        f"indiscrete({space.name})", space.points, tuple(full for _ in space.points)
    )


def fibered_with_projections(
    family: Sequence[PartialMap] | TaggedFamily,
    name: str | None = None,
) -> tuple[Space, tuple[PartialMap, ...], PartialMap]:
    """The subspace of the product of domains on which all member
    answers coincide, its projections, and the common-answer map.

    Points are input tuples, one coordinate per member; a tuple
    survives when every member sends its coordinate to the same value.
    Members must be total and share a codomain."""
    fam = _family(family)
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
    sub = _subspace(prod.space, sum(1 << a for a in agreeing), f"eq[{label}]")
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
    cod: Space | None = None,
    name: str | None = None,
) -> PartialMap:
    """Greatest lower bound for composition reducibility.

    Nonempty families: the common answer on the coincidence subspace of
    the product of the domains (input tuples all members answer alike).
    The empty family: the identity viewed from an indiscrete copy of the
    codomain, the top of that order.
    """
    fam = _family(family)
    if not len(fam):
        z = _common_cod((), cod)
        return _vec_map(name or f"top({z.name})", _indiscrete_copy(z), z, range(z.n))
    _, _, common = fibered_with_projections(fam, name=name)
    _common_cod(fam.items, cod)  # an explicit codomain must be the family's
    return common


def inf0_lower_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    tag: str,
) -> Witness0:
    """The projection witnesses the inf below each member."""
    fam = _family(family)
    pos = fam.tags.index(tag)
    _, projections, common = fibered_with_projections(fam)
    w = Witness0(projections[pos])
    return _replayed(common, fam.items[pos], w, "inf0 lower witness failed to replay")


def inf0_greatest_witness(
    family: Sequence[PartialMap] | TaggedFamily,
    lower: PartialMap,
    member_witnesses: Sequence[Witness0],
) -> Witness0:
    """Tuple the member translations; agreement lands them in the subspace.

    Below the empty family's meet, the identity out of an indiscrete copy
    of the codomain, ``lower`` factors through its own values."""
    fam = _family(family)
    if len(fam):
        sub, projections, common = fibered_with_projections(fam)
        vec = _tupling(sub, projections, [w.translation for w in member_witnesses])
    else:
        common = inf0(fam, cod=lower.cod)
        sub, vec = common.dom, lower.vec
    w = Witness0(_vec_map(f"G[{lower.name},inf0]", lower.dom, sub, vec))
    return _replayed(lower, common, w, "inf0 greatest witness failed to replay")


# -- distributivity -------------------------------------------------------


def _preimages(dom: Space, live: int, gv, fam: TaggedFamily):
    """Per tag, the mask of the ``live`` points whose translation (value
    vector ``gv``) lands in that tag's summand; each must be clopen among
    the live points."""
    owner = [k for k, item in enumerate(fam.items) for _ in range(item.dom.n)]
    masks = [0] * len(fam)
    for i in _bits(live):
        if gv[i] < 0:
            raise InvalidWitnessError(
                f"translation undefined at defined point {dom.points[i]!r}"
            )
        masks[owner[gv[i]]] |= 1 << i
    for t, mask in zip(fam.tags, masks):
        for i in _bits(mask):
            if (dom.up[i] | dom.down[i]) & live & ~mask:
                raise ContredError(f"component preimage for tag {t!r} is not clopen")
    return masks


def _rejoined(whole, pieces, members, split, kind: str, budget) -> None:
    """Re-decide that each piece reduces to its member and that the pieces'
    join ``split`` is equivalent to ``whole``."""
    for piece, member in zip(pieces, members):
        if decide(piece, member, "le2", budget) is None:
            raise ContredError(
                f"piece {piece.name!r} does not reduce to {member.name!r}"
            )
    if (
        decide(whole, split, "le2", budget) is None
        or decide(split, whole, "le2", budget) is None
    ):
        raise ContredError(f"pieces do not reassemble to the original {kind}")


def distribute2(
    f: PartialMap,
    family: Sequence[PartialMap] | TaggedFamily,
    witness: Witness2,
    budget: int | Budget | None = None,
) -> TaggedFamily:
    """Split f along the components its translation queries.

    Given a replaying witness for f below sup2(family), the preimage of
    each component is clopen in f's domain of definition; restricting f
    there yields pieces with f_tag below g_tag and f equivalent to
    sup2 of the pieces.  All three facts are re-established by the
    deciders before returning.
    """
    fam = _family(family)
    _replayed(f, sup2(fam), witness, "witness does not reduce f to the sup")
    masks = _preimages(f.dom, f.def_mask, witness.gvec, fam)
    parts = tagged(
        [_restrict_mask(f, m, f"{f.name}_{t}") for t, m in zip(fam.tags, masks)],
        fam.tags,
    )
    _rejoined(f, parts.items, fam.items, sup2(parts), "map", budget)
    return parts


def distribute2_relation(
    rel: Relation,
    family: Sequence[Relation] | TaggedFamily,
    witness: Witness2,
    budget: int | Budget | None = None,
) -> TaggedFamily:
    """The relation form of distribute2, through choice-function problems.

    Each choice problem is built once and named after its relation, so a
    failed check names the relations."""
    fam = _family(family)
    P = choice_functions(rel)
    members = [choice_functions(s, s.name) for s in fam.items]
    Q = sup2_problem(tagged(members, fam.tags))
    _replayed(P, Q, witness, "witness does not reduce the choice problems")
    rows = rel.rows
    live = sum(1 << i for i, r in enumerate(rows) if r)
    masks = _preimages(rel.dom, live, witness.gvec, fam)
    cuts = [tuple(r if m >> i & 1 else 0 for i, r in enumerate(rows)) for m in masks]
    parts = tagged(
        [Relation(f"{rel.name}_{t}", rel.dom, rel.cod, c) for t, c in zip(fam.tags, cuts)],
        fam.tags,
    )
    pieces = [choice_functions(r, r.name) for r in parts.items]
    split = sup2_problem(tagged(pieces, fam.tags))
    _rejoined(P, pieces, members, split, "relation", budget)
    return parts


# -- bound verification ----------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    violations: tuple[str, ...]


def _bound_report(candidate, family, pool, below, unbounded: str) -> BoundReport:
    """The two halves of a least upper bound in the order ``below``: every
    member lies below the candidate, worded by ``unbounded``, and every
    pool item above the whole family lies above the candidate too."""
    fam = _family(family)
    violations = [
        unbounded.format(tag=tag, name=item.name)
        for tag, item in fam
        if not below(item, candidate)
    ]
    for other in pool:
        if all(below(item, other) for _, item in fam) and not below(candidate, other):
            violations.append(
                f"pool item {other.name} bounds the family but not the candidate"
            )
    return BoundReport(not violations, tuple(violations))


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
    return _bound_report(
        candidate,
        family,
        pool,
        lambda a, b: decide(a, b, relation, budget, cap) is not None,
        "member {tag} ({name}) is not below the candidate",
    )


def verify_glb(
    candidate,
    family: Sequence | TaggedFamily,
    pool: Sequence,
    relation: str = "le0",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> BoundReport:
    """Dual of verify_lub: a greatest lower bound is a least upper bound in
    the opposite order."""
    return _bound_report(
        candidate,
        family,
        pool,
        lambda a, b: decide(b, a, relation, budget, cap) is not None,
        "candidate is not below member {tag} ({name})",
    )
