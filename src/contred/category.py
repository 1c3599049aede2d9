"""Finite categories over the space machinery.

The ambient category has finite spaces as objects and ALL total maps as
morphisms; the continuous maps form the distinguished wide subcategory.
Composition-order reducibility generalizes to this setting: u is below v
when some subcategory morphism G factors u through v.  The module also
realizes the join/meet constructions categorically — coproducts with
their copairing mediators and pullbacks with their tupling mediators —
and converts degree posets into thin categories where joins reappear as
coproducts.

Every constructed category is validated exhaustively: identities,
closure of the composition table, unit laws, and associativity over all
composable triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Callable, Sequence

from .errors import CapacityError, ContredError, SpaceMismatchError
from .explore import DegreePoset
from .lattice import (
    TaggedFamily,
    _common_cod,
    _family,
    _tupling,
    fibered_with_projections,
    sup0,
)
from .spaces import (
    PartialMap,
    Space,
    _vec_map,
    compose,
    coproduct,
    is_continuous,
    map_equal,
)

HOM_CAP = 50_000  # ceiling on enumerated total maps: morphisms, candidate mediators


@dataclass(frozen=True)
class Morphism:
    name: str
    src: str
    dst: str

    def __str__(self) -> str:
        return f"{self.name}: {self.src} -> {self.dst}"


@dataclass(frozen=True, eq=False)
class FinCategory:
    """A finite category given by an explicit composition table.

    ``table[(g.name, f.name)]`` holds the name of g after f, present for
    exactly the composable pairs.  Validation is exhaustive and runs on
    construction.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identities: dict[str, str]
    table: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        by_name = {m.name: m for m in self.morphisms}
        if len(by_name) != len(self.morphisms):
            raise ValueError("duplicate morphism names")
        object.__setattr__(self, "_by_name", by_name)
        objs = set(self.objects)
        for m in self.morphisms:
            if m.src not in objs or m.dst not in objs:
                raise ValueError(f"morphism {m} has undeclared endpoints")
        for o in self.objects:
            i = by_name.get(self.identities.get(o, ""))
            if i is None or i.src != o or i.dst != o:
                raise ValueError(f"missing identity on {o!r}")
        for (g, f), h in self.table.items():
            gm, fm, hm = by_name.get(g), by_name.get(f), by_name.get(h)
            if gm is None or fm is None or hm is None:
                raise ValueError(f"composition entry {g}∘{f}={h} names a stranger")
            if fm.dst != gm.src:
                raise ValueError(f"{g}∘{f} is not composable")
            if hm.src != fm.src or hm.dst != gm.dst:
                raise ValueError(f"{g}∘{f}={h} has wrong endpoints")
        for f in self.morphisms:
            for g in self.morphisms:
                if (f.dst == g.src) != ((g.name, f.name) in self.table):
                    raise ValueError(
                        f"table must cover exactly the composable pairs: "
                        f"{g.name} after {f.name}"
                    )
        for f in self.morphisms:
            if self.table[(self.identities[f.dst], f.name)] != f.name:
                raise ValueError(f"left unit law fails at {f.name}")
            if self.table[(f.name, self.identities[f.src])] != f.name:
                raise ValueError(f"right unit law fails at {f.name}")
        for f in self.morphisms:
            for g in self.morphisms:
                if f.dst != g.src:
                    continue
                gf = self.table[(g.name, f.name)]
                for h in self.morphisms:
                    if g.dst != h.src:
                        continue
                    if self.table[(h.name, gf)] != self.table[
                        (self.table[(h.name, g.name)], f.name)
                    ]:
                        raise ValueError(
                            f"associativity fails on ({h.name}, {g.name}, {f.name})"
                        )

    def morphism(self, name: str) -> Morphism:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"no morphism named {name!r}") from None

    def hom(self, src: str, dst: str) -> tuple[Morphism, ...]:
        return tuple(
            m for m in self.morphisms if m.src == src and m.dst == dst
        )

    def compose_names(self, g: str, f: str) -> str:
        key = (g, f)
        if key not in self.table:
            raise ValueError(f"{g} after {f} is not composable")
        return self.table[key]

    def is_identity(self, name: str) -> bool:
        return name in self.identities.values()


class ThinCategory(FinCategory):
    """A category with at most one morphism per ordered object pair."""

    def __post_init__(self) -> None:
        super().__post_init__()
        seen = set()
        for m in self.morphisms:
            key = (m.src, m.dst)
            if key in seen:
                raise ValueError(f"two morphisms {m.src} -> {m.dst}")
            seen.add(key)

    def below(self, a: str, b: str) -> bool:
        return bool(self.hom(a, b))


# -- the finite-space category --------------------------------------------


@dataclass(frozen=True, eq=False)
class CategoryModel:
    """A FinCategory together with the maps its morphisms stand for."""

    category: FinCategory
    spaces: dict[str, Space]
    maps: dict[str, PartialMap]

    def map_of(self, morphism: Morphism | str) -> PartialMap:
        name = morphism if isinstance(morphism, str) else morphism.name
        return self.maps[name]

    def continuous(self, morphism: Morphism | str) -> bool:
        return is_continuous(self.map_of(morphism))


def space_category(spaces: Sequence[Space], name: str | None = None) -> CategoryModel:
    """The category with the given spaces as objects and every total map
    between them as a morphism."""
    spaces = tuple(dict.fromkeys(spaces))
    names = [s.name for s in spaces]
    if len(set(names)) != len(names):
        raise ValueError("space names must be unique")
    count = sum(
        cod.n**dom.n if dom.n else 1 for dom in spaces for cod in spaces if cod.n or not dom.n
    )
    if count > HOM_CAP:
        raise CapacityError(f"{count} morphisms exceed the cap of {HOM_CAP}")
    space_by_name = {s.name: s for s in spaces}
    morphisms: list[Morphism] = []
    maps: dict[str, PartialMap] = {}
    name_by_key: dict[tuple[str, str, tuple[int, ...]], str] = {}
    identities: dict[str, str] = {}
    for dom in spaces:
        for cod in spaces:
            for k, vec in enumerate(_iproduct(range(cod.n), repeat=dom.n)):
                label = f"{dom.name}>{cod.name}#{k}"
                m = _vec_map(label, dom, cod, vec)
                morphisms.append(Morphism(label, dom.name, cod.name))
                maps[label] = m
                name_by_key[(dom.name, cod.name, vec)] = label
                if dom is cod and all(v == i for i, v in enumerate(vec)):
                    identities[dom.name] = label
    table: dict[tuple[str, str], str] = {}
    for f in morphisms:
        fm = maps[f.name]
        for g in morphisms:
            if f.dst != g.src:
                continue
            gm = maps[g.name]
            vec = tuple(gm.vec[v] for v in fm.vec)
            table[(g.name, f.name)] = name_by_key[(f.src, g.dst, vec)]
    cat = FinCategory(
        name or "spaces(" + ",".join(names) + ")",
        tuple(names),
        tuple(morphisms),
        identities,
        table,
    )
    return CategoryModel(cat, space_by_name, maps)


def continuous_subcategory(model: CategoryModel) -> Callable[[Morphism], bool]:
    """The canonical wide subcategory predicate: continuity."""
    return lambda m: model.continuous(m)


# -- reducibility inside a category ---------------------------------------


def le0_cat(
    cat: FinCategory,
    u: Morphism | str,
    v: Morphism | str,
    K: Callable[[Morphism], bool],
) -> Morphism | None:
    """Factor u through v by a subcategory morphism: u = v ∘ G, G ∈ K.

    K must be a wide subcategory predicate — it has to accept every
    identity.  Returns the first factoring G in declaration order.
    """
    u = cat.morphism(u) if isinstance(u, str) else u
    v = cat.morphism(v) if isinstance(v, str) else v
    if u.dst != v.dst:
        raise SpaceMismatchError(
            f"{u.name} and {v.name} end at different objects"
        )
    for o, ident in cat.identities.items():
        if not K(cat.morphism(ident)):
            raise ValueError(f"subcategory predicate rejects the identity on {o!r}")
    for g in cat.hom(u.src, v.src):
        if K(g) and cat.table[(v.name, g.name)] == u.name:
            return g
    return None


# -- universal constructions ----------------------------------------------


def _sole_mediator(mediator: PartialMap, commutes) -> None:
    """Replay the mediator's equations, then confirm by exhausting every
    total map with its domain and codomain that exactly one commutes."""
    if not commutes(mediator):
        raise ContredError("mediator equation failed to replay")
    dom, cod = mediator.dom, mediator.cod
    candidates = cod.n**dom.n
    if candidates > HOM_CAP:
        raise CapacityError(f"{candidates} candidate mediators exceed the cap")
    hits = sum(
        commutes(_vec_map("cand", dom, cod, vec))
        for vec in _iproduct(range(cod.n), repeat=dom.n)
    )
    if hits != 1:  # pragma: no cover - the mediator is forced pointwise
        raise ContredError(f"expected exactly one mediator, found {hits}")


@dataclass(frozen=True)
class CoproductResultCat:
    space: Space
    injections: tuple[PartialMap, ...]
    mediator: PartialMap
    unique: bool


def coproduct_with_mediator(
    cone: Sequence[PartialMap] | TaggedFamily,
    cod: Space | None = None,
) -> CoproductResultCat:
    """Coproduct of the cone's sources plus the unique copairing map.

    The mediator is the untagged join of the cone; the factoring
    equations mediator ∘ injection_i = cone_i replay exactly, and
    uniqueness is confirmed by exhausting every total map out of the
    coproduct, at most ``HOM_CAP`` of them.
    """
    fam = _family(cone)
    cone = fam.items
    for m in cone:
        if not m.is_total:
            raise ValueError("cone maps must be total")
    z = _common_cod(cone, cod)
    cop = coproduct([m.dom for m in cone], fam.tags)
    mediator = sup0(fam, cod=z, name="copair(" + ",".join(m.name for m in cone) + ")")
    if not mediator.is_total:
        raise ContredError("the mediator is not total")
    _sole_mediator(
        mediator,
        lambda c: all(
            map_equal(compose(c, inj), m) for inj, m in zip(cop.injections, cone)
        ),
    )
    return CoproductResultCat(cop.space, cop.injections, mediator, True)


@dataclass(frozen=True)
class PullbackResultCat:
    space: Space
    projections: tuple[PartialMap, ...]
    common: PartialMap
    mediator: PartialMap | None
    mediator_continuous: bool | None
    unique: bool | None


def pullback_with_mediator(
    maps: Sequence[PartialMap] | TaggedFamily,
    cone: Sequence[PartialMap] | None = None,
) -> PullbackResultCat:
    """Pullback of a finite family over their shared codomain.

    The object is the coincidence subspace of the product of sources;
    projections and the common composite come with it.  When a competing
    cone is supplied, its mediator is computed by tupling, replayed
    against the equations, and confirmed unique by exhaustion.
    """
    maps = _family(maps).items
    if not maps:
        raise ValueError("pullback needs at least one map")
    sub, projections, common = fibered_with_projections(maps)
    for f, p in zip(maps, projections):
        if not map_equal(compose(f, p), common):
            raise ContredError("pullback composite depends on the leg")
    if cone is None:
        return PullbackResultCat(sub, projections, common, None, None, None)
    cone = tuple(cone)
    if len(cone) != len(maps):
        raise ValueError("one cone leg per pullback leg required")
    srcs = {q.dom for q in cone}
    if len(srcs) != 1:
        raise SpaceMismatchError("cone legs must share a source")
    q0 = cone[0]
    for q, f in zip(cone, maps):
        if not q.is_total:
            raise ValueError("cone maps must be total")
        if q.cod != f.dom:
            raise SpaceMismatchError(
                f"cone leg {q.name} does not target {f.dom.name}"
            )
    legs = [compose(f, q) for f, q in zip(maps, cone)]
    for leg in legs[1:]:
        if not map_equal(leg, legs[0]):
            raise ValueError("cone does not commute over the codomain")
    vec = _tupling(sub, projections, cone)
    if -1 in vec:  # pragma: no cover - commuting cones land inside
        raise ContredError("cone point misses the pullback object")
    mediator = _vec_map(f"tuple[{q0.dom.name}>{sub.name}]", q0.dom, sub, vec)
    _sole_mediator(
        mediator,
        lambda c: all(map_equal(compose(p, c), q) for p, q in zip(projections, cone)),
    )
    return PullbackResultCat(
        sub, projections, common, mediator, is_continuous(mediator), True
    )


# -- thin categories from degree posets -----------------------------------


def poset_to_category(poset: DegreePoset, name: str | None = None) -> ThinCategory:
    """One object per degree class, one morphism per comparable pair."""
    labels = [poset.class_label(c) for c in range(len(poset.classes))]
    morphisms = []
    identities = {}
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            if poset.class_below(a, b):
                mname = f"m{a}.{b}"
                morphisms.append(Morphism(mname, la, lb))
                if a == b:
                    identities[la] = mname
    table = {}
    index = {(m.src, m.dst): m.name for m in morphisms}
    for f in morphisms:
        for g in morphisms:
            if f.dst == g.src:
                table[(g.name, f.name)] = index[(f.src, g.dst)]
    return ThinCategory(
        name or f"poset({poset.relation})",
        tuple(labels),
        tuple(morphisms),
        identities,
        table,
    )


def _least_upper(cat: ThinCategory, a: str, b: str, below) -> str | None:
    """The least object above both ``a`` and ``b`` in the order ``below``."""
    uppers = [o for o in cat.objects if below(a, o) and below(b, o)]
    for c in uppers:
        if all(below(c, other) for other in uppers):
            return c
    return None


def thin_coproduct(cat: ThinCategory, a: str, b: str) -> str | None:
    """Binary coproduct in a thin category: the least upper bound, if any."""
    return _least_upper(cat, a, b, cat.below)


def thin_pullback(cat: ThinCategory, a: str, b: str) -> str | None:
    """Meet of two objects: the least upper bound in the opposite order."""
    return _least_upper(cat, a, b, lambda x, y: cat.below(y, x))
