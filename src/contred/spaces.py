"""Finite topological spaces and the maps between them.

A finite space is stored as its specialization preorder: ``x below y``
means x lies in the closure of {y}.  Open sets are exactly the up-sets of
that preorder, closed sets the down-sets, and a map between finite spaces
is continuous iff it is monotone with respect to ``below``.  All
operations (closure, subspace, product, coproduct, composition, ...) are
phrased in terms of point indices: sets are bitmasks, a map is the vector
of its value indices, and product and coproduct points are found by
arithmetic on the factors' indices; a relation holds the bitmask of each
point's targets.  Point names are read and written only where maps and
relations are built from rows or shown as rows, and where products and
coproducts name their points, once, when first built.

Partiality stands in for subspaces: a partial map is a map whose domain
of definition carries the subspace structure, so restriction never has to
build a new space.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import groupby
from itertools import product as _iproduct

from . import kernel
from .errors import CapacityError, SpaceMismatchError

_OPENS_LIMIT = 20  # 2**n subsets get enumerated; refuse anything larger

CHOICE_CAP = 10_000  # ceiling on enumerated choice functions


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _once:
    """A value computed on first read and stored in the instance's
    ``__dict__``, where later reads find it without calling back here.
    Unlike ``functools.cached_property`` on Python 3.11 it takes no lock."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


def _kept(space: Space, key: tuple, build):
    """``build()``, worked out on the first call with ``key`` and kept in
    ``space``'s ``__dict__``, so that it dies with ``space``: what is
    derived from spaces is cached on the first of them, never globally."""
    kept = space.__dict__.get("_kept") or space.__dict__.setdefault("_kept", {})
    got = kept.get(key)
    if got is None:
        got = kept[key] = build()
    return got


class _Value:
    """Equality and hash by ``_key()``: identical objects are equal at once
    (cached constructions hand back shared objects), other objects only to
    one of the same type, and the hash is computed once."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._key())
        return h


@dataclass(frozen=True, eq=False)
class Space(_Value):
    """A finite topological space as a preorder on named points.

    ``up[i]`` is the bitmask of point indices j with point i below point j
    (i.e. i in cl{j}).  The relation must be reflexive and transitive;
    this is asserted on construction, so every Space in circulation is a
    genuine preorder.
    """

    name: str
    points: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"duplicate point in space {self.name!r}")
        n = len(self.points)
        if len(self.up) != n:
            raise ValueError(f"below-relation arity mismatch in {self.name!r}")
        full = (1 << n) - 1
        for i, m in enumerate(self.up):
            if m & ~full:
                raise ValueError(f"below-relation out of range in {self.name!r}")
            if not (m >> i) & 1:
                raise ValueError(f"below must be reflexive in {self.name!r}")
        for i in range(n):
            m = self.up[i]
            acc = m
            for j in _bits(m):
                acc |= self.up[j]
            if acc != m:
                raise ValueError(f"below must be transitive in {self.name!r}")

    def _key(self) -> tuple:
        return (self.name, self.points, self.up)

    def __repr__(self) -> str:
        return f"Space({self.name!r}, {len(self.points)} points)"

    @_once
    def n(self) -> int:
        return len(self.points)

    @_once
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @_once
    def down(self) -> tuple[int, ...]:
        """Transpose of ``up``: down[j] = bitmask of i with i below j."""
        down = [0] * self.n
        for i, m in enumerate(self.up):
            for j in _bits(m):
                down[j] |= 1 << i
        return tuple(down)

    @_once
    def pairs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The comparable pairs as two parallel index tuples ``(lo, hi)``:
        point lo[k] is below point hi[k], and lo[k] != hi[k].  Every
        monotonicity test, the constraint of every search and the
        serializer read these pairs."""
        lo: list[int] = []
        hi: list[int] = []
        for i, m in enumerate(self.up):
            for j in _bits(m & ~(1 << i)):
                lo.append(i)
                hi.append(j)
        return tuple(lo), tuple(hi)

    @_once
    def by_name(self) -> tuple[int, ...]:
        """Point indices in the order of the points' names: the order the
        corpus writes a map's rows in."""
        return tuple(sorted(range(self.n), key=self.points.__getitem__))

    @_once
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @_once
    def opens(self) -> tuple[int, ...]:
        """All open sets as bitmasks, ascending.  Exponential: small spaces only."""
        if self.n > _OPENS_LIMIT:
            raise CapacityError(
                f"refusing to enumerate 2**{self.n} subsets of {self.name!r}"
            )
        out = []
        for s in range(1 << self.n):
            if self._is_open_mask(s):
                out.append(s)
        return tuple(out)

    @_once
    def opens_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    # -- point/set level helpers ------------------------------------------

    def point_index(self, x: str) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise ValueError(f"undeclared point {x!r} in space {self.name!r}") from None

    def mask_of(self, subset: Iterable[str]) -> int:
        m = 0
        for x in subset:
            m |= 1 << self.point_index(x)
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.points[i] for i in _bits(mask))

    def below(self, x: str, y: str) -> bool:
        """True iff x lies in the closure of {y}."""
        return bool((self.up[self.point_index(x)] >> self.point_index(y)) & 1)

    def closure(self, subset: Iterable[str]) -> frozenset[str]:
        """Least closed superset: the down-closure of the subset."""
        m = 0
        for x in subset:
            m |= self.down[self.point_index(x)]
        return self.set_of(m)

    def _is_open_mask(self, m: int) -> bool:
        for i in _bits(m):
            if self.up[i] & ~m:
                return False
        return True

    def is_open(self, subset: Iterable[str]) -> bool:
        return self._is_open_mask(self.mask_of(subset))

    def is_closed(self, subset: Iterable[str]) -> bool:
        """Closed sets are the complements of open sets."""
        return self._is_open_mask(self.full_mask & ~self.mask_of(subset))


def build_space(
    name: str,
    points: Sequence[str],
    below: Iterable[tuple[str, str]] = (),
) -> Space:
    """Construct a space from generating below-pairs.

    The pairs are closed off reflexively and transitively, so callers may
    hand in any generating relation (including cycles, which yield
    non-T0 spaces).
    """
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValueError(f"duplicate point in space {name!r}")
    index = {p: i for i, p in enumerate(pts)}
    up = [1 << i for i in range(len(pts))]
    for x, y in below:
        if x not in index:
            raise ValueError(f"undeclared point {x!r} in below of {name!r}")
        if y not in index:
            raise ValueError(f"undeclared point {y!r} in below of {name!r}")
        up[index[x]] |= 1 << index[y]
    changed = True
    while changed:
        changed = False
        for i in range(len(pts)):
            acc = up[i]
            for j in _bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return Space(name, pts, tuple(up))


# -- stock spaces ---------------------------------------------------------


def discrete(n: int, name: str | None = None) -> Space:
    """n isolated points "0".."n-1": only comparabilities are reflexive."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pts = tuple(str(i) for i in range(n))
    return Space(name or f"discrete{n}", pts, tuple(1 << i for i in range(n)))


def indiscrete(n: int, name: str | None = None) -> Space:
    """n points "0".."n-1" with the full below-relation: opens are only {} and X."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pts = tuple(str(i) for i in range(n))
    full = (1 << n) - 1
    return Space(name or f"indiscrete{n}", pts, tuple(full for _ in range(n)))


def sierpinski(name: str = "sierpinski") -> Space:
    """Two points with s0 below s1; {s1} is open, {s0} is closed."""
    return build_space(name, ("s0", "s1"), (("s0", "s1"),))


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def chain(n: int, name: str | None = None) -> Space:
    """A linear order a < b < c < ...; letters for n <= 26, c0,c1,... beyond."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= len(_LETTERS):
        pts = tuple(_LETTERS[:n])
    else:
        pts = tuple(f"c{i}" for i in range(n))
    up = tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n))
    return Space(name or f"chain{n}", pts, up)


# -- maps -----------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class PartialMap(_Value):
    """A partial map between finite spaces.

    ``vec`` is the map's data: the value index per domain point index, -1
    where the map is undefined.  ``table`` ((point, value) rows in domain
    order), ``mapping`` and ``defined_on`` are the named views name-level
    callers read; they are derived on first use.
    The constructor takes rows; derived maps are built from vectors.
    Continuity is not required: these are arbitrary set-level maps whose
    continuity is a property checked by :func:`is_continuous`.
    """

    name: str
    dom: Space
    cod: Space
    vec: tuple[int, ...]

    def __init__(
        self, name: str, dom: Space, cod: Space, table: Iterable[tuple[str, str]]
    ) -> None:
        vec = _rows_vec(name, dom, cod, table)
        self.__dict__.update(name=name, dom=dom, cod=cod, vec=vec)

    def _key(self) -> tuple:
        return (self.name, self.dom, self.cod, self.vec)

    def __repr__(self) -> str:
        marker = "" if self.is_total else " partial"
        return f"PartialMap({self.name!r}: {self.dom.name} -> {self.cod.name}{marker})"

    @_once
    def table(self) -> tuple[tuple[str, str], ...]:
        pts, vals = self.dom.points, self.cod.points
        return tuple((pts[i], vals[v]) for i, v in enumerate(self.vec) if v >= 0)

    @_once
    def mapping(self) -> dict[str, str]:
        return dict(self.table)

    @_once
    def def_mask(self) -> int:
        m = 0
        for i, v in enumerate(self.vec):
            if v >= 0:
                m |= 1 << i
        return m

    @_once
    def conflicts(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """See :func:`conflict_structure`."""
        s = (self.def_mask, tuple(_breaks(self.vec, self.dom, self.cod)))
        seen = _kept(self.dom, ("structures",), dict)
        return seen.setdefault(s, s) if len(seen) < kernel.RECORDS_LIMIT else seen.get(s, s)

    @_once
    def defined_on(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.table)

    @_once
    def is_total(self) -> bool:
        return -1 not in self.vec

    def defined_at(self, x: str) -> bool:
        return self.vec[self.dom.point_index(x)] >= 0

    def __call__(self, x: str) -> str:
        v = self.vec[self.dom.point_index(x)]
        if v < 0:
            raise ValueError(f"map {self.name!r} undefined at {x!r}")
        return self.cod.points[v]


def _rows_vec(
    name: str, dom: Space, cod: Space, table: Iterable[tuple[str, str]]
) -> tuple[int, ...]:
    """The value vector of (point, value) rows, each point at most once."""
    dindex, cindex = dom.index, cod.index
    vec = [-1] * dom.n
    for x, y in table:
        i = dindex.get(x)
        j = cindex.get(y)
        if i is None or j is None:
            dom.point_index(x)  # raises for an unknown point,
            cod.point_index(y)  # else for an unknown value
        if vec[i] >= 0:
            raise ValueError(f"duplicate row for {x!r} in map {name!r}")
        vec[i] = j
    return tuple(vec)


def _vec_map(name: str, dom: Space, cod: Space, vec: Iterable[int]) -> PartialMap:
    """The map with value vector ``vec`` (-1: undefined).  Every derived map
    is built here, on indices."""
    m = object.__new__(PartialMap)
    m.__dict__.update(name=name, dom=dom, cod=cod, vec=tuple(vec))
    return m


def partial_map(
    name: str,
    dom: Space,
    cod: Space,
    mapping: Mapping[str, str] | Iterable[tuple[str, str]],
) -> PartialMap:
    return make_map(name, dom, cod, mapping)


def total_map(
    name: str,
    dom: Space,
    cod: Space,
    mapping: Mapping[str, str] | Iterable[tuple[str, str]],
) -> PartialMap:
    """Build a map that must be defined at every point of ``dom``."""
    m = make_map(name, dom, cod, mapping)
    if not m.is_total:
        missing = sorted(dom.points[i] for i, v in enumerate(m.vec) if v < 0)
        raise ValueError(
            f"map {name!r} is not total (missing {', '.join(missing)})"
        )
    return m


def make_map(
    name: str,
    dom: Space,
    cod: Space,
    mapping: Mapping[str, str] | Iterable[tuple[str, str]],
) -> PartialMap:
    """Build the map with the given rows, a Mapping or (point, value) pairs;
    a point given two rows is an error.  ``is_total`` says whether the rows
    cover the domain."""
    rows = mapping.items() if isinstance(mapping, Mapping) else mapping
    return _vec_map(name, dom, cod, _rows_vec(name, dom, cod, rows))


def identity_map(space: Space, name: str | None = None) -> PartialMap:
    return _vec_map(name or f"id_{space.name}", space, space, range(space.n))


def constant_map(dom: Space, cod: Space, value: str, name: str | None = None) -> PartialMap:
    j = cod.point_index(value)
    return _vec_map(name or f"const_{value}", dom, cod, [j] * dom.n)


def empty_map(dom: Space, cod: Space, name: str | None = None) -> PartialMap:
    """The nowhere-defined map between two spaces."""
    return _vec_map(name or f"empty_{dom.name}_{cod.name}", dom, cod, [-1] * dom.n)


# -- continuity -----------------------------------------------------------


def _breaks(vec, dom: Space, cod: Space) -> list[tuple[int, int]]:
    """The comparable pairs (i, j), point i below point j, in
    :attr:`Space.pairs` order, where the value vector ``vec`` of a map
    dom -> cod is defined at both and vec[j] is not above vec[i].

    Continuity on finite spaces is monotonicity, so the map is continuous
    exactly when this is empty, and continuous at i exactly when no pair
    starts at i.  It and the loop that replays a witness between two maps
    in ``reducibility.verify_witness2`` are the two places that compare
    values along an order.
    """
    upc = cod.up
    return [
        (i, j)
        for i, j in zip(*dom.pairs)
        if vec[i] >= 0 <= vec[j] and not (upc[vec[i]] >> vec[j]) & 1
    ]


def conflict_structure(p: PartialMap) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The conflict structure of ``p`` on its domain's order: ``(def_mask,
    pairs)``, its defined points and its conflict pairs, the comparable
    pairs whose values fail to compare, as :func:`_breaks` lists them.

    It is ``p.conflicts``, worked out on first use and kept on ``p``.
    Equal structures of maps on one domain are one object, kept in a table
    on the domain (up to ``kernel.RECORDS_LIMIT``; past it, not shared).
    It is all that the fast ``le2`` search reads of a map besides its
    domain, so that search keys its records by it; the conflict graph and
    the level rounds of :mod:`contred.invariants` read it too.
    """
    return p.conflicts


def is_continuous_at(f: PartialMap, x: str) -> bool:
    """Continuity at a point of definition: values may only go up.

    With minimal open neighbourhoods available, f is continuous at x iff
    f(y) lies above f(x) for every defined y above x.
    """
    i = f.dom.point_index(x)
    if f.vec[i] < 0:
        raise ValueError(f"map {f.name!r} undefined at {x!r}")
    return all(lo != i for lo, _ in conflict_structure(f)[1])


def is_continuous(f: PartialMap) -> bool:
    """Monotone on the domain of definition == continuous on the subspace."""
    return not conflict_structure(f)[1]


# -- products and coproducts ---------------------------------------------


_ESCAPE = str.maketrans({c: "\\" + c for c in "\\,()."})


def _tuple_names(parts: Sequence[Sequence[str]], spell) -> tuple[str, ...]:
    """``spell`` of each tuple of component names; when two tuples would
    share a name, every component is escaped first, which is injective."""
    names = tuple(spell(p) for p in parts)
    if len(set(names)) < len(names):
        names = tuple(spell([c.translate(_ESCAPE) for c in p]) for p in parts)
    return names


@dataclass(frozen=True)
class ProductResult:
    space: Space
    projections: tuple[PartialMap, ...]

    @_once
    def origin(self) -> dict[str, tuple[str, ...]]:
        """Point name -> the names of its coordinates."""
        return {
            pt: tuple(pr.cod.points[pr.vec[a]] for pr in self.projections)
            for a, pt in enumerate(self.space.points)
        }


@dataclass(frozen=True)
class CoproductResult:
    space: Space
    injections: tuple[PartialMap, ...]
    tags: tuple[str, ...]

    @_once
    def origin(self) -> dict[str, tuple[str, str]]:
        """Point name -> (tag, point of the summand)."""
        pts = self.space.points
        return {
            pts[v]: (tag, inj.dom.points[i])
            for tag, inj in zip(self.tags, self.injections)
            for i, v in enumerate(inj.vec)
        }


def product(spaces: Sequence[Space]) -> ProductResult:
    """Topological product with componentwise below; empty products are rejected.

    The point with coordinates (i_1, ..., i_k) sits at index
    (...(i_1 * n_2 + i_2) * n_3 + ...) * n_k + i_k, the first factor
    varying slowest; for two factors, (i, j) is at i * n_2 + j.  Points are
    named "(x,y)", or from escaped coordinate names ("(a\\,b,c)") when
    that spelling would give two points one name.  Kept on the first factor.
    """
    spaces = tuple(spaces)
    if not spaces:
        raise ValueError("empty product has no canonical point set; refusing")

    def build() -> ProductResult:
        name = "prod(" + ",".join(s.name for s in spaces) + ")"
        combos = list(_iproduct(*(range(s.n) for s in spaces)))
        pts = _tuple_names(
            [[s.points[i] for s, i in zip(spaces, c)] for c in combos],
            lambda parts: "(" + ",".join(parts) + ")",
        )
        # add one factor at a time: (a, i) is below (a', i') exactly when a
        # is below a' and i below i', and (a', i') sits at index a' * n + i'
        up = [1]
        for s in spaces:
            up = [sum(u << (a * s.n) for a in _bits(m)) for m in up for u in s.up]
        space = Space(name, pts, tuple(up))
        projections = tuple(
            _vec_map(f"pr{t}_{name}", space, s, [c[t] for c in combos])
            for t, s in enumerate(spaces)
        )
        return ProductResult(space, projections)

    return _kept(spaces[0], ("product", spaces[1:]), build)


def product_space(a: Space, b: Space) -> Space:
    """Binary product space only; the common case in witness plumbing."""
    return product((a, b)).space


def coproduct(
    spaces: Sequence[Space], tags: Sequence[str] | None = None
) -> CoproductResult:
    """Disjoint union; points are tagged "tag.point".  Empty family allowed.

    The summands' points follow one another in family order, so summand k
    starts at the total size of the summands before it.  As for products,
    names are escaped when "tag.point" would give two points one name.
    Kept on the first summand; the empty coproduct is built anew.
    """
    spaces = tuple(spaces)
    if tags is None:
        tags = tuple(str(i) for i in range(len(spaces)))
    else:
        tags = tuple(tags)
    if len(tags) != len(spaces):
        raise ValueError("one tag per space required")
    if len(set(tags)) != len(tags):
        raise ValueError("coproduct tags must be unique")

    def build() -> CoproductResult:
        name = "coprod(" + ",".join(f"{t}.{s.name}" for t, s in zip(tags, spaces)) + ")"
        pts = _tuple_names(
            [(tag, p) for tag, s in zip(tags, spaces) for p in s.points],
            lambda parts: f"{parts[0]}.{parts[1]}",
        )
        up: list[int] = []
        blocks = []
        for s in spaces:
            off = len(up)
            blocks.append(range(off, off + s.n))
            up.extend(m << off for m in s.up)
        space = Space(name, pts, tuple(up))
        injections = tuple(
            _vec_map(f"in{tag}_{name}", s, space, block)
            for tag, s, block in zip(tags, spaces, blocks)
        )
        return CoproductResult(space, injections, tags)

    return _kept(spaces[0], ("coproduct", spaces[1:], tags), build) if spaces else build()


def subspace(space: Space, subset: Iterable[str], name: str | None = None) -> Space:
    """The induced preorder on a subset of points (order inherited)."""
    return _subspace(space, space.mask_of(subset), name)


def _subspace(space: Space, m: int, name: str | None) -> Space:
    """:func:`subspace` on the points of the bitmask ``m``."""
    keep = list(_bits(m))
    pos = {i: k for k, i in enumerate(keep)}
    pts = tuple(space.points[i] for i in keep)
    up = []
    for i in keep:
        acc = 0
        for j in _bits(space.up[i] & m):
            acc |= 1 << pos[j]
        up.append(acc)
    return Space(name or f"{space.name}[{'+'.join(pts)}]", pts, tuple(up))


# -- map combinators ------------------------------------------------------


def compose(g: PartialMap, f: PartialMap, name: str | None = None) -> PartialMap:
    """g after f, defined where both stages are."""
    if f.cod != g.dom:
        raise SpaceMismatchError(
            f"cannot compose {g.name!r} after {f.name!r}: "
            f"{f.cod.name} != {g.dom.name}"
        )
    gv = g.vec
    vec = [gv[y] if y >= 0 else -1 for y in f.vec]
    return _vec_map(name or f"({g.name}.{f.name})", f.dom, g.cod, vec)


def delta(space: Space, name: str | None = None) -> PartialMap:
    """The diagonal x -> (x,x) into the binary self-product."""
    n = space.n
    prod = product_space(space, space)
    return _vec_map(name or f"delta_{space.name}", space, prod, [i * n + i for i in range(n)])


def pi_pair(f: PartialMap, g: PartialMap, name: str | None = None) -> PartialMap:
    """Componentwise pairing (x,y) -> (f x, g y) on the product spaces."""
    dom = product_space(f.dom, g.dom)
    cod = product_space(f.cod, g.cod)
    m = g.cod.n
    vec = [a * m + b if a >= 0 and b >= 0 else -1 for a in f.vec for b in g.vec]
    return _vec_map(name or f"({f.name}pi{g.name})", dom, cod, vec)


def pi_power(f: PartialMap, n: int, name: str | None = None) -> PartialMap:
    """n-fold componentwise power of a map on the flat n-ary product."""
    if n < 1:
        raise ValueError("power must be at least 1")
    if n == 1:
        return f
    dom = product([f.dom] * n).space
    cod = product([f.cod] * n).space
    m = f.cod.n
    vec = []
    for combo in _iproduct(f.vec, repeat=n):
        v = 0
        for c in combo:
            v = v * m + c if c >= 0 and v >= 0 else -1
        vec.append(v)
    return _vec_map(name or f"{f.name}^{n}", dom, cod, vec)


def restrict(f: PartialMap, subset: Iterable[str], name: str | None = None) -> PartialMap:
    """Narrow the domain of definition; the domain space is unchanged."""
    return _restrict_mask(f, f.dom.mask_of(subset), name or f"{f.name}|")


def _restrict_mask(f: PartialMap, mask: int, name: str) -> PartialMap:
    vec = [v if (mask >> i) & 1 else -1 for i, v in enumerate(f.vec)]
    return _vec_map(name, f.dom, f.cod, vec)


def map_equal(f: PartialMap, g: PartialMap) -> bool:
    """Same defined_on, pointwise equal values; names are ignored."""
    if f.dom != g.dom or f.cod != g.cod:
        raise SpaceMismatchError(
            f"map_equal needs matching spaces: {f.name!r} vs {g.name!r}"
        )
    return f.vec == g.vec


# -- problems and relations ----------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem(_Value):
    """A finite set of partial maps sharing domain and codomain spaces.

    The spaces are carried explicitly so that the empty problem at a given
    type is representable.  Members are kept deduplicated (semantically,
    by table) and sorted by (name, table) for deterministic iteration.
    """

    name: str
    dom: Space
    cod: Space
    members: tuple[PartialMap, ...]

    def __post_init__(self) -> None:
        for m in self.members:
            if m.dom != self.dom or m.cod != self.cod:
                raise SpaceMismatchError(
                    f"member {m.name!r} of problem {self.name!r} has mismatched spaces"
                )

    def _key(self) -> tuple:
        return (self.name, self.dom, self.cod, self.members)

    def __repr__(self) -> str:
        return f"Problem({self.name!r}, {len(self.members)} members)"

    @_once
    def member_vecs(self) -> frozenset[tuple[int, ...]]:
        return frozenset(m.vec for m in self.members)

    def contains(self, f: PartialMap) -> bool:
        if f.dom != self.dom or f.cod != self.cod:
            raise SpaceMismatchError(
                f"membership test with mismatched spaces in {self.name!r}"
            )
        return f.vec in self.member_vecs


def problem(
    name: str, dom: Space, cod: Space, members: Iterable[PartialMap] = ()
) -> Problem:
    uniq: dict[tuple[int, ...], PartialMap] = {}
    for m in members:
        if m.dom != dom or m.cod != cod:
            raise SpaceMismatchError(
                f"member {m.name!r} of problem {name!r} has mismatched spaces"
            )
        uniq.setdefault(m.vec, m)
    # by name, then by table among equal names only, so that no other
    # member builds its table
    ordered: list[PartialMap] = []
    for _, same in groupby(sorted(uniq.values(), key=lambda m: m.name), lambda m: m.name):
        same = list(same)
        ordered += sorted(same, key=lambda m: m.table) if len(same) > 1 else same
    return Problem(name, dom, cod, tuple(ordered))


def singleton_problem(f: PartialMap, name: str | None = None) -> Problem:
    return problem(name or f"{{{f.name}}}", f.dom, f.cod, (f,))


@dataclass(frozen=True, eq=False)
class Relation(_Value):
    """A finite relation between the points of two spaces: ``rows[i]`` is
    the bitmask of the targets of domain point i.  ``pairs`` and ``targets``
    are its named views, derived on first use; :func:`relation` builds it
    from name pairs."""

    name: str
    dom: Space
    cod: Space
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.dom.n or any(r >> self.cod.n for r in self.rows):
            raise ValueError(f"rows out of range in relation {self.name!r}")

    def _key(self) -> tuple:
        return (self.name, self.dom, self.cod, self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {sum(map(int.bit_count, self.rows))} pairs)"

    @_once
    def pairs(self) -> tuple[tuple[str, str], ...]:
        pts, vals = self.dom.points, self.cod.points
        return tuple((pts[i], vals[j]) for i, r in enumerate(self.rows) for j in _bits(r))

    @_once
    def targets(self) -> dict[str, tuple[str, ...]]:
        pts, vals = self.dom.points, self.cod.points
        return {
            pts[i]: tuple(vals[j] for j in _bits(r)) for i, r in enumerate(self.rows) if r
        }


def relation(
    name: str, dom: Space, cod: Space, pairs: Iterable[tuple[str, str]]
) -> Relation:
    rows = [0] * dom.n
    for x, y in pairs:
        rows[dom.point_index(x)] |= 1 << cod.point_index(y)
    return Relation(name, dom, cod, tuple(rows))


def choice_functions(rel: Relation, name: str | None = None) -> Problem:
    """The problem of all pointwise selections from a relation.

    Selections are defined exactly on the points with at least one target;
    a relation with no pairs yields the problem whose one member is the
    nowhere-defined map.  The member count multiplies quickly, so it is
    checked against ``CHOICE_CAP`` before anything is materialized.
    """
    # a point without targets has the one choice -1, undefined
    choices = [tuple(_bits(r)) or (-1,) for r in rel.rows]
    if math.prod(map(len, choices)) > CHOICE_CAP:
        raise CapacityError(
            f"relation {rel.name!r} has more than {CHOICE_CAP} choice functions"
        )
    base = name or f"cf({rel.name})"
    members = [
        _vec_map(f"{base}.c{k}", rel.dom, rel.cod, vec)
        for k, vec in enumerate(_iproduct(*choices))
    ]
    return problem(base, rel.dom, rel.cod, members)
