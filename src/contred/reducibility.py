"""Decision procedures for continuous reducibilities between maps.

Two notions are decided here, both parameterized by continuous reducing
maps and both returning explicit witnesses:

* ``le0`` (composition reducibility): f reduces to g when f = g . G for
  some continuous G between the domains; f and g must share a codomain.
* ``le2`` (one-query reducibility): f reduces to g when
  f = F . (id pi (g . G)) . delta for a continuous translation G and a
  continuous partial postprocessor F that may consult the original input
  alongside g's answer.

Problems (sets of partial maps) are compared uniformly: one (G, F) pair
must work for every member of the right-hand problem, sending it into the
left-hand problem.

Every returned witness is replayed against the defining equation before
it leaves this module, so a successful decision can be trusted without
re-deriving it.  :func:`compose_witness0` and :func:`compose_witness2`
are the exceptions: they get no items to replay against, so their caller
replays.  A decision ends with the index vectors of G (and F) and the
replay reads those vectors; the witness builds its maps only when a
caller first reads them.  Searches count candidate extensions against a
budget and raise :class:`CapacityError` when it runs out — exhaustion is
never reported as "no".

The fast searches and the enumeration of continuous maps run on the
backtracking kernel of :mod:`contred.kernel`; the definitional oracle
engine stays apart from it as an independent reference.  Each
enumeration is kept on its domain space and dies with it.  The answers
of the fast le2 search (on the left domain, keyed by the conflict
structures of its two maps, all it reads of them) and of :func:`decide`
(on its left item) are kept by :func:`contred.kernel._recorded`; a yes
from a kept answer is still replayed in full.  :func:`decide` answers a
pair of maps no without a search when their levels (see
:mod:`contred.invariants`) already rule the reduction out.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import product as _iproduct
from math import inf

from .errors import CapacityError, InvalidWitnessError, SpaceMismatchError
from .invariants import _refuted
from .kernel import DEFAULT_BUDGET, Budget, _monotone, _recorded, _search
from .spaces import (
    PartialMap,
    Problem,
    Space,
    _breaks,
    _kept,
    _once,
    _Value,
    _vec_map,
    compose,
    delta,
    identity_map,
    pi_pair,
    pi_power,
    product,
    product_space,
)


def _as_budget(budget: int | Budget | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(DEFAULT_BUDGET if budget is None else budget)


class _Witness(_Value):
    """Immutable, and equal and hashed by its maps.  A decider's witness
    holds only the index vectors, the spaces they live on and the two
    sides' ``names``, and builds each map on first read."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return type(self).__name__ + repr(self._key())

    @classmethod
    def _on(cls, lhs, rhs, spaces, gvec, fvec=None):
        """The witness of index vectors ``gvec`` (and ``fvec``) on ``spaces``."""
        w = object.__new__(cls)
        d = w.__dict__
        d["spaces"], d["names"], d["gvec"] = spaces, (lhs.name, rhs.name), gvec
        if fvec is not None:
            d["fvec"] = fvec
        return w

    @_once
    def translation(self) -> PartialMap:
        return _vec_map("G[%s,%s]" % self.names, *self.spaces[:2], self.gvec)


class Witness0(_Witness):
    """Evidence for a composition reduction: the translating map G, with
    value vector ``gvec`` and ``spaces`` (X1, X2), its domain and codomain."""

    def __init__(self, translation: PartialMap) -> None:
        g = translation
        self.__dict__.update(translation=g, gvec=g.vec, spaces=(g.dom, g.cod))

    def _key(self) -> tuple:
        return (self.translation,)


class Witness2(_Witness):
    """Evidence for a one-query reduction.

    ``translation`` feeds the left input to the right-hand map;
    ``postprocess`` turns (input, answer) pairs into the left output.
    ``gvec`` and ``fvec`` are their value vectors.  A decider's witness
    for p: X1 -> Y1 below q: X2 -> Y2 has ``spaces`` (X1, X2, Y2, Y1), and
    F's point (x, y) at index x * |Y2| + y as in :func:`product`; one built
    from maps has ``spaces`` None.
    """

    def __init__(self, translation: PartialMap, postprocess: PartialMap) -> None:
        self.__dict__.update(translation=translation, postprocess=postprocess,
                             gvec=translation.vec, fvec=postprocess.vec, spaces=None)

    @_once
    def postprocess(self) -> PartialMap:
        X1, _, Y2, Y1 = self.spaces
        return _vec_map("F[%s,%s]" % self.names, product_space(X1, Y2), Y1, self.fvec)

    def _key(self) -> tuple:
        return (self.translation, self.postprocess)


@dataclass(frozen=True)
class CtResult:
    """Outcome of a bounded parallel-copies comparison.

    ``copies`` is the least number of parallel copies that sufficed, or
    None when no count up to ``cap`` worked.
    """

    copies: int | None
    witness: Witness2 | None
    cap: int

    @property
    def yes(self) -> bool:
        return self.copies is not None


@dataclass(frozen=True)
class CompareResult:
    verdict: str  # equivalent | left-below | right-below | incomparable
    forward: object | None
    backward: object | None


def _replayed(
    lhs, rhs, w: Witness0 | Witness2, message: str | None = None
) -> Witness0 | Witness2:
    """``w``, once it replays ``lhs`` below ``rhs``; InvalidWitnessError
    with ``message`` (or a default naming the relation) if not."""
    verify = verify_witness2 if isinstance(w, Witness2) else verify_witness0
    if not verify(lhs, rhs, w):
        kind = "le2" if isinstance(w, Witness2) else "le0"
        raise InvalidWitnessError(message or f"{kind} witness failed to replay")
    return w


def _yes(lhs, rhs, gvec, fvec=None) -> Witness0 | Witness2:
    """The replayed witness of G's index vector and, for le2, F's."""
    if fvec is None:
        w = Witness0._on(lhs, rhs, (lhs.dom, rhs.dom), tuple(gvec))
    else:
        spaces = (lhs.dom, rhs.dom, rhs.cod, lhs.cod)
        w = Witness2._on(lhs, rhs, spaces, tuple(gvec), tuple(fvec))
    return _replayed(lhs, rhs, w)


# -- continuous maps by search -------------------------------------------

ENUMERATION_CAP = 200_000  # ceiling on the candidate partial maps enumerated


def _continuous_maps(
    tag: str, dom: Space, cod: Space, options: list[int]
) -> tuple[PartialMap, ...]:
    """The maps dom -> cod that are continuous on their domain of
    definition, lexicographic in ``options`` order, the k-th named
    ``tag[dom>cod]k``."""
    out: list[PartialMap] = []

    def collect(vec: list[int]) -> bool:
        out.append(_vec_map(f"{tag}[{dom.name}>{cod.name}]{len(out)}", dom, cod, vec))
        return False

    options = [options] * dom.n
    _search(dom.n, dom.pairs, range(dom.n), options, _monotone(cod), Budget(inf), collect)
    return tuple(out)


def enumerate_continuous_total(dom: Space, cod: Space) -> tuple[PartialMap, ...]:
    """All continuous total maps dom -> cod, in lexicographic value order."""
    return _kept(dom, ("c", cod), lambda: _continuous_maps("c", dom, cod, [*range(cod.n)]))


def enumerate_continuous_partial(dom: Space, cod: Space) -> tuple[PartialMap, ...]:
    """All partial maps dom -> cod continuous on their domain of
    definition, lexicographic, undefined slots ordered first.  Their
    candidates are counted against ``ENUMERATION_CAP`` before any is tried."""
    count = (cod.n + 1) ** dom.n
    if count > ENUMERATION_CAP:
        raise CapacityError(f"{count} partial maps exceed the cap of {ENUMERATION_CAP}")
    options = [-1, *range(cod.n)]
    return _kept(dom, ("p", cod), lambda: _continuous_maps("p", dom, cod, options))


# -- le0 ------------------------------------------------------------------


def le0_map(
    p: PartialMap, q: PartialMap, budget: int | Budget | None = None
) -> Witness0 | None:
    """Composition reducibility between single partial maps.

    This is the singleton-problem reading: a continuous partial G with
    q . G = p exactly (domains of definition included).
    """
    if p.cod != q.cod:
        raise SpaceMismatchError(
            f"le0 needs a common codomain: {p.name!r} vs {q.name!r}"
        )
    b = _as_budget(budget)
    pv, qv = p.vec, q.vec
    order = [i for i in range(p.dom.n) if pv[i] >= 0]
    options = [[j for j in range(q.dom.n) if qv[j] == pv[i]] for i in order]
    if not all(options):
        return None
    gvec = _search(p.dom.n, p.dom.pairs, order, options, _monotone(q.dom), b)
    return None if gvec is None else _yes(p, q, gvec)


def le0_fn(
    f: PartialMap, g: PartialMap, budget: int | Budget | None = None
) -> Witness0 | None:
    """Composition reducibility between total maps (functions)."""
    if not f.is_total or not g.is_total:
        raise ValueError("le0_fn expects total maps")
    return le0_map(f, g, budget)


def le0_problem(
    P: Problem, Q: Problem, budget: int | Budget | None = None
) -> Witness0 | None:
    """One continuous partial G with g . G in P for every g in Q."""
    if P.cod != Q.cod:
        raise SpaceMismatchError(
            f"le0 needs a common codomain: {P.name!r} vs {Q.name!r}"
        )
    b = _as_budget(budget)
    X1, X2 = P.dom, Q.dom
    if not Q.members:
        return _yes(P, Q, [-1] * X1.n)
    qvecs = [m.vec for m in Q.members]
    member_vecs = P.member_vecs

    def leaf(g: list[int]) -> bool:
        return all(
            tuple(qv[j] if j >= 0 else -1 for j in g) in member_vecs for qv in qvecs
        )

    options = [[-1, *range(X2.n)]] * X1.n
    gvec = _search(X1.n, X1.pairs, range(X1.n), options, _monotone(X2), b, leaf)
    return None if gvec is None else _yes(P, Q, gvec)


# -- le2: fast engine -----------------------------------------------------


def _le2_fast_search(p: PartialMap, q: PartialMap, budget: Budget) -> tuple[int, ...] | None:
    """Search a continuous G on def(p) passing the forced-postprocessor test.

    The postprocessor is determined on reachable pairs by the defining
    equation, and its continuity there is equivalent to the pairwise
    condition checked during assignment: whenever x <= x' and the queried
    answers satisfy q(G x) <= q(G x'), the targets must satisfy
    p(x) <= p(x').  So a pair of points that is no conflict pair of ``p``
    reads the plain tables of a monotone G, and a conflict pair reads
    tables that allow only conflict pairs of ``q``.

    The search therefore reads nothing of ``p`` and ``q`` but their
    domains and their :func:`conflict_structure`.  Its answer, G's index
    vector (None: no G), is kept by :func:`contred.kernel._recorded`,
    keyed by the pair of (shared) structures in a dict kept on ``p``'s
    domain for ``q``'s, so that it dies with the space.
    """
    key = (p.conflicts, q.conflicts)
    records = _kept(p.dom, ("le2", q.dom), dict)
    return _recorded(records, key, budget, _le2_walk, p.dom, q.dom, key, budget)


def _le2_walk(X1: Space, X2: Space, key, budget: Budget) -> tuple[int, ...] | None:
    """:func:`_le2_fast_search` without its records: one kernel walk for
    the pair of conflict structures ``key`` on X1 and X2."""
    (def_p, pairs_p), (def_q, pairs_q) = key
    n2, up, down = X2.n, X2.up, X2.down
    # above[a]: the b with (a, b) a conflict pair of q; below[b]: the a
    above, below = [0] * n2, [0] * n2
    for a, b in pairs_q:
        above[a] |= 1 << b
        below[b] |= 1 << a
    conflicts = set(pairs_p)

    def masks(i2: int, i: int, low: bool):
        if ((i2, i) if low else (i, i2)) not in conflicts:
            return up if low else down
        return above if low else below

    order = [i for i in range(X1.n) if (def_p >> i) & 1]
    cands = [j for j in range(n2) if (def_q >> j) & 1]
    gvec = _search(X1.n, X1.pairs, order, [cands] * len(order), masks, budget)
    return None if gvec is None else tuple(gvec)


def _forced(p: PartialMap, q: PartialMap, gvec: list[int] | None) -> Witness2 | None:
    """The replayed witness of G's vector (None: no witness) and the
    postprocessor the defining equation forces on the reached pairs:
    F(x, q(G x)) = p(x)."""
    if gvec is None:
        return None
    k, qv, t = q.cod.n, q.vec, 0
    fvec = [-1] * (p.dom.n * k)
    for j, v in zip(gvec, p.vec):
        if j >= 0:
            fvec[t + qv[j]] = v
        t += k
    return _yes(p, q, gvec, fvec)


def le2_map(
    p: PartialMap, q: PartialMap, budget: int | Budget | None = None
) -> Witness2 | None:
    """One-query reducibility between single partial maps.

    The translation G comes from :func:`_le2_fast_search`, which keeps
    its answer per pair of conflict structures (see
    :func:`contred.kernel._recorded`).  Every yes builds the
    postprocessor that G forces and replays the witness in full, kept or
    not; a kept G that fails to replay raises :class:`InvalidWitnessError`.
    """
    return _forced(p, q, _le2_fast_search(p, q, _as_budget(budget)))


# -- le2: oracle engine ---------------------------------------------------


def _open_continuous_totals(dom: Space, cod: Space) -> tuple[tuple[int, ...], ...]:
    """All total maps dom -> cod whose open preimages are open, lex order.

    Deliberately definitional: candidate tables are filtered by checking
    every open of the codomain, not by monotonicity.
    """
    opens_dom = dom.opens_set
    opens_cod = cod.opens
    out = []
    for vec in _iproduct(range(cod.n), repeat=dom.n):
        for u in opens_cod:
            pre = 0
            for i, v in enumerate(vec):
                if (u >> v) & 1:
                    pre |= 1 << i
            if pre not in opens_dom:
                break
        else:
            out.append(vec)
    return tuple(out)


def _le2_oracle_search(
    f: PartialMap, g: PartialMap, budget: Budget
) -> list[int] | None:
    """Enumerate definitionally continuous translations, checking the forced
    postprocessor's open preimages on the reachable subspace."""
    X1, Y1, Y2 = f.dom, f.cod, g.cod
    fv, gv = f.vec, g.vec
    up1 = X1.up
    upY2 = Y2.up
    opens1 = Y1.opens
    comparable = [
        (i, i2)
        for i in range(X1.n)
        for i2 in range(X1.n)
        if i != i2 and (up1[i] >> i2) & 1
    ]
    for gvec in _kept(X1, ("open", g.dom), lambda: _open_continuous_totals(X1, g.dom)):
        budget.spend()
        h = [gv[j] for j in gvec]
        pairs = [(i, i2) for i, i2 in comparable if (upY2[h[i]] >> h[i2]) & 1]
        ok = True
        for u in opens1:
            for i, i2 in pairs:
                if (u >> fv[i]) & 1 and not (u >> fv[i2]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return list(gvec)
    return None


_LE2_ENGINES = ("fast", "oracle")


def le2_fn(
    f: PartialMap,
    g: PartialMap,
    engine: str = "fast",
    budget: int | Budget | None = None,
) -> Witness2 | None:
    """One-query reducibility between total maps, by either engine.

    The fast engine backtracks over continuous translations with the
    forced-postprocessor condition checked pairwise; the oracle engine
    enumerates translations filtered by open preimages and checks the
    postprocessor definitionally.  Both replay their witness before
    returning.
    """
    if not f.is_total or not g.is_total:
        raise ValueError("le2_fn expects total maps; use le2_map for partial ones")
    if engine not in _LE2_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick one of {_LE2_ENGINES}")
    b = _as_budget(budget)
    search = _le2_fast_search if engine == "fast" else _le2_oracle_search
    return _forced(f, g, search(f, g, b))


# -- le2 for problems -----------------------------------------------------


def le2_problem(
    P: Problem, Q: Problem, budget: int | Budget | None = None
) -> Witness2 | None:
    """One (G, F) pair sending every member of Q into P.

    The composite for member g is defined at x only when G, g and F are
    all defined along the way; it must equal some member of P exactly.
    The postprocessor is searched over the pairs actually reachable from
    some member, which loses no generality.
    """
    b = _as_budget(budget)
    X1, Y1, X2, Y2 = P.dom, P.cod, Q.dom, Q.cod
    prod = product_space(X1, Y2)
    if not Q.members:
        return _yes(P, Q, [-1] * X1.n, [-1] * prod.n)
    qvecs = [m.vec for m in Q.members]
    member_vecs = P.member_vecs
    f_options = [-1, *range(Y1.n)]
    f_fits = _monotone(Y1)
    k = Y2.n
    fvec_full = [-1] * prod.n

    def g_leaf(g: list[int]) -> bool:
        # the postprocessor's points: the (x, answer) pairs some member
        # reaches, searched under the product order's pairs among them
        reach = sorted(
            {i * k + qv[j] for qv in qvecs for i, j in enumerate(g) if j >= 0 <= qv[j]}
        )

        def f_leaf(f: list[int]) -> bool:
            return all(
                tuple(f[i * k + qv[j]] if j >= 0 <= qv[j] else -1 for i, j in enumerate(g))
                in member_vecs
                for qv in qvecs
            )

        options = [f_options] * len(reach)
        fvec = _search(prod.n, prod.pairs, reach, options, f_fits, b, f_leaf)
        if fvec is None:
            return False
        fvec_full[:] = fvec
        return True

    options = [[-1, *range(X2.n)]] * X1.n
    gvec = _search(X1.n, X1.pairs, range(X1.n), options, _monotone(X2), b, g_leaf)
    return None if gvec is None else _yes(P, Q, gvec, fvec_full)


# -- bounded parallel copies ---------------------------------------------


def le_ct(
    f: PartialMap,
    g: PartialMap,
    cap: int = 3,
    budget: int | Budget | None = None,
) -> CtResult:
    """Least number of parallel copies of g (up to cap) that one query beats.

    Decides f <=2 g^n for n = 1, 2, ..., cap in turn; the budget is shared
    across all the attempts.
    """
    if not f.is_total or not g.is_total:
        raise ValueError("le_ct expects total maps")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    b = _as_budget(budget)
    for n in range(1, cap + 1):
        gn = pi_power(g, n)
        w = le2_map(f, gn, b)
        if w is not None:
            return CtResult(n, w, cap)
    return CtResult(None, None, cap)


# -- two-sided comparison -------------------------------------------------


def decide(
    a: PartialMap | Problem,
    b: PartialMap | Problem,
    relation: str = "le2",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> Witness0 | Witness2 | CtResult | None:
    """Decide whether ``a`` reduces to ``b`` under ``relation``.

    ``relation`` is ``le0`` (composition), ``le2`` (one query) or ``lect``
    (one query against at most ``cap`` parallel copies, total maps only).
    Two maps go to :func:`le0_map`, :func:`le2_map` or :func:`le_ct`; two
    problems go to :func:`le0_problem` or :func:`le2_problem`.  Returns the
    witness (for ``lect`` the :class:`CtResult`) when ``a`` reduces to
    ``b``, and None when it does not.

    Under ``le0`` and ``le2`` a pair of maps is first compared by its
    levels, once the arguments pass the decider's checks: when ``a``'s
    level 1 or level 2 exceeds ``b``'s the answer is no without a search.
    The levels take polynomial time and spend no node, and each map's are
    computed once and kept on the map.  ``lect`` and problems always
    search.

    Each answer is kept by :func:`contred.kernel._recorded` in ``a``'s
    ``__dict__``, keyed by ``(relation, cap, b)`` for ``lect`` and
    ``(relation, None, b)`` otherwise, and dies with ``a``; a repeated
    call returns the same object.  Under the default budget a repeat
    builds no :class:`Budget`.
    """
    records = a.__dict__.get("_decided") or a.__dict__.setdefault("_decided", {})
    key = (relation, cap if relation == "lect" else None, b)
    if budget is None:
        return _recorded(records, key, None, _decide, a, b, relation, cap)
    nodes = _as_budget(budget)
    return _recorded(records, key, nodes, _decide, a, b, relation, cap, nodes)


def _decide(a, b, relation: str, cap: int, nodes: Budget):
    """:func:`decide` without the kept answers."""
    if isinstance(a, Problem) != isinstance(b, Problem):
        raise SpaceMismatchError("cannot compare a map with a problem")
    if relation == "lect":
        if isinstance(a, Problem):
            raise ValueError("lect compares total maps only")
        res = le_ct(a, b, cap, nodes)
        return res if res.yes else None
    if relation not in ("le0", "le2"):
        raise ValueError(f"unknown relation {relation!r}")
    if isinstance(a, Problem):
        return (le0_problem if relation == "le0" else le2_problem)(a, b, nodes)
    # a le0 pair on different codomains is left to le0_map, which raises
    if (relation == "le2" or a.cod == b.cod) and _refuted(a, b):
        return None
    return (le0_map if relation == "le0" else le2_map)(a, b, nodes)


def compare(
    a: PartialMap | Problem,
    b: PartialMap | Problem,
    relation: str = "le2",
    budget: int | Budget | None = None,
    cap: int = 3,
) -> CompareResult:
    """Decide both directions and classify the pair."""
    forward = decide(a, b, relation, budget, cap)
    backward = decide(b, a, relation, budget, cap)
    if forward and backward:
        verdict = "equivalent"
    elif forward:
        verdict = "left-below"
    elif backward:
        verdict = "right-below"
    else:
        verdict = "incomparable"
    return CompareResult(verdict, forward, backward)


# -- replay and verification ---------------------------------------------


def replay0(w: Witness0, g: PartialMap) -> PartialMap:
    """The composite g . G that a le0 witness claims equals the left map."""
    return compose(g, w.translation)


def replay2(w: Witness2, g: PartialMap) -> PartialMap:
    """The defining composite F . (id pi (g . G)) . delta, built literally."""
    X1 = w.translation.dom
    inner = compose(pi_pair(identity_map(X1), compose(g, w.translation)), delta(X1))
    return compose(w.postprocess, inner)


def _sends_into(lhs, rhs, composite) -> bool:
    """Whether ``composite`` (a right-hand map -> the value vector of the
    reduction built on it) turns rhs into lhs: the map itself, or for
    problems some member for every member."""
    if isinstance(lhs, Problem) != isinstance(rhs, Problem):
        return False
    if isinstance(rhs, Problem):
        return all(composite(m) in lhs.member_vecs for m in rhs.members)
    return composite(rhs) == lhs.vec


def verify_witness0(
    lhs: PartialMap | Problem, rhs: PartialMap | Problem, w: Witness0
) -> bool:
    """Replay a composition witness pointwise on its index vector:
    q(G x) = p(x), undefined exactly where p is, for a continuous G between
    the domains."""
    X1, X2, gv = lhs.dom, rhs.dom, w.gvec
    if w.spaces != (X1, X2) or len(gv) != X1.n or _breaks(gv, X1, X2):
        return False

    def composite(q: PartialMap) -> tuple[int, ...]:
        if q.cod != lhs.cod:
            raise SpaceMismatchError(
                f"le0 replay needs a common codomain: {lhs.name!r} vs {q.name!r}"
            )
        qv = q.vec
        return tuple(qv[j] if j >= 0 else -1 for j in gv)

    return _sends_into(lhs, rhs, composite)


def verify_witness2(
    lhs: PartialMap | Problem, rhs: PartialMap | Problem, w: Witness2
) -> bool:
    """Replay a one-query witness pointwise on its index vectors:
    F(x, q(G x)) = p(x), undefined exactly where p is, for continuous G
    and F with vectors of the right lengths on the right spaces.  This is
    :func:`replay2`'s composite without building it.

    Between two maps, the equation is checked at every x first.  Once it
    holds, F is defined at the reached points (x, q(G x)) with value p(x)
    exactly where p is, so F is defined nowhere else exactly when it has
    as many defined points as p; every witness :func:`_forced` builds is
    such an F.  Then one loop over X1's comparable pairs (i, j) checks
    both maps: G where both G i and G j are defined, and F where p i and
    p j are, q(G i) below q(G j) asking p i below p j.  That is F's
    monotonicity on the product order: F has at most one defined point
    per x, so a pair of its points in one fibre is one point, and a pair
    across fibres lies over a comparable pair of X1.  A pair of problems
    is checked member by member.  Then any other F, a witness built from
    maps (``spaces`` None) and every witness between problems are checked
    by :func:`_breaks`: G along X1's comparable pairs, and F along those of
    the product X1 x Y2, built once and kept on X1."""
    X1, X2, Y2, Y1 = lhs.dom, rhs.dom, rhs.cod, lhs.cod
    spaces = w.spaces
    if spaces is None:
        g, f = w.translation, w.postprocess
        if g.dom != X1 or g.cod != X2 or f.dom != product_space(X1, Y2) or f.cod != Y1:
            return False
    elif spaces != (X1, X2, Y2, Y1):
        return False
    gv, fv, k = w.gvec, w.fvec, Y2.n
    if len(gv) != X1.n or len(fv) != X1.n * k:
        return False
    if isinstance(lhs, PartialMap) and isinstance(rhs, PartialMap):
        pv, qv, t = lhs.vec, rhs.vec, 0
        for j, v in zip(gv, pv):
            if (fv[t + qv[j]] if j >= 0 <= qv[j] else -1) != v:
                return False
            t += k
        if spaces is not None and len(fv) - fv.count(-1) == len(pv) - pv.count(-1):
            up2, upy, up1 = X2.up, Y2.up, Y1.up
            for i, j in zip(*X1.pairs):
                g, h = gv[i], gv[j]
                if g >= 0 <= h and not (up2[g] >> h) & 1:
                    return False
                v, u = pv[i], pv[j]
                if v >= 0 <= u and not (up1[v] >> u) & 1 and (upy[qv[g]] >> qv[h]) & 1:
                    return False
            return True
    else:
        def composite(q: PartialMap) -> tuple[int, ...]:
            qv = q.vec
            return tuple(fv[x * k + qv[j]] if j >= 0 <= qv[j] else -1 for x, j in enumerate(gv))

        if not _sends_into(lhs, rhs, composite):
            return False
    return not _breaks(gv, X1, X2) and not _breaks(fv, product_space(X1, Y2), Y1)


def witness0_to_witness2(
    lhs: PartialMap | Problem, rhs: PartialMap | Problem, w: Witness0
) -> Witness2:
    """A composition reduction is a one-query reduction that ignores the
    input; replayed, so a witness for another pair raises."""
    prod = product((lhs.dom, rhs.cod))
    return _replayed(lhs, rhs, Witness2(w.translation, prod.projections[1]))


def compose_witness0(w_ab: Witness0, w_bc: Witness0) -> Witness0:
    """Transitivity: chain the translations."""
    return Witness0(compose(w_bc.translation, w_ab.translation))


def compose_witness2(w_ab: Witness2, w_bc: Witness2, far_cod: Space) -> Witness2:
    """Transitivity for one-query reductions.

    The composed translation chains the two; the composed postprocessor
    first lets the middle stage interpret the answer, then the outer one:
    F(x, z) = F_ab(x, F_bc(G_ab x, z)).  ``far_cod`` is the codomain of
    the right-hand end of the chain (the answer space of the far map).
    Witnesses that do not chain so raise ``SpaceMismatchError`` before any
    of their values is read.
    """
    g_ab, f_ab = w_ab.translation, w_ab.postprocess
    g_bc, f_bc = w_bc.translation, w_bc.postprocess
    if g_ab.cod != g_bc.dom:
        raise SpaceMismatchError("the first translation misses the second's domain")
    if f_bc.dom != product_space(g_bc.dom, far_cod):
        raise SpaceMismatchError("the second postprocessor does not read far_cod")
    if f_ab.dom != product_space(g_ab.dom, f_bc.cod):
        raise SpaceMismatchError("the first postprocessor misses the middle answers")
    gv, bc, ab = g_ab.vec, f_bc.vec, f_ab.vec
    m, k = f_bc.cod.n, far_cod.n
    vec = []
    for x, mid_input in enumerate(gv):
        for z in range(k):
            mid_answer = bc[mid_input * k + z] if mid_input >= 0 else -1
            vec.append(ab[x * m + mid_answer] if mid_answer >= 0 else -1)
    prod = product_space(g_ab.dom, far_cod)
    f = _vec_map(f"F[{f_ab.name}.{f_bc.name}]", prod, f_ab.cod, vec)
    return Witness2(compose(g_bc, g_ab), f)
