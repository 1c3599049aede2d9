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
it leaves this module; a successful decision can therefore be trusted
without re-deriving it.  Searches count candidate extensions against a
budget and raise :class:`CapacityError` when it runs out — exhaustion is
never reported as "no".

All the fast searches, and the enumeration of continuous maps, run on one
backtracking kernel; the definitional oracle engine stays apart from it
as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

from .errors import CapacityError, InvalidWitnessError, SpaceMismatchError
from .spaces import (
    PartialMap,
    Problem,
    Space,
    TotalMap,
    _vec_map,
    compose,
    delta,
    empty_map,
    identity_map,
    is_continuous,
    pi_pair,
    pi_power,
    product,
    product_space,
)

DEFAULT_BUDGET = 10_000_000


class Budget:
    """Mutable countdown of candidate extensions for one decision call."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise CapacityError(f"search budget exhausted ({self.limit} nodes)")


def _as_budget(budget: int | Budget | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(DEFAULT_BUDGET if budget is None else budget)


@dataclass(frozen=True)
class Witness0:
    """Evidence for a composition reduction: the translating map."""

    translation: PartialMap


@dataclass(frozen=True)
class Witness2:
    """Evidence for a one-query reduction.

    ``translation`` feeds the left input to the right-hand map;
    ``postprocess`` turns (input, answer) pairs into the left output.
    """

    translation: PartialMap
    postprocess: PartialMap


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


# -- the backtracking kernel ----------------------------------------------


def _search(
    up, order, options, fits, budget: Budget, leaf=None
) -> list[int] | None:
    """Assign values to the points of ``order`` by backtracking.

    ``up[i]`` is the bitmask of points above point i.  Step k gives point
    ``order[k]`` a value from ``options[k]``, tried in list order, each
    spending one budget node; -1 leaves the point undefined and fits
    everything.  A defined value must pass ``fits(lo, a, hi, b)`` against
    every earlier comparable defined point, where point lo <= point hi
    carry values a and b.  All constraints of the searches here are
    pairwise between comparable points, so pruning against exactly these
    loses no solution.

    A complete assignment is accepted when ``leaf`` is None or returns
    True for it; the point-indexed assignment (-1 off ``order``) is then
    returned, else None.  A leaf that records its argument and returns
    False enumerates every solution.
    """
    prev = []
    for k, i in enumerate(order):
        checks = []
        for i2 in order[:k]:
            below, above = (up[i2] >> i) & 1, (up[i] >> i2) & 1
            if below or above:
                checks.append((i2, below, above))
        prev.append(checks)
    assign = [-1] * len(up)
    spend = budget.spend
    n = len(order)

    def bt(k: int) -> bool:
        if k == n:
            return leaf is None or leaf(assign)
        i = order[k]
        for a in options[k]:
            spend()
            ok = True
            if a >= 0:
                for i2, below, above in prev[k]:
                    b = assign[i2]
                    if b >= 0 and (
                        (below and not fits(i2, b, i, a))
                        or (above and not fits(i, a, i2, b))
                    ):
                        ok = False
                        break
            if ok:
                assign[i] = a
                if bt(k + 1):
                    return True
        assign[i] = -1
        return False

    return assign if bt(0) else None


def _translation(lhs, rhs, gvec: list[int]) -> PartialMap:
    """The translating map lhs.dom -> rhs.dom given by an index vector."""
    return _vec_map(f"G[{lhs.name},{rhs.name}]", lhs.dom, rhs.dom, gvec)


def _monotone(cod: Space):
    """The ``fits`` of a continuous map into ``cod``: values rise with points."""
    up = cod.up
    return lambda lo, a, hi, b: (up[a] >> b) & 1


# -- continuous maps by search -------------------------------------------

ENUMERATION_CAP = 200_000


def _continuous_vectors(
    dom: Space, cod: Space, options: list[int]
) -> list[tuple[int, ...]]:
    """Value vectors of the maps dom -> cod that are continuous on their
    domain of definition, lexicographic in ``options`` order."""
    out: list[tuple[int, ...]] = []

    def collect(vec: list[int]) -> bool:
        out.append(tuple(vec))
        return False

    unbounded = Budget(float("inf"))
    order = range(dom.n)
    _search(dom.up, order, [options] * dom.n, _monotone(cod), unbounded, collect)
    return out


@lru_cache(maxsize=None)
def enumerate_continuous_total(dom: Space, cod: Space) -> tuple[TotalMap, ...]:
    """All continuous total maps dom -> cod, in lexicographic value order."""
    vecs = _continuous_vectors(dom, cod, list(range(cod.n)))
    return tuple(
        _vec_map(f"c[{dom.name}>{cod.name}]{k}", dom, cod, vec)
        for k, vec in enumerate(vecs)
    )


@lru_cache(maxsize=None)
def enumerate_continuous_partial(
    dom: Space, cod: Space, cap: int = ENUMERATION_CAP
) -> tuple[PartialMap, ...]:
    """All partial maps dom -> cod continuous on their domain of
    definition, lexicographic, undefined slots ordered first."""
    if (cod.n + 1) ** dom.n > cap:
        raise CapacityError(
            f"{(cod.n + 1) ** dom.n} partial maps exceed the cap of {cap}"
        )
    vecs = _continuous_vectors(dom, cod, [-1, *range(cod.n)])
    return tuple(
        _vec_map(f"p[{dom.name}>{cod.name}]{k}", dom, cod, vec)
        for k, vec in enumerate(vecs)
    )


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
    gvec = _search(p.dom.up, order, options, _monotone(q.dom), b)
    if gvec is None:
        return None
    w = Witness0(_translation(p, q, gvec))
    if not verify_witness0(p, q, w):
        raise InvalidWitnessError("le0 witness failed to replay")  # pragma: no cover
    return w


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
        w = Witness0(empty_map(X1, X2, f"G[{P.name},{Q.name}]"))
        if not verify_witness0(P, Q, w):
            raise InvalidWitnessError("le0 witness failed to replay")
        return w
    qvecs = [m.vec for m in Q.members]
    member_vecs = P.member_vecs

    def leaf(g: list[int]) -> bool:
        return all(
            tuple(qv[j] if j >= 0 else -1 for j in g) in member_vecs for qv in qvecs
        )

    options = [[-1, *range(X2.n)]] * X1.n
    gvec = _search(X1.up, range(X1.n), options, _monotone(X2), b, leaf)
    if gvec is None:
        return None
    w = Witness0(_translation(P, Q, gvec))
    if not verify_witness0(P, Q, w):
        raise InvalidWitnessError("le0 witness failed to replay")  # pragma: no cover
    return w


# -- le2: fast engine -----------------------------------------------------


def _le2_fast_search(p: PartialMap, q: PartialMap, budget: Budget) -> list[int] | None:
    """Search a continuous G on def(p) passing the forced-postprocessor test.

    The postprocessor is determined on reachable pairs by the defining
    equation, and its continuity there is equivalent to the pairwise
    condition checked during assignment: whenever x <= x' and the queried
    answers satisfy q(G x) <= q(G x'), the targets must satisfy
    p(x) <= p(x').
    """
    pv, qv = p.vec, q.vec
    order = [i for i in range(p.dom.n) if pv[i] >= 0]
    cands = [j for j in range(q.dom.n) if qv[j] >= 0]
    if order and not cands:
        return None
    upc, upP, upQ = q.dom.up, p.cod.up, q.cod.up

    def fits(lo: int, a: int, hi: int, b: int) -> bool:
        if not (upc[a] >> b) & 1:
            return False
        return not (upQ[qv[a]] >> qv[b]) & 1 or (upP[pv[lo]] >> pv[hi]) & 1

    return _search(p.dom.up, order, [cands] * len(order), fits, budget)


def _witness2_from_gvec(
    p: PartialMap, q: PartialMap, gvec: list[int]
) -> Witness2:
    """G from its vector, and the postprocessor the defining equation
    forces on the reached pairs: F(x, q(G x)) = p(x)."""
    X1, Y2 = p.dom, q.cod
    pv, qv = p.vec, q.vec
    fvec = [-1] * (X1.n * Y2.n)
    for i, j in enumerate(gvec):
        if j >= 0:
            fvec[i * Y2.n + qv[j]] = pv[i]
    f = _vec_map(f"F[{p.name},{q.name}]", product_space(X1, Y2), p.cod, fvec)
    return Witness2(_translation(p, q, gvec), f)


def le2_map(
    p: PartialMap, q: PartialMap, budget: int | Budget | None = None
) -> Witness2 | None:
    """One-query reducibility between single partial maps."""
    b = _as_budget(budget)
    gvec = _le2_fast_search(p, q, b)
    if gvec is None:
        return None
    w = _witness2_from_gvec(p, q, gvec)
    if not verify_witness2(p, q, w):
        raise InvalidWitnessError("le2 witness failed to replay")  # pragma: no cover
    return w


# -- le2: oracle engine ---------------------------------------------------


@lru_cache(maxsize=None)
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
    for gvec in _open_continuous_totals(X1, g.dom):
        budget.spend()
        h = [gv[j] for j in gvec]
        pairs = [
            (i, i2)
            for i in range(X1.n)
            for i2 in range(X1.n)
            if i != i2 and (up1[i] >> i2) & 1 and (upY2[h[i]] >> h[i2]) & 1
        ]
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
    if engine == "fast":
        gvec = _le2_fast_search(f, g, b)
    else:
        gvec = _le2_oracle_search(f, g, b)
    if gvec is None:
        return None
    w = _witness2_from_gvec(f, g, gvec)
    if not verify_witness2(f, g, w):
        raise InvalidWitnessError("le2 witness failed to replay")  # pragma: no cover
    return w


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
        w = Witness2(
            empty_map(X1, X2, f"G[{P.name},{Q.name}]"),
            empty_map(prod, Y1, f"F[{P.name},{Q.name}]"),
        )
        if not verify_witness2(P, Q, w):
            raise InvalidWitnessError("le2 witness failed to replay")
        return w
    up1, upY2 = X1.up, Y2.up
    qvecs = [m.vec for m in Q.members]
    member_vecs = P.member_vecs
    f_options = [-1, *range(Y1.n)]
    f_fits = _monotone(Y1)
    fvec_full = [-1] * prod.n

    def g_leaf(g: list[int]) -> bool:
        # the postprocessor's points: (x, answer) pairs in the product order
        reach = sorted(
            {
                (i, qv[j])
                for qv in qvecs
                for i, j in enumerate(g)
                if j >= 0 and qv[j] >= 0
            }
        )
        at = {pair: k for k, pair in enumerate(reach)}
        up = [
            sum(
                1 << k
                for k, (i2, y2) in enumerate(reach)
                if (up1[i] >> i2) & 1 and (upY2[y] >> y2) & 1
            )
            for i, y in reach
        ]

        def f_leaf(f: list[int]) -> bool:
            return all(
                tuple(
                    f[at[i, qv[j]]] if j >= 0 and qv[j] >= 0 else -1
                    for i, j in enumerate(g)
                )
                in member_vecs
                for qv in qvecs
            )

        options = [f_options] * len(reach)
        fvec = _search(up, range(len(reach)), options, f_fits, b, f_leaf)
        if fvec is None:
            return False
        for (i, y), v in zip(reach, fvec):
            fvec_full[i * Y2.n + y] = v
        return True

    options = [[-1, *range(X2.n)]] * X1.n
    gvec = _search(up1, range(X1.n), options, _monotone(X2), b, g_leaf)
    if gvec is None:
        return None
    fmap = _vec_map(f"F[{P.name},{Q.name}]", prod, Y1, fvec_full)
    w = Witness2(_translation(P, Q, gvec), fmap)
    if not verify_witness2(P, Q, w):
        raise InvalidWitnessError("le2 witness failed to replay")  # pragma: no cover
    return w


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
        w = le2_fn(f, gn, budget=b)
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
    """
    if isinstance(a, Problem) != isinstance(b, Problem):
        raise SpaceMismatchError("cannot compare a map with a problem")
    if relation == "le0":
        if isinstance(a, Problem):
            return le0_problem(a, b, budget)
        return le0_map(a, b, budget)
    if relation == "le2":
        if isinstance(a, Problem):
            return le2_problem(a, b, budget)
        return le2_map(a, b, budget)
    if relation == "lect":
        if isinstance(a, Problem):
            raise ValueError("lect compares total maps only")
        res = le_ct(a, b, cap, budget)
        return res if res.yes else None
    raise ValueError(f"unknown relation {relation!r}")


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
    """Replay a composition witness pointwise: q(G x) = p(x), undefined
    exactly where p is, for a continuous G between the domains."""
    g = w.translation
    if g.dom != lhs.dom or g.cod != rhs.dom:
        return False
    if not is_continuous(g):
        return False
    gv = g.vec

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
    """Replay a one-query witness pointwise: F(x, q(G x)) = p(x), undefined
    exactly where p is, for continuous G and F on the right spaces.  This
    is the defining composite of :func:`replay2` without building it."""
    g, f = w.translation, w.postprocess
    if g.dom != lhs.dom or g.cod != rhs.dom:
        return False
    if f.dom != product_space(lhs.dom, rhs.cod) or f.cod != lhs.cod:
        return False
    if not is_continuous(g) or not is_continuous(f):
        return False
    gv, fv, k = g.vec, f.vec, rhs.cod.n

    def composite(q: PartialMap) -> tuple[int, ...]:
        qv = q.vec
        return tuple(
            fv[x * k + qv[j]] if j >= 0 and qv[j] >= 0 else -1
            for x, j in enumerate(gv)
        )

    return _sends_into(lhs, rhs, composite)


def witness0_to_witness2(
    lhs: PartialMap | Problem, rhs: PartialMap | Problem, w: Witness0
) -> Witness2:
    """A composition reduction is a one-query reduction that ignores the input."""
    prod = product((lhs.dom, rhs.cod))
    return Witness2(w.translation, prod.projections[1])


def compose_witness0(w_ab: Witness0, w_bc: Witness0) -> Witness0:
    """Transitivity: chain the translations."""
    return Witness0(compose(w_bc.translation, w_ab.translation))


def compose_witness2(w_ab: Witness2, w_bc: Witness2, far_cod: Space) -> Witness2:
    """Transitivity for one-query reductions.

    The composed translation chains the two; the composed postprocessor
    first lets the middle stage interpret the answer, then the outer one:
    F(x, z) = F_ab(x, F_bc(G_ab x, z)).  ``far_cod`` is the codomain of
    the right-hand end of the chain (the answer space of the far map).
    """
    g_ab, f_ab = w_ab.translation, w_ab.postprocess
    g_bc, f_bc = w_bc.translation, w_bc.postprocess
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
