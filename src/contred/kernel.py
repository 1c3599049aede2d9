"""The one backtracking kernel and the budget it spends.

Every search of the package runs on :func:`_search`: the fast
reducibility searches, the enumeration of continuous maps and the
coloring behind :func:`contred.invariants.basesize`.  The definitional
oracle engine stays apart from it as an independent reference.  This
module imports only the package's errors, so both
:mod:`contred.reducibility` and :mod:`contred.invariants` build on it.
"""

from __future__ import annotations

from .errors import CapacityError

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


def _search(
    n, pairs, order, options, fits, budget: Budget, leaf=None
) -> list[int] | None:
    """Assign values to points 0..n-1 by backtracking over ``order``.

    Step k gives point ``order[k]`` a value from ``options[k]``, tried in
    list order, each spending one budget node; -1 leaves the point
    undefined.  ``pairs`` is the constraint, two parallel index sequences
    (lo, hi) of distinct points as in :attr:`Space.pairs`: whenever points
    lo[k] and hi[k] both carry defined values a and b, ``fits(lo[k], a,
    hi[k], b)`` must hold.  Each pair is checked at the step that assigns its later point;
    pairs with a point off ``order`` constrain nothing.

    A complete assignment is accepted when ``leaf`` is None or returns
    True for it; the point-indexed assignment (-1 off ``order``) is then
    returned, else None.  A leaf that records its argument and returns
    False enumerates every solution.
    """
    step = [-1] * n
    for k, i in enumerate(order):
        step[i] = k
    # prev[k]: (earlier point, whether it is the pair's low side)
    prev: list[list[tuple[int, bool]]] = [[] for _ in order]
    for lo, hi in zip(*pairs):
        k_lo, k_hi = step[lo], step[hi]
        if k_lo >= 0 and k_hi >= 0:
            if k_lo < k_hi:
                prev[k_hi].append((lo, True))
            else:
                prev[k_lo].append((hi, False))
    assign = [-1] * n
    spend = budget.spend
    last = len(order)

    def bt(k: int) -> bool:
        if k == last:
            return leaf is None or leaf(assign)
        i, before = order[k], prev[k]
        for a in options[k]:
            spend()
            for i2, low in before if a >= 0 else ():
                b = assign[i2]
                if b >= 0 and not (fits(i2, b, i, a) if low else fits(i, a, i2, b)):
                    break
            else:
                assign[i] = a
                if bt(k + 1):
                    return True
        assign[i] = -1
        return False

    return assign if bt(0) else None


def _monotone(cod):
    """The ``fits`` of a continuous map into ``cod``: values rise with points."""
    up = cod.up
    return lambda lo, a, hi, b: (up[a] >> b) & 1
