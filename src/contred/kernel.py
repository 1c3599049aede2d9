"""The one backtracking kernel and the budget it spends.

Every search of the package runs on :func:`_search`: the fast
reducibility searches, the enumeration of continuous maps and the
coloring behind :func:`contred.invariants.basesize`.  The definitional
oracle engine stays apart from it as an independent reference.  This
module imports only the package's errors, so both
:mod:`contred.reducibility` and :mod:`contred.invariants` build on it.

A caller states its constraint as value bitmask tables, not as a
predicate: for a pair of points, ``masks`` gives a sequence indexed by
the earlier point's value whose entry is the bitmask of values allowed
at the later point.  A step ANDs the entries of its assigned neighbours
once, and each of its candidates is then one bit test.  Every candidate
tried spends one budget node, so the count of nodes is the count of
candidates tried, whatever the tables.  Answers kept for a repeat
follow one rule, :func:`_recorded`.
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


RECORDS_LIMIT = 4096


def _recorded(records: dict, key, budget: Budget | None, work, *args):
    """``work(*args)``, kept in ``records`` under ``key``.

    A record is the answer, None included, with the nodes of ``budget``
    that ``work`` spent.  While ``budget`` still has them, a repeat spends
    them again and returns the answer, leaving ``budget.used`` where a new
    search would; otherwise ``work`` runs anew and runs out as a new
    search does, with ``budget.used`` one past the limit.  So ``work`` must
    answer and spend alike for equal keys.  An exception is never kept,
    and a dict past ``RECORDS_LIMIT`` records drops its oldest first.

    ``budget`` None stands for a fresh default ``Budget()``, which is made
    only when ``work`` runs and is then passed to it after ``args``; a
    repeat within the default limit returns its answer without one.
    """
    got = records.get(key)
    if got is not None:
        found, nodes = got
        if budget is None:
            if nodes <= DEFAULT_BUDGET:
                return found
        else:
            nodes += budget.used
            if nodes <= budget.limit:
                budget.used = nodes
                return found
    if budget is None:
        budget = Budget()
        args += (budget,)
    start = budget.used
    found = work(*args)
    if got is None and len(records) >= RECORDS_LIMIT:
        del records[next(iter(records))]
    records[key] = found, budget.used - start
    return found


def _search(
    n, pairs, order, options, masks, budget: Budget, leaf=None
) -> list[int] | None:
    """Assign values to points 0..n-1 by backtracking over ``order``.

    Step k gives point ``order[k]`` a value from ``options[k]``, tried in
    list order; -1 leaves the point undefined.  ``pairs`` is the
    constraint, two parallel index sequences (lo, hi) of distinct points
    as in :attr:`Space.pairs`; pairs with a point off ``order`` constrain
    nothing.  For a pair whose earlier point in ``order`` is i2 and later
    point is i, ``masks(i2, i, low)`` (``low``: whether i2 is the pair's
    lo) returns a sequence indexed by i2's value b: its entry is the
    bitmask of the values allowed at i while i2 holds b.  An undefined
    earlier point allows everything.

    Node accounting: every candidate tried, -1 included, spends one node
    of ``budget``, in ``options`` order, before it is tested; -1 passes
    untested.  The count is kept in a local and written back to
    ``budget.used`` on every exit and around every ``leaf`` call, so a
    leaf may run a search of its own on the same budget.  Passing
    ``budget.limit`` raises :class:`CapacityError` with ``budget.used``
    one past the limit.

    A complete assignment is accepted when ``leaf`` is None or returns
    True for it; the point-indexed assignment (-1 off ``order``) is then
    returned, else None.  A leaf that records its argument and returns
    False enumerates every solution.
    """
    step = [-1] * n
    for k, i in enumerate(order):
        step[i] = k
    # prev[k]: (earlier point, its table) for each pair that step k closes
    prev: list[list[tuple[int, object]]] = [[] for _ in order]
    for lo, hi in zip(*pairs):
        k_lo, k_hi = step[lo], step[hi]
        if k_lo >= 0 and k_hi >= 0:
            if k_lo < k_hi:
                prev[k_hi].append((lo, masks(lo, hi, True)))
            else:
                prev[k_lo].append((hi, masks(hi, lo, False)))
    assign = [-1] * n
    last = len(order)
    # per step: the values its neighbours allow, and its options left
    allowed = [-1] * last
    left: list = [None] * last
    used, limit = budget.used, budget.limit
    k = 0
    while True:
        if k == last:
            budget.used = used
            if leaf is None or leaf(assign):
                return assign
            used = budget.used
            k -= 1
        else:
            m = -1
            for i2, table in prev[k]:
                b = assign[i2]
                if b >= 0:
                    m &= table[b]
            allowed[k] = m
            left[k] = iter(options[k])
        # the next candidate of step k, backing up past exhausted steps
        while k >= 0:
            m = allowed[k]
            for a in left[k]:
                used += 1
                if used > limit:
                    budget.used = used
                    raise CapacityError(f"search budget exhausted ({limit} nodes)")
                if a < 0 or (m >> a) & 1:
                    assign[order[k]] = a
                    break
            else:
                assign[order[k]] = -1
                k -= 1
                continue
            break
        else:
            budget.used = used
            return None
        k += 1


def _monotone(cod):
    """The ``masks`` of a continuous map into ``cod``: values rise with points."""
    up, down = cod.up, cod.down
    return lambda i2, i, low: up if low else down
