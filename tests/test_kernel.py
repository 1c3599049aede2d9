"""The search kernel against a predicate backtracker, node for node.

``_reference_search`` is the kernel as it was before it read value
bitmask tables: recursive, checking each constraint pair through a
``fits(lo, a, hi, b)`` predicate, one ``Budget.spend()`` per candidate.
For every caller shape (monotone maps with undefined options, the le2
tables read off two conflict structures, the coloring behind
``basesize``) the kernel must find the same first solution, leave the
same ``Budget.used`` and run out of every smaller budget.  The tests at
the end pin ``_recorded``, the rule for answers kept for a repeat.
"""

from __future__ import annotations

import random
from math import inf

import pytest

from contred import (
    basesize,
    conflict_structure,
    random_map,
    random_partial_map,
    random_space,
)
from contred import invariants, kernel, reducibility
from contred.errors import CapacityError
from contred.kernel import Budget, _monotone, _recorded, _search


def _reference_search(n, pairs, order, options, fits, budget, leaf=None):
    step = [-1] * n
    for k, i in enumerate(order):
        step[i] = k
    prev = [[] for _ in order]
    for lo, hi in zip(*pairs):
        k_lo, k_hi = step[lo], step[hi]
        if k_lo >= 0 and k_hi >= 0:
            if k_lo < k_hi:
                prev[k_hi].append((lo, True))
            else:
                prev[k_lo].append((hi, False))
    assign = [-1] * n

    def bt(k):
        if k == len(order):
            return leaf is None or leaf(assign)
        i = order[k]
        for a in options[k]:
            budget.spend()
            for i2, low in prev[k] if a >= 0 else ():
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


def _accept_nth(r):
    """A maker of fresh leaves accepting the r-th complete assignment
    (None: no leaf, the first)."""
    if r is None:
        return lambda: None

    def make():
        seen = []

        def leaf(vec):
            seen.append(1)
            return len(seen) == r

        return leaf

    return make


def _same_walk(n, pairs, order, options, masks, fits, leaf=lambda: None, start=0):
    """The kernel and the reference agree on the solution and the nodes,
    from a budget that has already spent ``start``, and the kernel runs
    out of every smaller budget at the node one past it."""
    want = Budget(inf)
    want.used = start
    expected = _reference_search(n, pairs, order, options, fits, want, leaf())
    expected = None if expected is None else list(expected)
    got = Budget(inf)
    got.used = start
    found = _search(n, pairs, order, options, masks, got, leaf())
    assert found == expected
    assert got.used == want.used
    for limit in range(start, want.used):
        short = Budget(limit)
        short.used = start
        with pytest.raises(CapacityError, match=rf"^search budget exhausted \({limit} nodes\)$"):
            _search(n, pairs, order, options, masks, short, leaf())
        assert short.used == limit + 1
    return want.used - start


def _spied(monkeypatch, module, run):
    """Every call ``run()`` makes to ``module._search``, with its tables."""
    calls = []

    def spy(n, pairs, order, options, masks, budget, leaf=None):
        calls.append((n, pairs, order, options, masks, leaf))
        return _search(n, pairs, order, options, masks, budget, leaf)

    with monkeypatch.context() as m:
        m.setattr(module, "_search", spy)
        run()
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_monotone_searches_with_undefined_options_walk_the_same_tree(seed):
    rng = random.Random(f"monotone:{seed}")
    nodes = 0
    for t in range(30):
        dom = random_space(rng.randint(0, 3), rng.random(), rng.randrange(10**6))
        cod = random_space(rng.randint(1, 3), rng.random(), rng.randrange(10**6))
        up = cod.up
        order = rng.sample(range(dom.n), rng.randint(0, dom.n))
        options = [
            rng.sample([-1, *range(cod.n)], rng.randint(1, cod.n + 1)) for _ in order
        ]
        nodes += _same_walk(
            dom.n,
            dom.pairs,
            order,
            options,
            _monotone(cod),
            lambda lo, a, hi, b: (up[a] >> b) & 1,
            _accept_nth(rng.choice([None, 1, 2, 3, 10**9])),
            start=rng.choice([0, 0, 7]),
        )
    assert nodes > 0


def _le2_fits(p, q):
    """The forced-postprocessor condition as a predicate on G's values."""
    upc, upP, upQ, pv, qv = q.dom.up, p.cod.up, q.cod.up, p.vec, q.vec

    def fits(lo, a, hi, b):
        if not (upc[a] >> b) & 1:
            return False
        return not (upQ[qv[a]] >> qv[b]) & 1 or (upP[pv[lo]] >> pv[hi]) & 1

    return fits


@pytest.mark.parametrize("seed", range(4))
def test_le2_tables_walk_the_same_tree_as_the_le2_predicate(monkeypatch, seed):
    rng = random.Random(f"le2:{seed}")
    masked = 0
    for t in range(40):
        spaces = [
            random_space(rng.randint(1, 4), rng.random(), rng.randrange(10**6))
            for _ in range(4)
        ]
        X1, X2, Y1, Y2 = spaces
        make = random_map if rng.random() < 0.5 else random_partial_map
        p = make(X1, Y1, seed=rng.randrange(10**6))
        q = make(X2, Y2, seed=rng.randrange(10**6))
        calls = _spied(
            monkeypatch,
            reducibility,
            lambda: reducibility._le2_fast_search(p, q, Budget(inf)),
        )
        fits = _le2_fits(p, q)
        for n, pairs, order, options, masks, leaf in calls:
            assert leaf is None
            _same_walk(n, pairs, order, options, masks, fits)
            # every conflict pair of p joins two points on the order
            masked += bool(conflict_structure(p)[1])
    # some searched pairs of maps read the masked tables
    assert masked > 0


@pytest.mark.parametrize("seed", range(4))
def test_coloring_tables_walk_the_same_tree_as_differ(monkeypatch, seed):
    rng = random.Random(f"coloring:{seed}")
    edges = 0
    for t in range(25):
        dom = random_space(rng.randint(1, 5), rng.random(), rng.randrange(10**6))
        cod = random_space(rng.randint(1, 4), rng.random(), rng.randrange(10**6))
        make = random_map if rng.random() < 0.5 else random_partial_map
        f = make(dom, cod, seed=rng.randrange(10**6))
        calls = _spied(monkeypatch, invariants, lambda: basesize(f))
        for n, pairs, order, options, masks, leaf in calls:
            assert leaf is None
            _same_walk(n, pairs, order, options, masks, lambda lo, a, hi, b: a != b)
            edges += len(pairs[0])
    # the conflict graphs have edges for the tables to forbid colors on
    assert edges > 0


def test_a_leaf_may_search_on_the_same_budget():
    # the count is written back before a leaf and read after it, so the
    # nodes of a search run inside a leaf on the same budget count once
    pairs, order, options = ((0,), (1,)), [0, 1], [[-1, 0, 1]] * 2
    runs = []
    for search, table in (
        (_reference_search, lambda lo, a, hi, b: a != b),
        (_search, lambda i2, i, low: (~1, ~2)),
    ):
        budget = Budget(inf)

        def leaf(vec):
            inner = search(2, pairs, order, options, table, budget)
            return inner is not None and vec[0] == 1

        runs.append((search(2, pairs, order, options, table, budget, leaf), budget.used))
    assert runs[0] == ([1, -1], 22)  # 10 outer nodes, 6 leaves of 2
    assert runs[1] == runs[0]


# -- kept answers ------------------------------------------------------------


def _work(budget, answer, nodes, runs):
    """A ``work`` for :func:`_recorded` that spends ``nodes`` of ``budget``
    one at a time and returns ``answer``, counting its runs."""

    def work():
        runs.append(answer)
        for _ in range(nodes):
            budget.spend()
        return answer

    return work


def test_a_record_within_budget_spends_its_nodes_again():
    records, runs = {}, []
    first = Budget(10)
    assert _recorded(records, "k", first, _work(first, "yes", 4, runs)) == "yes"
    assert records == {"k": ("yes", 4)} and first.used == 4
    for limit, start in ((4, 0), (10, 6)):
        again = Budget(limit)
        again.used = start
        assert _recorded(records, "k", again, _work(again, "other", 1, runs)) == "yes"
        assert again.used == start + 4
    assert runs == ["yes"]


def test_a_record_over_budget_runs_out_as_a_new_search_and_stays():
    records, runs = {}, []
    first = Budget(10)
    _recorded(records, "k", first, _work(first, "yes", 4, runs))
    kept = records["k"]
    for limit, start in ((3, 0), (9, 6)):
        short = Budget(limit)
        short.used = start
        with pytest.raises(CapacityError):
            _recorded(records, "k", short, _work(short, "yes", 4, runs))
        assert short.used == limit + 1
        assert records["k"] is kept
    assert len(runs) == 3


def test_an_exception_is_never_kept():
    records = {}
    budget = Budget(2)
    with pytest.raises(CapacityError):
        _recorded(records, "k", budget, _work(budget, "yes", 5, []))

    def fail():
        raise ValueError("no answer")

    with pytest.raises(ValueError):
        _recorded(records, "k", Budget(), fail)
    assert records == {}


def test_a_no_is_kept():
    records, runs = {}, []
    budget = Budget()
    assert _recorded(records, "k", budget, _work(budget, None, 2, runs)) is None
    assert _recorded(records, "k", budget, _work(budget, None, 2, runs)) is None
    assert records == {"k": (None, 2)} and budget.used == 4 and runs == [None]


def test_a_full_dict_drops_its_oldest_record_first(monkeypatch):
    monkeypatch.setattr(kernel, "RECORDS_LIMIT", 3)
    records, runs = {}, []
    budget = Budget()
    for key in range(5):
        _recorded(records, key, budget, _work(budget, key, 1, runs))
        assert len(records) == min(key + 1, 3)
    assert list(records) == [2, 3, 4]
    # a hit leaves the order as it is: the oldest is the first stored
    _recorded(records, 2, budget, _work(budget, 2, 1, runs))
    _recorded(records, 5, budget, _work(budget, 5, 1, runs))
    assert list(records) == [3, 4, 5] and runs == [0, 1, 2, 3, 4, 5]


def test_no_budget_is_a_fresh_default_one_made_only_when_work_runs(monkeypatch):
    records, runs, given = {}, [], []

    def work(answer, budget):
        given.append(budget)
        runs.append(answer)
        budget.spend(3)
        return answer

    assert _recorded(records, "k", None, work, "yes") == "yes"
    (fresh,) = given
    assert (fresh.limit, fresh.used) == (kernel.DEFAULT_BUDGET, 3)
    assert records == {"k": ("yes", 3)}

    def refuse(self, limit=0):
        raise AssertionError("built a Budget")

    with monkeypatch.context() as m:
        m.setattr(Budget, "__init__", refuse)
        assert _recorded(records, "k", None, work, "other") == "yes"
    assert runs == ["yes"]
    # a record past the default limit runs anew, as a new search would
    records["k"] = ("yes", kernel.DEFAULT_BUDGET + 1)
    assert _recorded(records, "k", None, work, "again") == "again"
    assert runs == ["yes", "again"] and records["k"] == ("again", 3)
