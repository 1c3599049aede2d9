"""Answers ``decide`` keeps on its left item.

A repeated decision of one pair returns the answer of the first one and
spends the nodes that decision took, so a budget bounds it as it bounds a
new search, and a budget too small for them runs out where a new decision
would.  Every map is built inside its test, so that no test reads an
answer another test kept.
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

from contred import (
    Budget,
    CapacityError,
    SpaceMismatchError,
    chain,
    decide,
    discrete,
    make_map,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    sierpinski,
)
from contred import kernel, reducibility
from contred.explore import injective_indiscrete_map


def _sierpinski_maps():
    S = sierpinski()
    ident = make_map("ident", S, S, {"s0": "s0", "s1": "s1"})
    konst = make_map("konst", S, S, {"s0": "s0", "s1": "s0"})
    return ident, konst


def _refuse(*args):
    raise AssertionError("searched a decided pair")


def test_a_repeated_decision_returns_the_same_object():
    ident, konst = _sierpinski_maps()
    first = decide(ident, konst, "le2")
    assert first is not None
    assert decide(ident, konst, "le2") is first
    assert decide(konst, ident, "le2") is decide(konst, ident, "le2")


def test_a_repeated_decision_spends_what_the_first_spent():
    ident, konst = _sierpinski_maps()
    first, again = Budget(), Budget()
    decide(ident, konst, "le2", first)
    decide(ident, konst, "le2", again)
    assert again.used == first.used > 0


def test_a_repeated_decision_does_not_search(monkeypatch):
    ident, konst = _sierpinski_maps()
    wanted = [decide(p, q, "le2") for p, q in ((ident, konst), (konst, ident))]
    monkeypatch.setattr(reducibility, "_le2_fast_search", _refuse)
    assert [decide(p, q, "le2") for p, q in ((ident, konst), (konst, ident))] == wanted


def _specs(seed: int = 13, count: int = 40):
    """(domain, codomain, seed, partial) of ``count`` maps on spaces of at
    most 3 points into two shared codomains."""
    rng = random.Random(seed)
    cods = (discrete(2), chain(2))
    return [
        (
            random_space(rng.randint(1, 3), rng.choice((0.0, 0.4, 0.8)), rng.randrange(99)),
            rng.choice(cods),
            s,
            rng.random() < 0.25,
        )
        for s in range(count)
    ]


def _build(spec):
    dom, cod, s, partial = spec
    if partial:
        return random_partial_map(dom, cod, s, name=f"m{s}")
    return random_map(dom, cod, s, name=f"m{s}")


def _spent(p, q, relation):
    nodes = Budget()
    return decide(p, q, relation, nodes), nodes.used


def test_kept_answers_equal_new_decisions_on_a_seeded_pool():
    specs = _specs()
    pool = [_build(spec) for spec in specs]
    seen = {"le0": 0, "le2": 0}
    yes = 0
    for (i, p), (j, q) in itertools.product(enumerate(pool), repeat=2):
        for relation in ("le2", "le0"):
            if relation == "le0" and p.cod != q.cod:
                continue
            # a new decision: both maps built afresh, nothing kept on them
            fresh, fresh_used = _spent(_build(specs[i]), _build(specs[j]), relation)
            first, first_used = _spent(p, q, relation)
            second, second_used = _spent(p, q, relation)
            assert second is first, (p, q, relation)
            assert (first is None) == (fresh is None), (p, q, relation)
            assert first == fresh, (p, q, relation)
            assert first_used == second_used == fresh_used, (p, q, relation)
            seen[relation] += 1
            yes += first is not None
    assert seen == {"le2": 1600, "le0": 808}
    assert 0 < yes < sum(seen.values())


def test_relations_and_caps_are_kept_apart():
    # ident is below konst by one query but not by composition; only lect
    # reads the cap, so le0 and le2 keep one record whatever the cap
    ident, konst = _sierpinski_maps()
    for _ in range(2):
        assert decide(ident, konst, "le0") is None
        assert decide(ident, konst, "le2") is not None
        assert decide(ident, konst, "lect", cap=2).cap == 2
        assert decide(ident, konst, "lect", cap=3).cap == 3
        for cap in (2, 3):
            assert decide(ident, konst, "le0", cap=cap) is None
            assert decide(ident, konst, "le2", cap=cap) is not None
    assert len(ident.__dict__["_decided"]) == 4


def test_an_exhausted_budget_is_never_kept():
    # blur12 against itself takes more than 5 search nodes
    f = injective_indiscrete_map(12)
    with pytest.raises(CapacityError):
        decide(f, f, "le2", budget=5)
    assert ("le2", None, f) not in f.__dict__.get("_decided", {})
    nodes = Budget()
    assert decide(f, f, "le2", nodes) is not None
    assert nodes.used > 5
    # the kept yes is charged again: under 5 nodes it runs out as before
    with pytest.raises(CapacityError, match=r"search budget exhausted \(5 nodes\)"):
        decide(f, f, "le2", budget=5)
    assert decide(f, f, "le2", budget=nodes.used) is not None


def test_other_errors_are_never_kept():
    ident, _ = _sierpinski_maps()
    other = make_map("step", sierpinski(), discrete(2), {"s0": "0", "s1": "1"})
    for _ in range(2):
        with pytest.raises(SpaceMismatchError):
            decide(ident, other, "le0")
        with pytest.raises(ValueError):
            decide(ident, other, "le9")
    assert ident.__dict__.get("_decided", {}) == {}


def test_kept_answers_die_with_their_left_item():
    # an answer holds its right item, so that lives as long as the left one
    left, right = _sierpinski_maps()
    decide(left, right, "le2")
    decide(right, right, "le2")
    gone_left, gone_right = weakref.ref(left), weakref.ref(right)
    del right
    gc.collect()
    assert gone_right() is not None
    del left
    gc.collect()
    assert gone_left() is None and gone_right() is None


def _blur_pair():
    return injective_indiscrete_map(12), injective_indiscrete_map(12)


def _problem_pair(seed):
    def build():
        X = random_space(2, 0.5, seed)
        return tuple(random_problem(X, chain(2), s, 2) for s in (seed, seed + 100))

    return build


@pytest.mark.parametrize(
    "relation, build",
    [
        ("le0", _blur_pair),
        ("le2", _blur_pair),
        ("lect", _blur_pair),
        ("le2", _problem_pair(0)),
        ("le2", _problem_pair(7)),
    ],
    ids=["le0", "le2", "lect", "problems-no", "problems-yes"],
)
def test_a_repeat_runs_out_of_every_smaller_budget_as_a_new_decision(relation, build):
    a, b = build()
    first = Budget()
    decide(a, b, relation, first, cap=2)
    assert first.used > 0
    for limit in range(first.used):
        # a new decision: both items built afresh, nothing kept on them
        fresh, again = Budget(limit), Budget(limit)
        with pytest.raises(CapacityError):
            decide(*build(), relation, fresh, cap=2)
        with pytest.raises(CapacityError):
            decide(a, b, relation, again, cap=2)
        assert again.used == fresh.used == limit + 1
    # the kept answer outlives every exhausted repeat
    assert decide(a, b, relation, Budget(first.used), cap=2) is decide(a, b, relation, cap=2)


def _le2_records(X):
    """The record dicts of the fast le2 search kept on the space X."""
    return [r for k, r in X.__dict__.get("_kept", {}).items() if k[0] == "le2"]


def test_full_records_drop_their_oldest_and_remade_decisions_agree(monkeypatch):
    monkeypatch.setattr(kernel, "RECORDS_LIMIT", 3)
    # few domains and many maps on each, so that structures meet often
    doms = [random_space(3, 0.4, 7), random_space(3, 0.7, 8)]
    makers = (random_partial_map, random_map)
    pool = [makers[s % 2](doms[s % 4 // 2], chain(2), s, name=f"m{s}") for s in range(12)]
    first = {}
    for _ in range(2):
        for p, q in itertools.product(pool, repeat=2):
            answer, used = _spent(p, q, "le2")
            # the second round finds most records dropped and decides anew
            assert first.setdefault((p, q), (answer, used)) == (answer, used), (p, q)
            assert len(p.__dict__["_decided"]) <= 3
            assert all(len(r) <= 3 for r in _le2_records(p.dom))
    assert all(len(p.__dict__["_decided"]) == 3 for p in pool)
    assert 3 in {len(r) for p in pool for r in _le2_records(p.dom)}
    assert any(answer is not None for answer, _ in first.values())
