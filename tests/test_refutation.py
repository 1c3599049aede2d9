"""Refutation by the levels inside ``decide``.

A map's profile is (level 1, level 2).  Both are monotone along le2, and
le0 lies inside le2, so ``decide`` answers no without a search when the
left profile exceeds the right one in a coordinate.  The base size is
monotone too but is left out: on a map into at most two points it equals
``min(level 1, 2)`` (pinned here), so it refutes nothing the levels leave
there, and it would cost a colouring.  That no yes of the deciders goes
against the invariants is checked with the other monotonicity laws in
tests/test_invariants.py; these tests check how ``decide`` uses the
profile, and the search's own no path against the oracle engine.
"""

from __future__ import annotations

import itertools
import random

import pytest

from contred import (
    UNBOUNDED,
    Budget,
    CapacityError,
    LevelValue,
    SpaceMismatchError,
    basesize,
    basesize_problem,
    chain,
    decide,
    discrete,
    le2_problem,
    level,
    level_problem,
    make_map,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    sierpinski,
    singleton_problem,
)
from contred import invariants, reducibility
from contred.explore import injective_indiscrete_map
from contred.invariants import _levels, _refuted
from contred.reducibility import _le2_fast_search, _le2_oracle_search

from conftest import all_partial_maps, all_spaces_up_to, all_total_maps

S = sierpinski()
D2 = discrete(2)
FLIP = make_map("flip", S, S, {"s0": "s1", "s1": "s0"})
IDENT = make_map("ident", S, S, {"s0": "s0", "s1": "s1"})
STEP = make_map("step", S, D2, {"s0": "0", "s1": "1"})
CONST = make_map("const", S, D2, {"s0": "0", "s1": "0"})


def test_profile_is_the_invariants_as_plain_ints():
    for f in (FLIP, IDENT, STEP, CONST):
        assert _levels(f) == (level(f, 1), level(f, 2))
        assert all(isinstance(x, LevelValue) for x in _levels(f))
    assert _levels(FLIP) == (2, 2)
    assert _levels(CONST) == (1, 1)
    assert _levels(injective_indiscrete_map(2)) == (UNBOUNDED, UNBOUNDED)


def test_profile_is_computed_once_per_map():
    f = make_map("fresh", S, S, {"s0": "s1", "s1": "s0"})
    assert "_levels" not in f.__dict__
    first = _levels(f)
    assert f.__dict__["_levels"] is first
    assert _levels(f) is first


def test_into_two_points_the_base_size_is_read_off_level_1():
    # a fibre of a map is a piece on which it is constant, so continuous:
    # into at most two points, the base size is min(level 1, 2)
    doms, cods = all_spaces_up_to(3), all_spaces_up_to(2)
    maps = 0
    for X, Y in itertools.product(doms, cods):
        for f in all_partial_maps(X, Y):
            assert basesize(f) == min(level(f, 1), 2), f
            maps += 1
    assert maps == sum((Y.n + 1) ** X.n for X, Y in itertools.product(doms, cods))


def test_decide_never_colors(monkeypatch):
    def refuse(*args):
        raise AssertionError("colored inside decide")

    monkeypatch.setattr(invariants, "_coloring", refuse)
    rng = random.Random(3)
    pool = []
    for s in range(24):
        dom = random_space(rng.randint(1, 3), rng.choice((0.0, 0.4, 0.8)), s)
        cod = rng.choice((D2, chain(2), S))
        make = random_partial_map if rng.random() < 0.25 else random_map
        pool.append(make(dom, cod, s, name=f"c{s}"))
    answers = [
        decide(p, q, relation) is None
        for p, q in itertools.product(pool, repeat=2)
        for relation in ("le2", "le0")
        if relation == "le2" or p.cod == q.cod
    ]
    assert 0 < sum(answers) < len(answers)
    # blur12 against itself: the search alone spends the budget
    f, nodes = injective_indiscrete_map(12), Budget(5)
    with pytest.raises(CapacityError):
        decide(f, f, "le2", nodes)
    assert nodes.used <= 6


def _total_pool():
    """Every total map between spaces of one or two points."""
    small = [X for X in all_spaces_up_to(2) if X.n]
    return [f for X, Y in itertools.product(small, repeat=2) for f in all_total_maps(X, Y)]


def test_the_fast_search_says_no_on_every_refuted_pair_as_the_oracle_does():
    # refutation skips the search inside decide; called directly, the
    # search must still reach each of these no's on its own
    pool = _total_pool()
    refuted = [(p, q) for p in pool for q in pool if _refuted(p, q)]
    assert len(refuted) == 938
    for p, q in refuted:
        assert _le2_fast_search(p, q, Budget()) is None, (p, q)
        assert _le2_oracle_search(p, q, Budget()) is None, (p, q)


def test_decide_refutes_without_searching(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched a refuted pair")

    monkeypatch.setattr(reducibility, "_le2_fast_search", refuse)
    monkeypatch.setattr(reducibility, "_search", refuse)
    assert _refuted(FLIP, IDENT)
    assert decide(FLIP, IDENT, "le2") is None
    assert decide(FLIP, IDENT, "le0") is None


def test_le0_on_different_codomains_still_raises_when_refuted():
    assert _refuted(FLIP, CONST)
    with pytest.raises(SpaceMismatchError):
        decide(FLIP, CONST, "le0")
    with pytest.raises(SpaceMismatchError):
        decide(FLIP, singleton_problem(CONST), "le2")


def test_lect_and_problems_are_never_refuted(monkeypatch):
    def refuse(*args):
        raise AssertionError("refuted outside le0/le2 between maps")

    monkeypatch.setattr(reducibility, "_refuted", refuse)
    assert decide(FLIP, IDENT, "lect") is None
    assert decide(IDENT, FLIP, "lect") is not None
    P, Q = singleton_problem(FLIP), singleton_problem(IDENT)
    assert decide(P, Q, "le2") is None
    assert decide(Q, P, "le2") is not None
    assert decide(P, Q, "le0") is None


def test_a_problem_yes_never_goes_against_the_problem_invariants():
    # groundwork for refuting problems: on this seeded pool every yes of
    # le2_problem respects level_problem (both variants) and
    # basesize_problem; problems are not refuted yet
    rng = random.Random(5)
    pool = []
    for s in range(40):
        dom = random_space(rng.randint(1, 3), rng.choice((0.2, 0.6)), s)
        cod = rng.choice((D2, chain(2)))
        pool.append(random_problem(dom, cod, seed=s, size=rng.randint(0, 2)))

    def profile(P):
        return (level_problem(P, 1), level_problem(P, 2), basesize_problem(P))

    # yes: le2_problem's yes's; against: those the profile would refute;
    # refutable: no's the profile would refute
    yes = against = refutable = 0
    for P, Q in itertools.product(pool, repeat=2):
        exceeds = any(a > b for a, b in zip(profile(P), profile(Q)))
        if le2_problem(P, Q) is None:
            refutable += exceeds
        else:
            yes += 1
            against += exceeds
    assert (yes, against, refutable) == (1096, 0, 504)
