"""Level hierarchies, base size, and the laws connecting them."""

from __future__ import annotations

import copy
import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    UNBOUNDED,
    LevelValue,
    basesize,
    basesize_partition,
    basesize_problem,
    chain,
    conflict_graph,
    constant_map,
    discrete,
    empty_map,
    indiscrete,
    injective_indiscrete_map,
    invariant_report,
    is_continuous,
    is_continuous_at,
    le0_map,
    le2_map,
    lev_point,
    level,
    level_problem,
    level_sets,
    problem,
    random_map,
    random_partial_map,
    restrict,
    sierpinski,
    singleton_problem,
    sup2,
    sup2_problem,
    tagged,
    total_map,
)
from contred.invariants import _refuted

from conftest import (
    brute_force_basesize,
    oracle_is_continuous,
    oracle_open_sets,
    partial_maps_st,
    problems_st,
    seeds,
    spaces_st,
    total_maps_st,
)

S2 = sierpinski()
D2 = discrete(2)
I2 = indiscrete(2)
C3 = chain(3)

flip = total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
alt3 = total_map("alt3", C3, D2, {"a": "0", "b": "1", "c": "0"})
blur2 = total_map("blur2", I2, D2, {"0": "0", "1": "1"})


# -- LevelValue ordering ---------------------------------------------------


def test_level_values_order_like_naturals_with_a_top():
    assert LevelValue(1) < LevelValue(2) < UNBOUNDED
    assert not (UNBOUNDED < UNBOUNDED)
    assert UNBOUNDED == LevelValue(None)
    assert LevelValue(3) == 3 and LevelValue(3) <= 3
    assert max(LevelValue(5), UNBOUNDED) is UNBOUNDED
    assert str(UNBOUNDED) == "unbounded" and str(LevelValue(2)) == "2"
    # sys.maxsize stands for UNBOUNDED, so no natural level reaches it
    for bad in (-1, sys.maxsize, 10**20):
        with pytest.raises(ValueError):
            LevelValue(bad)
    assert LevelValue(UNBOUNDED).is_unbounded and LevelValue(LevelValue(3)) == 3


def test_level_values_are_ints():
    mix = [UNBOUNDED, 3, LevelValue(0), 1, LevelValue(2)]
    assert sorted(mix) == [0, 1, 2, 3, UNBOUNDED]
    assert sorted(mix)[-1] is UNBOUNDED
    assert max(mix) is UNBOUNDED and min(mix) == 0
    assert max(LevelValue(2), 5) == 5 and min(UNBOUNDED, 4) == 4
    assert {LevelValue(2): "two"}[2] == "two"
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        back = copy_of(UNBOUNDED)
        assert back == UNBOUNDED and back.value is None and back.is_unbounded
        assert copy_of(LevelValue(3)) == 3 and copy_of(LevelValue(3)).value == 3


# -- level set chains ------------------------------------------------------


def test_continuous_map_chain_is_two_stages():
    konst = constant_map(C3, D2, "0")
    assert level_sets(konst, 1) == (frozenset("abc"), frozenset())
    assert level(konst, 1) == 1 and level(konst, 2) == 1


def test_flip_chain_discards_the_closed_point_last():
    assert level_sets(flip, 1) == (frozenset({"s0", "s1"}), frozenset({"s0"}), frozenset())
    assert level(flip, 1) == 2 and level(flip, 2) == 2
    assert basesize(flip) == 2


def test_alternating_three_chain_has_level_three():
    assert level_sets(alt3, 1) == (
        frozenset("abc"),
        frozenset("ab"),
        frozenset("a"),
        frozenset(),
    )
    assert level(alt3, 1) == 3 and level(alt3, 2) == 3
    assert basesize(alt3) == 2


def test_two_valued_map_on_indiscrete_pair_never_stabilizes_empty():
    assert level_sets(blur2, 1) == (frozenset({"0", "1"}),)
    assert level(blur2, 1) is UNBOUNDED and level(blur2, 2) is UNBOUNDED
    assert basesize(blur2) == 2


def test_injective_map_on_an_indiscrete_space_needs_a_piece_per_point():
    # twelve colors: the coloring's tables must not stop at a fixed count
    blur12 = injective_indiscrete_map(12)
    assert basesize(blur12) == 12
    assert sorted(map(len, basesize_partition(blur12))) == [1] * 12


def test_empty_domain_map_has_level_zero():
    e = empty_map(S2, D2)
    assert level(e, 1) == 0 and level(e, 2) == 0
    assert basesize(e) == 0 and level_sets(e, 1) == (frozenset(),)


def test_variant_choice_is_validated():
    with pytest.raises(ValueError):
        level_sets(flip, 3)


def test_closure_variant_can_exceed_the_plain_variant():
    # b <- a -> c with values making only b's edge conflict: closing {a}
    # within the domain pulls nothing extra here, so build a V where the
    # discontinuity set's closure genuinely grows the next stage.
    v = total_map(
        "vee",
        chain(2, name="up2"),
        D2,
        {"a": "0", "b": "1"},
    )
    assert level(v, 1) == 2 and level(v, 2) == 2
    anti = total_map("anti", chain(3), discrete(3), {"a": "1", "b": "0", "c": "2"})
    assert level(anti, 1) <= level(anti, 2)


# -- pointwise levels ------------------------------------------------------


def test_pointwise_levels_of_flip():
    assert lev_point(flip, "s1", 1) == 1
    assert lev_point(flip, "s0", 1) == 2
    with pytest.raises(ValueError):
        lev_point(empty_map(S2, D2), "s0", 1)


@settings(max_examples=80, deadline=None)
@given(partial_maps_st(max_points=4), st.sampled_from((1, 2)))
def test_level_is_the_supremum_of_pointwise_levels(f, variant):
    pts = sorted(f.defined_on)
    values = [lev_point(f, x, variant) for x in pts]
    expected = max(values, default=LevelValue(0))
    assert level(f, variant) == expected


# -- structural laws -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(partial_maps_st(max_points=5), st.data())
def test_base_size_never_exceeds_levels(f, data):
    b, l1, l2 = LevelValue(basesize(f)), level(f, 1), level(f, 2)
    assert b <= l1 <= l2


@settings(max_examples=60, deadline=None)
@given(partial_maps_st(max_points=5))
def test_closure_variant_dominates_stagewise(f):
    ls1, ls2 = level_sets(f, 1), level_sets(f, 2)
    for k in range(len(ls1)):
        stage2 = ls2[k] if k < len(ls2) else ls2[-1]
        assert ls1[k] <= stage2


@st.composite
def map_pairs_st(draw, max_points: int = 3):
    """Two maps, each total or partial; in half the draws the second one
    shares the first one's codomain."""
    f = draw(st.one_of(total_maps_st(max_points=max_points), partial_maps_st(max_points=max_points)))
    dom = draw(spaces_st(0, max_points))
    cod = f.cod if draw(st.booleans()) else draw(spaces_st(1, max_points))
    make = draw(st.sampled_from((random_map, random_partial_map)))
    return f, make(dom, cod, seed=draw(seeds))


@settings(max_examples=80, deadline=None)
@given(map_pairs_st())
def test_invariants_are_monotone_along_positive_reductions(fg):
    # decide answers no by exactly these laws, so the deciders are called
    # here directly; le0 lies inside le2, so a le0 yes must obey them too
    f, g = fg
    reduces = le2_map(f, g) is not None
    if f.cod == g.cod and le0_map(f, g) is not None:
        assert reduces
    if not reduces:
        return
    assert level(f, 1) <= level(g, 1)
    assert level(f, 2) <= level(g, 2)
    assert basesize(f) <= basesize(g)
    assert not _refuted(f, g)


@settings(max_examples=30, deadline=None)
@given(problems_st(max_points=3, max_members=2), problems_st(max_points=3, max_members=2))
def test_problem_invariants_are_monotone_along_positive_reductions(p, q):
    from contred import le2_problem

    if le2_problem(p, q) is None:
        return
    assert level_problem(p, 1) <= level_problem(q, 1)
    assert basesize_problem(p) <= basesize_problem(q)


# -- conflict graph and coloring ------------------------------------------


def test_conflict_graph_fixtures():
    assert conflict_graph(flip) == (("s0", "s1"),)
    assert set(conflict_graph(alt3)) == {("a", "b"), ("b", "c")}
    assert conflict_graph(blur2) == (("0", "1"),)
    assert conflict_graph(constant_map(C3, D2, "0")) == ()


@settings(max_examples=80, deadline=None)
@given(partial_maps_st(max_points=5))
def test_partition_certificate_is_valid(f):
    parts = basesize_partition(f)
    assert len(parts) == basesize(f) == brute_force_basesize(f)
    assert sum(map(len, parts)) == len(f.defined_on)
    assert frozenset().union(*parts) == f.defined_on
    for part in parts:
        assert is_continuous(restrict(f, part))


def _oracle_continuous_at(f, x) -> bool:
    """Every open set around f(x) pulls back to a neighbourhood of x in the
    subspace of defined points: some open set around x maps into it."""
    defined = f.defined_on
    for v in oracle_open_sets(f.cod):
        if f(x) in v and not any(
            x in u and all(f(y) in v for y in u & defined)
            for u in oracle_open_sets(f.dom)
        ):
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(partial_maps_st(max_points=4))
def test_conflict_graph_and_pointwise_continuity_match_oracles(f):
    defined = sorted(f.defined_on, key=f.dom.point_index)
    edges = {
        (x, y)
        for x, y in itertools.combinations(defined, 2)
        if (f.dom.below(x, y) or f.dom.below(y, x))
        and not oracle_is_continuous(restrict(f, (x, y)))
    }
    graph = conflict_graph(f)
    assert len(graph) == len(set(graph))
    assert set(graph) == edges
    for x in defined:
        assert is_continuous_at(f, x) == _oracle_continuous_at(f, x), x


@settings(max_examples=60, deadline=None)
@given(partial_maps_st(max_points=5))
def test_base_size_matches_brute_force_partition_search(f):
    assert basesize(f) == brute_force_basesize(f)


# -- commutation with joins ------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(total_maps_st(max_points=3), total_maps_st(max_points=3))
def test_invariants_of_a_join_are_the_member_maxima(f, g):
    joined = sup2(tagged([f, g], ("l", "r")))
    for variant in (1, 2):
        assert level(joined, variant) == max(level(f, variant), level(g, variant))
    assert basesize(joined) == max(basesize(f), basesize(g))


@settings(max_examples=25, deadline=None)
@given(
    problems_st(max_points=2, max_members=2),
    problems_st(max_points=2, max_members=2),
)
def test_problem_level_of_a_join_is_the_member_maximum(p, q):
    joined = sup2_problem(tagged([p, q], ("l", "r")))
    assert level_problem(joined, 1) == max(level_problem(p, 1), level_problem(q, 1))
    assert basesize_problem(joined) == max(basesize_problem(p), basesize_problem(q))


# -- problem variants ------------------------------------------------------


def test_problem_level_is_the_least_member_level():
    konst = constant_map(S2, S2, "s0", name="konst")
    assert level_problem(singleton_problem(flip)) == level(flip)
    assert level_problem(problem("mix", S2, S2, [flip, konst])) == 1
    assert level_problem(problem("none", S2, S2, ())) is UNBOUNDED
    assert basesize_problem(problem("none", S2, S2, ())) is UNBOUNDED
    assert basesize_problem(singleton_problem(flip)) == 2


# -- the consolidated report ----------------------------------------------


@settings(max_examples=80, deadline=None)
@given(partial_maps_st(max_points=5))
def test_invariant_report_is_internally_consistent(f):
    rep = invariant_report(f)
    assert rep.subject == f.name
    assert rep.level_sets_1 == level_sets(f, 1) and rep.level_sets_2 == level_sets(f, 2)
    assert rep.lev1 == level(f, 1) and rep.lev2 == level(f, 2)
    assert rep.pointwise == tuple(
        (x, lev_point(f, x, 1), lev_point(f, x, 2))
        for x in f.dom.points
        if f.defined_at(x)
    )
    assert rep.bas == basesize(f)
    assert rep.conflict_edges == conflict_graph(f)
