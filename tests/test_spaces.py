"""Space construction, topology helpers, maps, continuity, problems."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    CapacityError,
    PartialMap,
    Problem,
    Relation,
    SpaceMismatchError,
    Space,
    build_space,
    chain,
    choice_functions,
    compose,
    constant_map,
    coproduct,
    delta,
    discrete,
    empty_map,
    identity_map,
    indiscrete,
    injective_indiscrete_map,
    is_continuous,
    is_continuous_at,
    make_map,
    map_equal,
    partial_map,
    pi_pair,
    pi_power,
    problem,
    product,
    random_continuous_map,
    random_space,
    relation,
    restrict,
    sierpinski,
    singleton_problem,
    subspace,
    total_map,
)

from conftest import (
    all_partial_maps,
    all_spaces_up_to,
    all_total_maps,
    oracle_closure,
    oracle_is_continuous,
    oracle_open_sets,
    preorders_on,
    seeds,
    spaces_st,
)

S2 = sierpinski()
D2 = discrete(2)
D3 = discrete(3)
I2 = indiscrete(2)
C3 = chain(3)


# -- enumeration sanity ----------------------------------------------------


def test_preorder_counts_match_known_sequence():
    assert {n: len(preorders_on(n)) for n in range(4)} == {0: 1, 1: 1, 2: 4, 3: 29}
    assert len(all_spaces_up_to(3)) == 35


def test_pairs_are_the_strict_below_relation():
    # all_spaces_up_to builds one space per preorder, in preorders_on order
    spaces = iter(all_spaces_up_to(4))
    for n in range(5):
        for k, rel in enumerate(preorders_on(n)):
            s = next(spaces)
            assert s.name == f"P{n}_{k}"
            lo, hi = s.pairs
            assert len(lo) == len(hi)
            got = list(zip(lo, hi))
            assert len(got) == len(set(got))
            assert set(got) == {(i, j) for i, j in rel if i != j}, s.name


# -- constructors ----------------------------------------------------------


def test_build_space_closes_generating_pairs():
    x = build_space("X", ("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert x.below("a", "c")
    assert x.below("a", "a")
    assert not x.below("c", "a")


def test_build_space_accepts_cycles_as_non_t0():
    x = build_space("X", ("a", "b"), (("a", "b"), ("b", "a")))
    assert x.below("a", "b") and x.below("b", "a")


def test_build_space_rejects_duplicate_points():
    with pytest.raises(ValueError):
        build_space("X", ("a", "a"), ())


def test_build_space_rejects_undeclared_points_in_pairs():
    with pytest.raises(ValueError):
        build_space("X", ("a",), (("a", "zz"),))


def test_space_constructor_enforces_reflexivity_and_transitivity():
    with pytest.raises(ValueError):
        Space("bad", ("a", "b"), (0b10, 0b10))  # a's row misses reflexive bit
    with pytest.raises(ValueError):
        Space("bad", ("a", "b", "c"), (0b011, 0b110, 0b100))  # a<b<c but not a<c


def test_named_spaces_have_expected_shapes():
    assert discrete(2).up == (0b01, 0b10)
    assert indiscrete(2).up == (0b11, 0b11)
    assert S2.points == ("s0", "s1") and S2.below("s0", "s1")
    assert C3.points == ("a", "b", "c") and C3.below("a", "c")
    assert chain(0).points == () and discrete(0).points == ()


@pytest.mark.parametrize(
    "build, n",
    [
        (discrete, -1),
        (indiscrete, -2),
        (chain, -1),
        (injective_indiscrete_map, -1),
        (random_space, -1),
    ],
)
def test_a_negative_size_is_refused_with_one_message(build, n):
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        build(n)


def test_sierpinski_open_sets():
    assert sorted(map(sorted, oracle_open_sets(S2))) == [[], ["s0", "s1"], ["s1"]]


# -- closure / open / closed ----------------------------------------------


def test_closure_examples():
    assert S2.closure({"s1"}) == {"s0", "s1"}
    assert S2.closure(()) == frozenset()
    assert discrete(3).closure({"0"}) == {"0"}


def test_closure_matches_definitional_oracle_exhaustively():
    for space in all_spaces_up_to(3):
        pts = space.points
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                assert space.closure(combo) == oracle_closure(space, combo)


@given(spaces_st(max_points=5), st.data())
def test_closure_is_extensive_monotone_idempotent(space, data):
    sub = data.draw(st.sets(st.sampled_from(space.points)) if space.points else st.just(set()))
    sup = sub | (
        data.draw(st.sets(st.sampled_from(space.points))) if space.points else set()
    )
    c = space.closure(sub)
    assert sub <= c
    assert c <= space.closure(sup)
    assert space.closure(c) == c


def test_open_iff_complement_closed_exhaustively_up_to_four_points():
    for space in all_spaces_up_to(4):
        pts = space.points
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                s = frozenset(combo)
                comp = frozenset(pts) - s
                assert space.is_open(s) == space.is_closed(comp)
                assert space.is_open(s) == (s in oracle_open_sets(space))


def test_whole_space_open_and_foreign_points_rejected():
    assert S2.is_open(S2.points)
    assert S2.is_open({"s1"}) and not S2.is_open({"s0"})
    with pytest.raises(ValueError):
        S2.is_open({"zz"})
    with pytest.raises(ValueError):
        S2.closure({"zz"})


# -- continuity ------------------------------------------------------------


def flip():
    return total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})


def test_continuity_fixture_verdicts():
    assert is_continuous(identity_map(S2))
    assert not is_continuous(flip())
    assert is_continuous(constant_map(C3, S2, "s0"))
    assert is_continuous(empty_map(S2, D2))


def test_continuity_matches_preimage_oracle_exhaustively():
    spaces = all_spaces_up_to(2)
    for dom, cod in itertools.product(spaces, repeat=2):
        for f in all_partial_maps(dom, cod):
            assert is_continuous(f) == oracle_is_continuous(f), f.table
    three = [s for s in all_spaces_up_to(3) if len(s.points) == 3]
    for dom, cod in itertools.product(three, repeat=2):
        for f in all_total_maps(dom, cod):
            assert is_continuous(f) == oracle_is_continuous(f), f.table


def test_pointwise_continuity_aggregates_to_global():
    for dom, cod in ((S2, S2), (C3, D2), (I2, D2)):
        for f in all_total_maps(dom, cod):
            assert is_continuous(f) == all(
                is_continuous_at(f, x) for x in sorted(f.defined_on)
            )


def test_pointwise_continuity_requires_defined_point():
    f = make_map("half", S2, D2, {"s1": "0"})
    with pytest.raises(ValueError):
        is_continuous_at(f, "s0")


@given(spaces_st(1, 4), spaces_st(1, 4), spaces_st(1, 4), seeds, seeds)
def test_compose_of_continuous_is_continuous(a, b, c, s1, s2):
    f = random_continuous_map(a, b, seed=s1)
    g = random_continuous_map(b, c, seed=s2)
    assert is_continuous(compose(g, f))


@given(spaces_st(1, 4), spaces_st(1, 4), seeds, st.data())
def test_restriction_of_continuous_is_continuous(a, b, s, data):
    f = random_continuous_map(a, b, seed=s)
    sub = data.draw(st.sets(st.sampled_from(a.points)))
    assert is_continuous(restrict(f, sub))


# -- products and coproducts ----------------------------------------------


def test_product_examples():
    p = product((D2, D2)).space
    assert len(p.points) == 4
    assert all(p.up[i] == 1 << i for i in range(4))  # discrete x discrete
    q = product((S2, S2)).space
    assert q.below("(s0,s0)", "(s1,s1)")
    assert not q.below("(s1,s0)", "(s0,s1)")


def test_product_of_singleton_family_preserves_structure():
    p = product((S2,))
    assert [sorted(o) for o in map(p.space.set_of, p.space.up)]
    assert p.space.below("(s0)", "(s1)")


def test_empty_product_rejected():
    with pytest.raises(ValueError):
        product(())


def test_coproduct_examples():
    c = coproduct((S2, S2))
    assert len(c.space.points) == 4
    assert c.space.below("0.s0", "0.s1") and c.space.below("1.s0", "1.s1")
    assert not c.space.below("0.s0", "1.s1")
    assert coproduct(()).space.points == ()
    one = coproduct((S2,))
    assert one.space.points == ("0.s0", "0.s1")


def test_injections_and_projections_are_continuous():
    for fam in ((S2, D2), (C3, I2, S2)):
        for inj in coproduct(fam).injections:
            assert is_continuous(inj)
        for proj in product(fam).projections:
            assert is_continuous(proj)


def test_coproduct_requires_unique_tags_and_matching_arity():
    with pytest.raises(ValueError):
        coproduct((S2, S2), tags=("t", "t"))
    with pytest.raises(ValueError):
        coproduct((S2, S2), tags=("t",))


def test_subspace_examples():
    assert subspace(S2, {"s0"}).points == ("s0",)
    two = subspace(C3, {"a", "c"})
    assert two.below("a", "c") and not two.below("c", "a")
    full = subspace(S2, S2.points, name=S2.name)
    assert full.up == S2.up
    with pytest.raises(ValueError):
        subspace(S2, {"zz"})


@given(spaces_st(1, 4), spaces_st(1, 4), st.data())
def test_subspace_of_product_equals_product_of_subspaces(a, b, data):
    sa = data.draw(st.sets(st.sampled_from(a.points), min_size=1))
    sb = data.draw(st.sets(st.sampled_from(b.points), min_size=1))
    big = product((a, b)).space
    keep = [f"({x},{y})" for x in a.points for y in b.points if x in sa and y in sb]
    left = subspace(big, keep)
    right = product((subspace(a, sa), subspace(b, sb))).space
    pairs_of = lambda s: {
        (x, y) for x in s.points for y in s.points if s.below(x, y)
    }
    assert set(left.points) == set(right.points)
    assert pairs_of(left) == pairs_of(right)


# -- maps ------------------------------------------------------------------


def test_map_constructors_validate_rows():
    with pytest.raises(ValueError, match=r"not total \(missing s1\)"):
        total_map("f", S2, D2, {"s0": "0"})
    with pytest.raises(ValueError):
        make_map("f", S2, D2, {"s0": "7"})  # value outside codomain
    with pytest.raises(ValueError):
        PartialMap("f", S2, D2, (("s0", "0"), ("s0", "1")))  # duplicate row
    with pytest.raises(ValueError):
        make_map("f", S2, D2, {"zz": "0"})


def test_map_builders_reject_conflicting_rows():
    # pairs reach the row check as given, so a point cannot be given twice
    conflicting = [("s0", "s0"), ("s0", "s1"), ("s1", "s1")]
    for build in (make_map, partial_map, total_map):
        with pytest.raises(ValueError, match="duplicate row for 's0'"):
            build("f", S2, S2, conflicting)
        from_pairs = build("f", S2, S2, [("s0", "s1"), ("s1", "s1")])
        assert from_pairs == build("f", S2, S2, {"s0": "s1", "s1": "s1"})


def test_map_rows_name_the_unknown_point():
    # the point is looked up before the value, each with point_index's message
    cases = [
        ({"zz": "0"}, "undeclared point 'zz' in space 'sierpinski'"),
        ({"s0": "7"}, "undeclared point '7' in space 'discrete2'"),
        ({"s0": "0", "zz": "7"}, "undeclared point 'zz' in space 'sierpinski'"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError) as info:
            make_map("f", S2, D2, rows)
        assert str(info.value) == message


def test_make_map_classifies_totality():
    assert make_map("f", S2, D2, {"s0": "0", "s1": "1"}).is_total
    assert not make_map("f", S2, D2, {"s0": "0"}).is_total


def test_compose_defined_where_both_stages_are():
    f = make_map("f", C3, S2, {"a": "s0", "b": "s1"})
    g = make_map("g", S2, D2, {"s1": "1"})
    gf = compose(g, f)
    assert gf.defined_on == {"b"}
    assert gf("b") == "1"
    assert map_equal(compose(identity_map(S2), f), f)
    with pytest.raises(SpaceMismatchError):
        compose(f, f)


def test_delta_duplicates_points_and_is_continuous():
    d = delta(S2)
    assert d("s0") == "(s0,s0)"
    assert is_continuous(d)


def test_pi_pair_defined_on_product_of_defined_sets():
    f = make_map("f", S2, D2, {"s0": "0"})
    g = make_map("g", S2, D2, {"s1": "1"})
    fg = pi_pair(f, g)
    assert fg.defined_on == {"(s0,s1)"}
    assert fg("(s0,s1)") == "(0,1)"


def test_pi_power_flattens_and_requires_positive_exponent():
    f = flip()
    sq = pi_power(f, 2)
    assert sq("(s0,s1)") == "(s1,s0)"
    assert pi_power(f, 1) is f
    with pytest.raises(ValueError):
        pi_power(f, 0)


def test_restrict_narrows_definition_only():
    f = flip()
    r = restrict(f, {"s1"})
    assert r.dom == S2 and r.defined_on == {"s1"}
    assert restrict(f, ()).defined_on == frozenset()


def test_map_equal_semantics():
    f = flip()
    assert map_equal(f, f)
    assert map_equal(empty_map(S2, D2), empty_map(S2, D2, name="other"))
    assert not map_equal(f, restrict(f, {"s0"}))
    assert not map_equal(f, identity_map(S2))
    with pytest.raises(SpaceMismatchError):
        map_equal(f, identity_map(D2))


# -- problems and relations ------------------------------------------------


def test_problem_members_must_share_spaces():
    with pytest.raises(SpaceMismatchError):
        problem("P", S2, D2, [identity_map(S2)])
    p = problem("P", S2, D2, [empty_map(S2, D2)])
    assert len(p.members) == 1
    assert singleton_problem(flip()).members == (flip(),)


def test_choice_functions_enumerates_selections():
    r = relation("R", D2, D2, [("0", "0"), ("0", "1")])
    p = choice_functions(r)
    assert len(p.members) == 2
    assert all(m.defined_on == {"0"} for m in p.members)


def test_choice_functions_of_empty_relation_is_nowhere_defined_singleton():
    r = relation("R", D2, D2, [])
    p = choice_functions(r)
    assert len(p.members) == 1
    assert p.members[0].defined_on == frozenset()


def test_choice_functions_of_function_graph_is_singleton():
    r = relation("R", S2, S2, [("s0", "s1"), ("s1", "s0")])
    p = choice_functions(r)
    assert len(p.members) == 1
    assert map_equal(p.members[0], flip())


def test_choice_functions_capacity_guard():
    # 7 ** 7 = 823,543 selections, counted against CHOICE_CAP before any is built
    d7 = discrete(7)
    r = relation("R", d7, d7, [(x, y) for x in d7.points for y in d7.points])
    with pytest.raises(CapacityError, match="^relation 'R' has more than 10000 choice functions$"):
        choice_functions(r)


def test_relation_rejects_foreign_pairs():
    with pytest.raises(ValueError):
        relation("R", S2, D2, [("s0", "9")])


def test_relation_rows_are_checked_against_the_spaces():
    # one row per domain point, and no target past the codomain
    assert Relation("R", S2, D2, (0b01, 0b11)).pairs == (("s0", "0"), ("s1", "0"), ("s1", "1"))
    for rows in ((0b01,), (0b01, 0b11, 0), (0b100, 0), (-1, 0)):
        with pytest.raises(ValueError, match="rows out of range in relation 'R'"):
            Relation("R", S2, D2, rows)


# -- determinism of the random generators ---------------------------------


@given(st.integers(0, 5), st.sampled_from((0.0, 0.3, 0.8)), seeds)
def test_random_space_is_deterministic_and_valid(n, density, seed):
    a = random_space(n, edge_density=density, seed=seed)
    b = random_space(n, edge_density=density, seed=seed)
    assert a == b
    assert len(a.points) == n


@given(spaces_st(1, 4), spaces_st(1, 4), seeds)
def test_random_continuous_map_is_total_and_continuous(dom, cod, seed):
    f = random_continuous_map(dom, cod, seed=seed)
    assert f.is_total and is_continuous(f)


def test_members_sharing_a_name_keep_their_order_by_table():
    # the tables break ties among equal names, and only there
    S = sierpinski()
    a, b = S.points
    maps = [
        make_map(name, S, S, {a: x, b: y})
        for name in ("m", "k", "m")
        for x, y in ((b, a), (a, a), (b, b), (a, b))
    ]
    for order in (maps, maps[::-1], maps[3:] + maps[:3]):
        uniq = {}
        for m in order:
            uniq.setdefault(m.vec, m)
        want = tuple(sorted(uniq.values(), key=lambda m: (m.name, m.table)))
        assert problem("P", S, S, order).members == want
    same = [make_map("m", S, S, {a: x, b: y}) for x, y in ((b, b), (a, b), (a, a))]
    members = problem("P", S, S, same).members
    assert [m.table for m in members] == sorted(m.table for m in same)
    assert all("table" in m.__dict__ for m in same)


# -- refusals no other test reaches ----------------------------------------


def _problem_on_other_spaces():
    return Problem("P", S2, D2, (identity_map(S2),))


def _contains_on_other_spaces():
    return problem("P", S2, D2).contains(identity_map(S2))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Space("X", ("a", "a"), (1, 2)), ValueError, "duplicate point"),
        (lambda: Space("X", ("a",), ()), ValueError, "arity"),
        (lambda: Space("X", ("a",), (3,)), ValueError, "out of range"),
        (lambda: discrete(21).opens, CapacityError, "2\\*\\*21"),
        (lambda: build_space("X", ["a"], [("b", "a")]), ValueError, "undeclared point 'b'"),
        (lambda: make_map("h", S2, S2, {"s1": "s0"})("s0"), ValueError, "undefined at 's0'"),
        (_problem_on_other_spaces, SpaceMismatchError, "mismatched spaces"),
        (_contains_on_other_spaces, SpaceMismatchError, "mismatched spaces"),
    ],
    ids=[
        "duplicate-point", "arity", "out-of-range", "opens-capacity",
        "undeclared-below", "undefined-call", "problem-members", "problem-contains",
    ],
)
def test_spaces_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_long_chains_and_the_row_constructor():
    assert chain(27).points == tuple(f"c{i}" for i in range(27))
    rows = (("s0", "s1"), ("s1", "s0"))
    assert PartialMap("flip", S2, S2, rows) == make_map("flip", S2, S2, rows)
