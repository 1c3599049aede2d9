"""Join/meet constructions, their bound laws, and splitting along translations."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    CapacityError,
    ContredError,
    InvalidWitnessError,
    SpaceMismatchError,
    TaggedFamily,
    Witness2,
    chain,
    choice_functions,
    constant_map,
    decide,
    discrete,
    distribute2,
    distribute2_relation,
    empty_map,
    fibered_with_projections,
    identity_map,
    indiscrete,
    inf0,
    inf0_greatest_witness,
    inf0_lower_witness,
    is_continuous,
    le0_map,
    le2_map,
    le2_problem,
    make_map,
    map_equal,
    problem,
    product,
    random_map,
    random_partial_map,
    relation,
    restrict,
    sierpinski,
    singleton_problem,
    subspace,
    sup0,
    sup0_least_witness,
    sup0_problem,
    sup0_upper_witness,
    sup2,
    sup2_least_witness,
    sup2_problem,
    sup2_upper_witness,
    tagged,
    total_map,
    verify_glb,
    verify_lub,
    verify_witness0,
    verify_witness2,
)

from conftest import seeds, spaces_st, total_maps_st

S2 = sierpinski()
D2 = discrete(2)
I2 = indiscrete(2)
C3 = chain(3)

flip = total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
step = total_map("step", S2, D2, {"s0": "0", "s1": "1"})
alt3 = total_map("alt3", C3, D2, {"a": "0", "b": "1", "c": "0"})
c0 = constant_map(S2, D2, "0", name="c0")
c1 = constant_map(S2, D2, "1", name="c1")


# -- tagged families -------------------------------------------------------


def test_tagged_families_default_and_reject_duplicate_tags():
    fam = tagged([flip, step])
    assert fam.tags == ("0", "1") and fam.items == (flip, step)
    assert len(fam) == 2 and list(fam) == [("0", flip), ("1", step)]
    with pytest.raises(ValueError):
        tagged([flip, step], tags=("t", "t"))
    with pytest.raises(ValueError):
        tagged([flip], tags=("a", "b"))


def test_an_explicit_codomain_must_match_the_family():
    for build in (sup0, inf0):
        with pytest.raises(ContredError, match="explicit codomain disagrees"):
            build([c0], cod=S2)
        assert build([c0], cod=D2) == build([c0])


# -- joins for the one-query order ----------------------------------------


def test_join_glues_components_with_tags():
    j = sup2(tagged([flip, step], ("l", "r")))
    assert j("l.s0") == "l.s1" and j("r.s1") == "r.1"
    assert len(j.dom.points) == 4 and len(j.cod.points) == 4


def test_empty_join_is_the_empty_domain_bottom():
    bot = sup2([])
    assert bot.dom.points == () and bot.is_total
    w = le2_map(bot, flip)
    assert w is not None and verify_witness2(bot, flip, w)


def test_singleton_join_is_equivalent_to_its_member():
    j = sup2([alt3])
    assert le2_map(j, alt3) is not None and le2_map(alt3, j) is not None


def test_join_upper_witnesses_replay():
    fam = tagged([flip, step], tags=("l", "r"))
    j = sup2(fam)
    for tag, item in fam:
        w = sup2_upper_witness(fam, tag)
        assert verify_witness2(item, j, w)


def test_join_least_witness_assembles_member_reductions():
    fam = tagged([c0, alt3])
    bound = sup2([c0, alt3, flip])  # strictly bigger join is an upper bound
    member_ws = [le2_map(item, bound) for _, item in fam]
    assert all(w is not None for w in member_ws)
    w = sup2_least_witness(fam, bound, member_ws)
    assert verify_witness2(sup2(fam), bound, w)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(total_maps_st(max_points=3), min_size=0, max_size=3),
    total_maps_st(max_points=3),
)
def test_join_bound_laws_hold_for_generated_families(members, extra):
    fam = tagged(members)
    j = sup2(fam)
    for tag, item in fam:
        assert verify_witness2(item, j, sup2_upper_witness(fam, tag))
    pool = [j, extra, sup2(list(members) + [extra])]
    report = verify_lub(j, fam, pool, relation="le2")
    assert report.ok, report.violations


# -- joins for the composition order --------------------------------------


def test_common_codomain_join_keeps_the_codomain():
    j = sup0(tagged([c0, c1], ("a", "b")))
    assert j.cod == D2 and j("a.s0") == "0" and j("b.s0") == "1"
    # strictly above each constant: they reduce to it, not conversely
    assert le0_map(c0, j) is not None and le0_map(c1, j) is not None
    assert le0_map(j, c0) is None and le0_map(j, c1) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: sup0([flip, step]),
        lambda: sup0([c0], cod=S2),
        lambda: sup0_problem([singleton_problem(flip), singleton_problem(step)]),
        lambda: inf0([flip, step]),
        lambda: inf0([c0], cod=S2),
        lambda: fibered_with_projections([flip, step]),
    ],
    ids=["sup0", "sup0-cod", "sup0_problem", "inf0", "inf0-cod", "fibered"],
)
def test_a_codomain_mismatch_in_a_join_or_meet_is_a_space_mismatch(build):
    # as for le0, compose and map_equal; still a ContredError and a ValueError
    with pytest.raises(SpaceMismatchError):
        build()


def test_common_codomain_join_requires_one():
    with pytest.raises(ContredError):
        sup0([flip, step])
    with pytest.raises(ValueError):
        sup0([])  # empty family needs an explicit codomain
    e = sup0([], cod=D2)
    assert e.cod == D2 and e.dom.points == ()


def test_composition_join_witnesses_replay():
    fam = tagged([c0, c1])
    j = sup0(fam)
    for tag, item in fam:
        assert verify_witness0(item, j, sup0_upper_witness(fam, tag))
    bound = sup0([c0, c1, step])
    member_ws = [le0_map(item, bound) for _, item in fam]
    w = sup0_least_witness(fam, bound, member_ws)
    assert verify_witness0(j, bound, w)


@settings(max_examples=30, deadline=None)
@given(spaces_st(1, 3), st.integers(1, 3), seeds)
def test_composition_join_bound_laws(cod, size, seed):
    from contred import random_map, random_space

    members = [
        random_map(random_space(2, seed=seed + k), cod, seed=seed + k, name=f"m{k}")
        for k in range(size)
    ]
    fam = tagged(members)
    j = sup0(fam)
    pool = [j] + members
    report = verify_lub(j, fam, pool, relation="le0")
    assert report.ok, report.violations


# -- problem joins ---------------------------------------------------------


def test_problem_join_of_singletons_is_the_singleton_join():
    pj = sup2_problem([singleton_problem(flip), singleton_problem(step)])
    assert len(pj.members) == 1
    direct = sup2([flip, step])
    assert map_equal(pj.members[0], direct)


def test_problem_join_with_an_empty_factor_is_empty():
    pj = sup2_problem([singleton_problem(flip), problem("none", S2, D2, ())])
    assert pj.members == ()


def test_each_factor_reduces_to_the_problem_join():
    p = problem("p", S2, S2, [flip, identity_map(S2)])
    q = singleton_problem(step, name="q")
    pj = sup2_problem(tagged([p, q], ("p", "q")))
    for factor in (p, q):
        w = le2_problem(factor, pj)
        assert w is not None and verify_witness2(factor, pj, w)


def test_problem_join_capacity_guard():
    # 27 ** 3 = 19,683 selections, counted against SELECTION_CAP before any
    # join is built
    d3 = discrete(3)
    many = problem("many", d3, d3, [
        total_map(f"m{k}", d3, d3, zip(d3.points, values))
        for k, values in enumerate(itertools.product(d3.points, repeat=3))
    ])
    assert len(many.members) == 27
    with pytest.raises(CapacityError, match="^more than 10000 member selections in sup2_problem$"):
        sup2_problem([many, many, many])
    pj0 = sup0_problem([singleton_problem(c0), singleton_problem(c1)])
    assert len(pj0.members) == 1 and pj0.members[0].cod == D2


# -- meets for the composition order --------------------------------------


def test_meet_of_a_map_with_itself_is_its_diagonal():
    m = inf0(tagged([flip, flip], ("a", "b")))
    assert sorted(m.dom.points) == ["(s0,s0)", "(s1,s1)"]
    assert le0_map(m, flip) is not None and le0_map(flip, m) is not None


def test_meet_of_disjoint_constants_is_the_empty_bottom():
    m = inf0([c0, c1])
    assert m.dom.points == ()
    assert le0_map(m, c0) is not None  # bottom reduces to everything


def test_empty_meet_is_the_indiscrete_identity_top():
    top = inf0([], cod=D2)
    assert top.cod == D2 and set(top.dom.points) == set(D2.points)
    assert all(m == top.dom.full_mask for m in top.dom.up)
    for f in (c0, c1, step):
        assert le0_map(f, top) is not None


def test_meet_lower_witnesses_replay():
    fam = tagged([flip, identity_map(S2)], tags=("f", "i"))
    m = inf0(fam)
    for tag, item in fam:
        w = inf0_lower_witness(fam, tag)
        assert verify_witness0(m, item, w)


def test_meet_greatest_witness_tuples_member_translations():
    fam = tagged([step, step], tags=("a", "b"))
    m = inf0(fam)
    lower = c0  # constant reduces into both copies
    member_ws = [le0_map(lower, item) for _, item in fam]
    assert all(w is not None for w in member_ws)
    w = inf0_greatest_witness(fam, lower, member_ws)
    assert verify_witness0(lower, m, w)


def test_the_empty_family_has_least_and_greatest_witnesses():
    # the empty join sits below every map into its codomain, the empty
    # meet above every one; total and partial bounds alike
    half = make_map("half", S2, D2, {"s1": "0"})
    for bound in (step, half):
        w = sup0_least_witness([], bound, [])
        assert verify_witness0(sup0([], cod=D2), bound, w)
        w = inf0_greatest_witness([], bound, [])
        assert w.translation.vec == bound.vec
        assert verify_witness0(bound, inf0([], cod=D2), w)
    with pytest.raises(SpaceMismatchError, match="common codomain"):
        sup0_least_witness([c0], flip, [le0_map(c0, c0)])


def test_meet_bound_laws_against_a_pool():
    fam = tagged([step, identity_map(D2)])
    m = inf0(fam)
    pool = [m, c0, c1, empty_map(S2, D2)]
    report = verify_glb(m, fam, pool, relation="le0")
    assert report.ok, report.violations


def test_fibered_construction_exposes_agreeing_tuples():
    sub, projections, common = fibered_with_projections([step, step])
    assert sorted(sub.points) == ["(s0,s0)", "(s1,s1)"]
    for proj in projections:
        assert is_continuous(proj)
    assert map_equal(common, restrict_common(projections, step, sub))


def restrict_common(projections, member, sub):
    from contred import compose

    return compose(member, projections[0])


def test_bound_checkers_flag_false_candidates():
    fam = tagged([c0])
    toobig = sup0([c0, c1])  # strictly above the true join of {c0}
    report = verify_lub(toobig, fam, pool=[sup0([c0])], relation="le0")
    assert not report.ok and any("bounds the family" in v for v in report.violations)
    notbelow = verify_lub(c1, tagged([c0]), pool=[], relation="le0")
    assert not notbelow.ok and any("not below" in v for v in notbelow.violations)
    glb = verify_glb(c0, tagged([c1]), pool=[], relation="le0")
    assert not glb.ok
    notabove = verify_glb(c1, [c0], pool=[], relation="le0")
    assert notabove.violations == ("candidate is not below member 0 (c0)",)
    notgreatest = verify_glb(empty_map(S2, D2), [c0], pool=[c0], relation="le0")
    assert notgreatest.violations == (
        "pool item c0 bounds the family but not the candidate",
    )


@st.composite
def bound_checks(draw):
    """A relation, a family, a candidate and a pool of maps on at most two
    points; under le0 they share one codomain."""
    relation = draw(st.sampled_from(("le0", "le2")))
    shared = draw(spaces_st(1, 2))
    items = []
    for k in range(draw(st.integers(2, 6))):
        dom = draw(spaces_st(0, 2))
        cod = shared if relation == "le0" else draw(spaces_st(1, 2))
        build = draw(st.sampled_from((random_map, random_partial_map)))
        items.append(build(dom, cod, seed=draw(seeds), name=f"i{k}"))
    size = draw(st.integers(1, len(items) - 1))
    return relation, items[:size], items[size], items


@settings(max_examples=60, deadline=None)
@given(bound_checks())
def test_bound_checkers_match_both_halves_decided_directly(case):
    relation, family, candidate, pool = case

    def below(a, b):
        return decide(a, b, relation) is not None

    def unbounding(above):
        return [
            f"pool item {o.name} bounds the family but not the candidate"
            for o in pool
            if all(above(m, o) for m in family) and not above(candidate, o)
        ]

    lub = [
        f"member {k} ({m.name}) is not below the candidate"
        for k, m in enumerate(family)
        if not below(m, candidate)
    ] + unbounding(below)
    glb = [
        f"candidate is not below member {k} ({m.name})"
        for k, m in enumerate(family)
        if not below(candidate, m)
    ] + unbounding(lambda a, b: below(b, a))
    for verify, expected in ((verify_lub, lub), (verify_glb, glb)):
        report = verify(candidate, family, pool, relation)
        assert report.violations == tuple(expected)
        assert report.ok == (not expected)


# -- the splitting construction -------------------------------------------


def identity_witness_for(j):
    """The self-reduction that queries the join at the input itself."""
    prod = product((j.dom, j.cod))
    rows = {}
    for p, (x, a) in prod.origin.items():
        if a == j(x):
            rows[p] = j(x)
    return Witness2(identity_map(j.dom), make_map("F_id", prod.space, j.cod, rows))


def test_splitting_a_join_recovers_the_components():
    fam = tagged([flip, step], tags=("l", "r"))
    j = sup2(fam)
    w = identity_witness_for(j)
    assert verify_witness2(j, j, w)
    parts = distribute2(j, fam, w)
    assert parts.tags == ("l", "r")
    left, right = parts.items
    assert left.defined_on == {"l.s0", "l.s1"}
    assert right.defined_on == {"r.s0", "r.s1"}
    # pieces reduce to their components and rejoin to the original
    assert le2_map(left, flip) is not None
    assert le2_map(right, step) is not None
    assert le2_map(j, sup2(parts)) is not None


def test_splitting_with_a_one_sided_translation_empties_the_other_piece():
    fam = tagged([flip, flip], tags=("l", "r"))
    j = sup2(fam)
    base = le2_map(flip, flip)
    # route every query through the left copy
    g = make_map(
        "G", S2, j.dom, {x: f"l.{base.translation(x)}" for x in S2.points}
    )
    prod = product((S2, j.cod))
    f_rows = {}
    for p, combo in prod.origin.items():
        x, ans = combo
        if ans == f"l.{flip(x)}":
            f_rows[p] = flip(x)
    w = Witness2(g, make_map("F", prod.space, S2, f_rows))
    assert verify_witness2(flip, j, w)
    parts = distribute2(flip, fam, w)
    assert parts.items[0].defined_on == {"s0", "s1"}
    assert parts.items[1].defined_on == frozenset()


def test_splitting_pieces_live_on_clopen_sets():
    fam = tagged([alt3, flip], tags=("u", "v"))
    j = sup2(fam)
    w = le2_map(j, j)
    parts = distribute2(j, fam, w)
    whole = subspace(j.dom, j.defined_on, name="whole")
    for piece in parts.items:
        assert whole.is_open(piece.defined_on)
        assert whole.is_closed(piece.defined_on)


def test_splitting_rejects_invalid_witnesses():
    fam = tagged([flip, step], tags=("l", "r"))
    j = sup2(fam)
    bogus = Witness2(
        make_map("G", S2, j.dom, {"s0": "l.s0", "s1": "l.s1"}),
        make_map("F", product((S2, j.cod)).space, S2, {}),
    )
    with pytest.raises(InvalidWitnessError):
        distribute2(flip, fam, bogus)


def choice_split_case():
    """r1 constrains source 0, r2 constrains source 1, rel holds both rows;
    the witness reduces rel's choice problem to the join of theirs."""
    r1 = relation("r1", D2, D2, [("0", "0"), ("0", "1")])
    r2 = relation("r2", D2, D2, [("1", "1")])
    rel = relation("rel", D2, D2, [("0", "0"), ("0", "1"), ("1", "1")])
    joined = sup2_problem(
        tagged([choice_functions(r1), choice_functions(r2)], ("L", "R"))
    )
    g = make_map("G", D2, joined.dom, {"0": "L.0", "1": "R.1"})
    prod = product((D2, joined.cod))
    f_rows = {}
    for p, (x, a) in prod.origin.items():
        tag, y = a.split(".", 1)
        if (x == "0" and tag == "L") or (x == "1" and tag == "R"):
            f_rows[p] = y
    w = Witness2(g, make_map("F", prod.space, D2, f_rows))
    assert verify_witness2(choice_functions(rel), joined, w)
    return rel, [r1, r2], w


def test_splitting_choice_relations(monkeypatch):
    import contred.lattice

    rel, (r1, r2), w = choice_split_case()
    real, built = contred.lattice.choice_functions, []

    def counted(r, *args):
        built.append(r.name)
        return real(r, *args)

    monkeypatch.setattr(contred.lattice, "choice_functions", counted)
    parts = distribute2_relation(rel, tagged([r1, r2], ("L", "R")), w)
    # each choice problem is built once: the relation's, each member's and
    # each piece's
    assert sorted(built) == ["r1", "r2", "rel", "rel_L", "rel_R"]
    assert parts.tags == ("L", "R")
    got = {tag: sorted(piece.pairs) for tag, piece in parts}
    assert got["L"] == [("0", "0"), ("0", "1")]
    assert got["R"] == [("1", "1")]
    for (tag, piece), original in zip(parts, (r1, r2)):
        wp = le2_problem(choice_functions(piece), choice_functions(original))
        assert wp is not None


@pytest.mark.parametrize(
    "form, refused, message",
    [
        ("map", 0, "piece 'sup2(flip,step)_l' does not reduce to 'flip'"),
        ("map", 2, "pieces do not reassemble to the original map"),
        ("relation", 0, "piece 'rel_L' does not reduce to 'r1'"),
        ("relation", 2, "pieces do not reassemble to the original relation"),
    ],
    ids=["map-piece", "map-rejoin", "relation-piece", "relation-rejoin"],
)
def test_splitting_re_decides_the_pieces_and_their_rejoin(
    monkeypatch, form, refused, message
):
    # the first ``refused`` decisions (one per piece) are real, later ones say no
    import contred.lattice

    real, calls = contred.lattice.decide, []

    def refusing(*args):
        calls.append(args)
        return None if len(calls) > refused else real(*args)

    if form == "map":
        fam = tagged([flip, step], tags=("l", "r"))
        j = sup2(fam)
        args = (j, fam, identity_witness_for(j))
        split = distribute2
    else:
        rel, fam, w = choice_split_case()
        args = (rel, tagged(fam, ("L", "R")), w)
        split = distribute2_relation
    monkeypatch.setattr(contred.lattice, "decide", refusing)
    with pytest.raises(ContredError) as exc:
        split(*args)
    assert str(exc.value) == message


# -- refusals no other test reaches ----------------------------------------


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: fibered_with_projections([]), ValueError, "at least one map"),
        (
            lambda: fibered_with_projections([empty_map(S2, D2)]),
            ValueError,
            "total maps",
        ),
        (
            lambda: sup0_least_witness([c0, c1], step, [le0_map(c0, step)]),
            InvalidWitnessError,
            "member witnesses do not fit the family",
        ),
        (
            lambda: sup2_least_witness([c0, c1], step, [le2_map(c0, step)]),
            InvalidWitnessError,
            "member witnesses do not fit the family",
        ),
        (
            lambda: sup2_least_witness(
                [c0, c1], step, [le0_map(c0, step), le0_map(c1, step)]
            ),
            InvalidWitnessError,
            "member witnesses do not fit the family",
        ),
    ],
    ids=[
        "fibered-empty",
        "fibered-partial",
        "sup0-one-witness",
        "sup2-one-witness",
        "sup2-composition-witnesses",
    ],
)
def test_lattice_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
