"""Degree posets, level slicing, admissibility, and the search helpers."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contred.explore
from contred import (
    UNBOUNDED,
    Budget,
    ContredError,
    LevelValue,
    SearchExhaustedError,
    SpaceMismatchError,
    admissible,
    basesize,
    chain,
    constant_map,
    corpus_from_items,
    decide,
    decompose_by_level,
    degree_poset,
    discrete,
    empty_map,
    identity_map,
    indiscrete,
    injective_indiscrete_map,
    is_continuous,
    is_surjective,
    le0_map,
    le2_map,
    level,
    make_map,
    map_equal,
    mod_chain_map,
    parse,
    problem,
    random_continuous_map,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    search_antichain,
    search_lev_bas_witness,
    sierpinski,
    serialize,
    singleton_problem,
    sup0,
    sup2,
    to_dot,
    total_map,
)
from contred.explore import enumerate_continuous_partial, enumerate_continuous_total

from conftest import (
    all_partial_maps,
    all_spaces_up_to,
    all_total_maps,
    assert_valid_dot,
    problems_st,
    run_python,
    seeds,
    spaces_st,
)

S2 = sierpinski()
D2 = discrete(2)
I2 = indiscrete(2)
C3 = chain(3)

flip = total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
step = total_map("step", S2, D2, {"s0": "0", "s1": "1"})


# -- continuous-map enumeration -------------------------------------------


def test_continuous_map_counts_on_small_spaces():
    assert len(enumerate_continuous_total(chain(2), chain(2))) == 3
    assert len(enumerate_continuous_total(C3, C3)) == 10
    assert len(enumerate_continuous_total(I2, D2)) == 2
    assert len(enumerate_continuous_total(D2, D2)) == 4
    partials = enumerate_continuous_partial(S2, D2)
    assert all(is_continuous(f) for f in partials)
    assert len(partials) == len({f.table for f in partials})


# -- degree posets ---------------------------------------------------------


def test_bottom_continuous_and_flip_form_a_three_class_chain():
    bot = empty_map(S2, S2, name="bot")
    konst = constant_map(S2, S2, "s0", name="konst")
    poset = degree_poset([bot, konst, flip], relation="le2")
    labels = [poset.class_label(c) for c in range(len(poset.classes))]
    assert sorted(labels) == ["bot", "flip", "konst"]
    c_bot, c_konst, c_flip = (labels.index(n) for n in ("bot", "konst", "flip"))
    assert poset.class_below(c_bot, c_konst) and poset.class_below(c_konst, c_flip)
    assert not poset.class_below(c_flip, c_konst)
    assert len(poset.hasse) == 2


def test_equivalent_maps_share_a_class():
    poset = degree_poset([flip, step], relation="le2")
    assert len(poset.classes) == 1
    assert poset.class_label(0) == "flip, step"


def test_single_item_degree_poset():
    poset = degree_poset([flip], relation="le2")
    assert len(poset.classes) == 1 and poset.hasse == ()


def test_degree_poset_matrix_is_reflexive_transitive_and_hasse_regenerates():
    items = [
        empty_map(S2, D2, name="bot"),
        constant_map(S2, D2, "0", name="k0"),
        step,
        total_map("alt3", C3, D2, {"a": "0", "b": "1", "c": "0"}),
    ]
    poset = degree_poset(items, relation="le2")
    n = len(items)
    assert all(poset.matrix[i][i] for i in range(n))
    for i, j, k in itertools.product(range(n), repeat=3):
        if poset.matrix[i][j] and poset.matrix[j][k]:
            assert poset.matrix[i][k]
    # transitive closure of the cover relation = the class order
    m = len(poset.classes)
    reach = [[a == b for b in range(m)] for a in range(m)]
    for a, b in poset.hasse:
        reach[a][b] = True
    for _ in range(m):
        for a, b in itertools.product(range(m), repeat=2):
            if any(reach[a][c] and reach[c][b] for c in range(m)):
                reach[a][b] = True
    for a, b in itertools.product(range(m), repeat=2):
        assert reach[a][b] == poset.class_below(a, b)


def test_degree_poset_input_validation():
    with pytest.raises(TypeError):
        degree_poset([flip, singleton_problem(step)], relation="le2")
    with pytest.raises(ValueError):
        degree_poset([flip, total_map("flip", S2, S2, {"s0": "s0", "s1": "s1"})])
    with pytest.raises(SpaceMismatchError):
        degree_poset([flip, step], relation="le0")


INTRANSITIVE_POSET = """
import contred.explore
from contred import (
    ContredError, constant_map, degree_poset, discrete, sierpinski, total_map
)

S2, D2 = sierpinski(), discrete(2)
below = {("flip", "step"), ("step", "k")}  # flip <= step <= k, but not flip <= k


def fake_decide(a, b, *_):
    return True if a.name == b.name or (a.name, b.name) in below else None


contred.explore.decide = fake_decide
items = [
    total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"}),
    total_map("step", S2, D2, {"s0": "0", "s1": "1"}),
    constant_map(S2, D2, "0", name="k"),
]
try:
    degree_poset(items)
except ContredError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_degree_poset_raises_on_an_intransitive_decider(flags):
    done = run_python(*flags, "-c", INTRANSITIVE_POSET)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: le2 is not transitive"), done.stdout


MEMBER_INTRANSITIVE_POSET = """
import contred.explore
from contred import ContredError, constant_map, degree_poset, discrete, sierpinski

S2, D2 = sierpinski(), discrete(2)
# decided in name order a, b, c: c joins b's class, and only its entry
# against the earlier representative a is inconsistent: c <= a but not
# b <= a
below = {("c", "a"), ("c", "b"), ("b", "c")}


def fake_decide(a, b, *_):
    return True if a.name == b.name or (a.name, b.name) in below else None


contred.explore.decide = fake_decide
items = [constant_map(S2, D2, "0", name=name) for name in ("a", "b", "c")]
try:
    degree_poset(items)
except ContredError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_degree_poset_checks_a_member_against_earlier_representatives(flags):
    done = run_python(*flags, "-c", MEMBER_INTRANSITIVE_POSET)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: le2 is not transitive on 'b', 'c', 'a'\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_degree_poset_checks_earlier_representatives_below_a_member(flags):
    # the mirror case: a <= c and c joins b's class, but not a <= b
    below = '{("a", "c"), ("c", "b"), ("b", "c")}'
    script = MEMBER_INTRANSITIVE_POSET.replace('{("c", "a"), ("c", "b"), ("b", "c")}', below)
    assert script != MEMBER_INTRANSITIVE_POSET
    done = run_python(*flags, "-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: le2 is not transitive on 'a', 'c', 'b'\n"


@pytest.fixture()
def decisions(monkeypatch):
    """The (lhs, rhs) name pairs ``degree_poset`` decides, in order."""
    seen = []
    real = contred.explore.decide

    def counting(a, b, *rest):
        seen.append((a.name, b.name))
        return real(a, b, *rest)

    monkeypatch.setattr(contred.explore, "decide", counting)
    return seen


def _classy_pool():
    # seven new maps in four le2 classes: {bot}, {konst, ident, k1},
    # {flip, step} and {alt3}
    return [
        empty_map(S2, S2, name="bot"),
        constant_map(S2, S2, "s0", name="konst"),
        total_map("flip", S2, S2, {"s0": "s1", "s1": "s0"}),
        identity_map(S2, name="ident"),
        total_map("step", S2, D2, {"s0": "0", "s1": "1"}),
        constant_map(S2, D2, "1", name="k1"),
        total_map("alt3", C3, D2, {"a": "0", "b": "1", "c": "0"}),
    ]


def test_degree_poset_decides_against_class_representatives(decisions):
    poset = degree_poset(_classy_pool(), relation="le2")
    assert [poset.class_label(c) for c in range(len(poset.classes))] == [
        "alt3", "bot", "flip, step", "ident, k1, konst"
    ]
    # in name order, each item is decided both ways against the
    # representatives before the one it joins; a new representative also
    # against itself: alt3 1, bot 2+1, flip 4+1, ident 6+1, k1 8, konst 8,
    # step 6
    assert len(decisions) == 38 < 7 * 7
    reps = {"alt3", "bot", "flip", "ident"}
    assert {a for a, b in decisions if a == b} == reps
    assert all(a in reps or b in reps for a, b in decisions)
    # the members' entries are read from their representatives'
    assert poset.matrix == _full_matrix(_classy_pool(), "le2")


def test_degree_poset_does_the_same_work_in_every_order(decisions):
    pool = _classy_pool()
    full = _full_matrix(pool, "le2")
    first = None
    for order in itertools.permutations(range(len(pool))):
        decisions.clear()
        poset = degree_poset([pool[i] for i in order], relation="le2")
        labels = [poset.class_label(c) for c in range(len(poset.classes))]
        covers = [(labels[a], labels[b]) for a, b in poset.hasse]
        got = (list(decisions), labels, covers)
        if first is None:
            first = got
        assert got == first, order
        assert poset.matrix == tuple(tuple(full[i][j] for j in order) for i in order)
    assert len(first[0]) == 38


@pytest.mark.parametrize("seed", range(4))
def test_a_shared_budget_spends_the_same_in_every_order(seed):
    rng = random.Random(seed)
    spent = set()
    for _ in range(6):
        pool = _classy_pool()  # new maps, so that no answer is kept
        rng.shuffle(pool)
        budget = Budget()
        degree_poset(pool, relation="le2", budget=budget)
        spent.add(budget.used)
    assert len(spent) == 1 and spent.pop() > 0


def test_lect_poset_decides_every_ordered_pair(decisions):
    pool = [x for x in _classy_pool() if x.is_total]
    poset = degree_poset(pool, relation="lect")
    assert sorted(decisions) == sorted(
        (a.name, b.name) for a in pool for b in pool
    )
    assert poset.matrix == _full_matrix(pool, "lect")
    # nothing joins under lect, yet equivalent items share a class
    assert [poset.class_label(c) for c in range(len(poset.classes))] == [
        "alt3, flip, step", "ident, k1, konst"
    ]


def _full_matrix(items, relation):
    return tuple(
        tuple(decide(a, b, relation) is not None for b in items) for a in items
    )


def _full_matrix_poset(items, relation):
    """The matrix of every ordered pair, decided one by one, with the
    classes and covers read off it; both are None when it is not a
    preorder."""
    matrix = _full_matrix(items, relation)
    n = len(items)
    if not all(
        matrix[i][i] and all(
            matrix[i][k] or not (matrix[i][j] and matrix[j][k])
            for j in range(n) for k in range(n)
        )
        for i in range(n)
    ):
        return matrix, None, None
    classes = sorted(
        {
            tuple(j for j in range(n) if matrix[i][j] and matrix[j][i])
            for i in range(n)
        },
        key=lambda c: sorted(items[i].name for i in c),
    )

    def below(a, b):
        return matrix[classes[a][0]][classes[b][0]]

    m = range(len(classes))
    hasse = tuple(
        (a, b)
        for a in m
        for b in m
        if a != b
        and below(a, b)
        and not any(c not in (a, b) and below(a, c) and below(c, b) for c in m)
    )
    return matrix, tuple(classes), hasse


@st.composite
def poset_pools(draw, relation):
    """Maps drawn with repeats from a few domains, codomains and seeds, so
    that pools hold repeated degrees; lect takes total maps only, and le0
    one codomain.  Under le0 and le2 a pool may hold problems instead."""
    if relation != "lect" and draw(st.booleans()):
        problems = problems_st(max_points=2, max_members=2)
        pool = draw(st.lists(problems, min_size=2, max_size=6))
        if relation == "le0":
            pool = [x for x in pool if x.cod == pool[0].cod]
        # random_problem names by seed, and poset items need distinct names
        pool = [problem(f"P{k}", x.dom, x.cod, x.members) for k, x in enumerate(pool)]
        return relation, pool
    max_points = 3 if relation == "lect" else 4
    doms = draw(st.lists(spaces_st(0, max_points), min_size=1, max_size=3))
    one_cod = relation == "le0"
    cods = draw(st.lists(spaces_st(1, 3), min_size=1, max_size=1 if one_cod else 2))
    pool = []
    for k in range(draw(st.integers(2, 8))):
        dom, cod = draw(st.sampled_from(doms)), draw(st.sampled_from(cods))
        total = relation == "lect" or draw(st.booleans())
        make = random_map if total else random_partial_map
        pool.append(make(dom, cod, seed=draw(st.integers(0, 3)), name=f"m{k}"))
    return relation, pool


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["le0", "le2", "lect"]).flatmap(poset_pools))
def test_degree_poset_agrees_with_the_full_matrix(case):
    relation, pool = case
    matrix, classes, hasse = _full_matrix_poset(pool, relation)
    if classes is None:
        assert relation == "lect"  # le0 and le2 are preorders
        with pytest.raises(ContredError, match="not transitive"):
            degree_poset(pool, relation=relation)
        return
    poset = degree_poset(pool, relation=relation)
    assert poset.matrix == matrix
    assert poset.classes == classes
    assert poset.hasse == hasse


def test_dot_output_is_valid_and_deterministic():
    poset = degree_poset(
        [empty_map(S2, S2, name="bot"), constant_map(S2, S2, "s0", name="konst"), flip]
    )
    dot = to_dot(poset)
    assert_valid_dot(dot)
    assert dot == to_dot(poset)
    assert '"bot" -> "konst";' in dot and '"konst" -> "flip";' in dot
    assert '"bot" -> "flip";' not in dot  # covers only, no transitive edge


def test_dot_escapes_awkward_labels():
    weird = total_map('we"ird', S2, S2, {"s0": "s1", "s1": "s0"})
    dot = to_dot(degree_poset([weird]))
    assert_valid_dot(dot)
    assert '\\"' in dot


# -- level slicing ---------------------------------------------------------


def test_slicing_a_continuous_map_holds_trivially():
    konst = constant_map(C3, D2, "0", name="konst")
    out = decompose_by_level(konst, (1,))
    assert out.holds and len(out.parts) == 1
    assert map_equal(out.parts.items[0], konst)


def test_slicing_on_a_discrete_domain_holds_for_any_thresholds():
    f = random_map(discrete(3), D2, seed=5)
    out = decompose_by_level(f, (1, 2))
    assert out.holds
    for part in out.parts.items:
        assert map_equal(part, f)


def test_slicing_flip_records_a_verdict_without_overclaiming():
    out = decompose_by_level(flip, (1,))
    part = out.parts.items[0]
    assert part.defined_on == {"s1"}  # the level-1 survivors are removed
    assert isinstance(out.holds, bool)
    # the guaranteed direction: the joined slices reduce to the original
    joined = sup2(out.parts.items, tags=out.parts.tags)
    assert le2_map(joined, flip) is not None


def test_slicing_threshold_validation():
    with pytest.raises(ValueError):
        decompose_by_level(flip, ())
    with pytest.raises(ValueError):
        decompose_by_level(flip, (2, 1))
    with pytest.raises(ValueError):
        decompose_by_level(flip, (1, 1))


@settings(max_examples=30, deadline=None)
@given(spaces_st(1, 3), spaces_st(1, 3), seeds, st.integers(1, 3))
def test_slicing_first_direction_always_holds(dom, cod, seed, t):
    f = random_partial_map(dom, cod, seed=seed)
    out = decompose_by_level(f, tuple(range(1, t + 1)))
    joined = sup2(out.parts.items, tags=out.parts.tags)
    assert le2_map(joined, f) is not None


# -- admissibility ---------------------------------------------------------


def test_surjections_from_discrete_domains_are_admissible():
    d3 = discrete(3)
    onto = total_map("onto", d3, S2, {"0": "s0", "1": "s1", "2": "s0"})
    assert is_surjective(onto) and admissible(onto)
    notonto = constant_map(d3, S2, "s0", name="notonto")
    assert not is_surjective(notonto) and not admissible(notonto)


def test_the_reference_join_itself_is_admissible():
    ref = sup0(enumerate_continuous_partial(discrete(1), D2), cod=D2)
    assert admissible(ref)


def _admissible_by_definition(f):
    # the literal definition: f and the join of every continuous partial
    # map with f's source and target, each le0 below the other
    join = sup0(enumerate_continuous_partial(f.dom, f.cod), cod=f.cod)
    return le0_map(f, join) is not None and le0_map(join, f) is not None


def test_admissible_agrees_with_the_join_it_never_builds():
    maps = [
        f
        for X in all_spaces_up_to(2)
        for Y in (discrete(1), D2, S2)
        for every in (all_total_maps, all_partial_maps)
        for f in every(X, Y)
    ]
    for s in range(8):
        X = random_space(3, 0.3, s)
        for Y in (D2, S2):
            maps += [random_map(X, Y, s), random_partial_map(X, Y, s)]
            maps.append(random_continuous_map(X, Y, s))
    verdicts = [admissible(f) for f in maps]
    assert verdicts == [_admissible_by_definition(f) for f in maps]
    assert True in verdicts and False in verdicts


def test_admissible_answers_where_the_join_runs_out():
    # 706 members: their join's le0 search on this 6-point domain spends
    # the default budget, while the members answer no one by one
    f = random_continuous_map(random_space(6, 0.3, 1), chain(3), 1)
    assert len(enumerate_continuous_partial(f.dom, f.cod)) == 706
    assert admissible(f) is False


def test_surjectivity_helper():
    assert is_surjective(identity_map(S2))
    assert not is_surjective(constant_map(S2, S2, "s0"))
    assert is_surjective(empty_map(S2, discrete(0)))


# -- named witness maps ----------------------------------------------------


def test_mod_chain_map_profiles():
    m = mod_chain_map(5, 3)
    assert level(m, 1) == 5 and basesize(m) == 3
    assert m.name == "mod3x5" and m.cod.points == ("0", "1", "2")
    # degenerate sizes still build valid maps outside the sweet spot
    assert mod_chain_map(0, 1).dom.n == 0
    assert basesize(mod_chain_map(3, 4)) == 3  # only 3 labels are used
    with pytest.raises(ValueError):
        mod_chain_map(-1, 2)
    with pytest.raises(ValueError):
        mod_chain_map(3, 0)


def test_injective_indiscrete_map_profiles():
    b = injective_indiscrete_map(2)
    assert level(b, 1) is UNBOUNDED and basesize(b) == 2
    tiny = injective_indiscrete_map(1)  # a single point cannot blur
    assert level(tiny, 1) == 1 and basesize(tiny) == 1


# -- searches --------------------------------------------------------------


def test_search_finds_requested_level_and_base_profiles():
    f = search_lev_bas_witness(1, 1)
    assert level(f, 1) == 1 and basesize(f) == 1
    g = search_lev_bas_witness(3, 2)
    assert level(g, 1) == 3 and basesize(g) == 2
    h = search_lev_bas_witness(UNBOUNDED, 2)
    assert level(h, 1) is UNBOUNDED and basesize(h) == 2
    e = search_lev_bas_witness(0, 0)
    assert e.defined_on == frozenset()


def test_search_rejects_base_above_level():
    with pytest.raises(ValueError):
        search_lev_bas_witness(2, 3)


def test_search_reports_exhaustion_distinctly():
    with pytest.raises(SearchExhaustedError):
        search_lev_bas_witness(5, 5, max_points=2)


def _fewest_points_by_profile():
    """(level 1, basesize) -> the fewest points of a map that has it, over
    every total and partial map on at most 3 points into a few codomains."""
    fewest = {}
    for X in all_spaces_up_to(3):
        for Y in (discrete(1), D2, discrete(3), chain(2), C3, S2, I2):
            for f in all_partial_maps(X, Y):
                profile = level(f, 1), basesize(f)
                fewest[profile] = min(fewest.get(profile, X.n), X.n)
    return fewest


def test_the_level_and_base_catalog_is_complete():
    # the search answers a target within max_points exactly when some map
    # on that many points has it, and only with a map that has it
    fewest = _fewest_points_by_profile()
    for max_points in range(4):
        for lev in [*range(5), UNBOUNDED]:
            for bas in range(min(lev, 4) + 1):
                if fewest.get((lev, bas), max_points + 1) <= max_points:
                    f = search_lev_bas_witness(lev, bas, max_points)
                    assert (level(f, 1), basesize(f)) == (lev, bas)
                    assert f.dom.n <= max_points and f.is_total
                else:
                    with pytest.raises(SearchExhaustedError, match="exists within"):
                        search_lev_bas_witness(lev, bas, max_points)


def test_the_level_and_base_search_draws_nothing(monkeypatch):
    def drawing(*args, **kwargs):
        raise AssertionError("search_lev_bas_witness drew")

    for name in ("random_space", "random_map", "_rng"):
        monkeypatch.setattr(contred.explore, name, drawing)
    f = search_lev_bas_witness(2, 2, max_points=10**6)
    assert f.dom.n == 2 and (level(f, 1), basesize(f)) == (2, 2)


def test_searches_stay_within_zero_points():
    # the 0-point map is the one candidate within no point
    assert search_lev_bas_witness(0, 0, max_points=0).dom.n == 0
    with pytest.raises(SearchExhaustedError):
        search_lev_bas_witness(1, 1, max_points=0)
    for relation in ("le0", "le2", "lect"):
        with pytest.raises(SearchExhaustedError):
            search_antichain(2, relation=relation, max_points=0)


def _pairwise_incomparable(fam, relation):
    for a, b in itertools.combinations(fam, 2):
        assert decide(a, b, relation, None, 3) is None, (a.name, b.name)
        assert decide(b, a, relation, None, 3) is None, (b.name, a.name)


def test_antichains_of_constants_under_composition_order():
    fam = search_antichain(2, relation="le0")
    assert len(fam) == 2
    _pairwise_incomparable(fam, "le0")


def test_antichains_under_one_query_order():
    for size in (2, 3):
        fam = search_antichain(size, relation="le2")
        assert len(fam) == size
        _pairwise_incomparable(fam, "le2")


def test_antichain_under_capped_parallel_order():
    fam = search_antichain(2, relation="lect", max_points=9)
    assert len(fam) == 2
    _pairwise_incomparable(fam, "lect")


# per relation and size: the least max_points at which the catalog holds
# an antichain, and its members; None where it holds none within 9 points
CATALOG_ANTICHAINS = {
    ("le0", 2): (1, ["k0", "k1"]),
    ("le0", 3): (1, ["k0", "k1", "k2"]),
    ("le2", 2): (3, ["blur2", "mod3x3"]),
    ("le2", 3): (5, ["blur2", "mod3x5", "mod4x4"]),
    ("lect", 2): (9, ["blur2", "mod9x9"]),
    ("lect", 3): None,
}


@pytest.mark.parametrize("relation", ["le0", "le2", "lect"])
@pytest.mark.parametrize("size", [2, 3])
def test_antichain_search_answers_from_the_catalog_alone(monkeypatch, relation, size):
    def drawing(*args, **kwargs):
        raise AssertionError("search_antichain drew a map")

    monkeypatch.setattr(contred.explore, "random_map", drawing)
    monkeypatch.setattr(contred.explore, "random_space", drawing)
    first, names = CATALOG_ANTICHAINS[relation, size] or (None, None)
    for max_points in range(10):
        if first is not None and max_points >= first:
            fam = search_antichain(size, relation=relation, max_points=max_points)
            assert [f.name for f in fam] == names
            _pairwise_incomparable(fam, relation)
        else:
            with pytest.raises(SearchExhaustedError):
                search_antichain(size, relation=relation, max_points=max_points)


def test_no_antichain_of_total_maps_on_two_points():
    # so no search within 2 points could find one: every total map on at
    # most 2 points into discrete(1..3) is le2-comparable with every other,
    # and le2 lies inside lect
    maps = [
        make_map("f", X, discrete(m), dict(zip(X.points, (str(v) for v in vals))))
        for X in all_spaces_up_to(2)
        if X.n
        for m in (1, 2, 3)
        for vals in itertools.product(range(m), repeat=X.n)
    ]
    assert len(maps) == 62
    for a, b in itertools.combinations(maps, 2):
        assert decide(a, b, "le2") is not None or decide(b, a, "le2") is not None


def test_antichain_size_validation():
    with pytest.raises(ValueError):
        search_antichain(1)


# -- random generators -----------------------------------------------------


def test_random_space_names_tell_densities_apart():
    a, b = random_space(4, 0.29, 1), random_space(4, 0.28, 1)
    assert a.up != b.up and a.name != b.name
    assert random_space(4, 0.3, 1).name == "R4e30s1"
    maps = [random_map(a, D2, seed=1), random_map(b, D2, seed=1)]
    text = serialize(corpus_from_items(maps))
    assert serialize(parse(text)) == text


@given(spaces_st(1, 4), spaces_st(1, 4), seeds)
def test_random_partial_map_is_deterministic(dom, cod, seed):
    a = random_partial_map(dom, cod, seed=seed)
    b = random_partial_map(dom, cod, seed=seed)
    assert a.table == b.table and a.defined_on <= frozenset(dom.points)


@given(spaces_st(0, 3), spaces_st(1, 3), seeds, st.integers(0, 3))
def test_random_problem_is_deterministic_and_sized(dom, cod, seed, size):
    p = random_problem(dom, cod, seed=seed, size=size)
    q = random_problem(dom, cod, seed=seed, size=size)
    assert [m.table for m in p.members] == [m.table for m in q.members]
    # members deduplicate, so the draw count is an upper bound
    assert len(p.members) <= size
    if size > 0:
        assert len(p.members) >= 1
    assert len({m.vec for m in p.members}) == len(p.members)
    for m in p.members:
        assert m.dom == dom and m.cod == cod


# -- refusals no other test reaches ----------------------------------------


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: degree_poset([flip]).class_of(5), "no item with index 5"),
        (lambda: random_map(S2, discrete(0)), "no total map"),
        (lambda: random_continuous_map(S2, discrete(0)), "no continuous total maps"),
    ],
    ids=["class-of-stranger", "random-map-into-empty", "continuous-map-into-empty"],
)
def test_explore_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_random_continuous_map_renames_its_pick():
    pick = random_continuous_map(S2, D2, 3)
    named = random_continuous_map(S2, D2, 3, name="n")
    assert named.name == "n" != pick.name and named.vec == pick.vec
