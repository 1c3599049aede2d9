"""Deciders for the three reducibilities, witnesses, and their laws."""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    Budget,
    CapacityError,
    InvalidWitnessError,
    SpaceMismatchError,
    chain,
    choice_functions,
    compare,
    compose_witness0,
    compose_witness2,
    conflict_structure,
    constant_map,
    decide,
    discrete,
    empty_map,
    enumerate_continuous_partial,
    identity_map,
    indiscrete,
    is_continuous,
    le0_fn,
    le0_map,
    le0_problem,
    le2_fn,
    le2_map,
    le2_problem,
    le_ct,
    make_map,
    map_equal,
    pi_pair,
    problem,
    random_continuous_map,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    relation,
    replay0,
    replay2,
    restrict,
    sierpinski,
    singleton_problem,
    sup2,
    tagged,
    total_map,
    verify_witness0,
    verify_witness2,
    witness0_to_witness2,
)

from contred import kernel, reducibility
from contred.reducibility import _le2_fast_search, _search

from conftest import (
    all_spaces_up_to,
    all_total_maps,
    least_witness,
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
step = total_map("step", S2, D2, {"s0": "0", "s1": "1"})
alt3 = total_map("alt3", C3, D2, {"a": "0", "b": "1", "c": "0"})
c0 = constant_map(S2, D2, "0", name="c0")
c1 = constant_map(S2, D2, "1", name="c1")
blur2 = total_map("blur2", I2, D2, {"0": "0", "1": "1"})


# -- input refusals ---------------------------------------------------------

half = make_map("half", S2, S2, {"s1": "s1"})
one = total_map("one", discrete(1), D2, {"0": "0"})
wide = total_map("wide", S2, discrete(3), {"s0": "0", "s1": "1"})


def _compose_after_step(w_bc, far_cod):
    return compose_witness2(le2_map(step, step), w_bc, far_cod)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: le0_fn(half, flip), ValueError),
        (lambda: le0_fn(flip, half), ValueError),
        (lambda: le2_fn(half, flip), ValueError),
        (lambda: le2_fn(flip, half), ValueError),
        (lambda: le_ct(half, flip), ValueError),
        (lambda: le_ct(flip, half), ValueError),
        (
            lambda: le0_problem(singleton_problem(flip), singleton_problem(step)),
            SpaceMismatchError,
        ),
        (
            lambda: decide(singleton_problem(flip), singleton_problem(flip), "lect"),
            ValueError,
        ),
        # (2 + 1) ** 12 = 531,441 partial maps chain(12) -> D2, counted
        # against the 200,000 of ENUMERATION_CAP before any is tried
        (lambda: enumerate_continuous_partial(chain(12), D2), CapacityError),
        # witnesses that do not chain are refused before any value is read:
        # step <=2 step translates onto both points of S2, where one's
        # domain has one point; it reads answers in D2, not in D5 or C2;
        # and wide <=2 wide answers in D3, which it cannot read
        (lambda: _compose_after_step(le2_map(one, one), D2), SpaceMismatchError),
        (
            lambda: _compose_after_step(le2_map(step, step), discrete(5)),
            SpaceMismatchError,
        ),
        (
            lambda: _compose_after_step(le2_map(step, step), chain(2)),
            SpaceMismatchError,
        ),
        (
            lambda: _compose_after_step(le2_map(wide, wide), discrete(3)),
            SpaceMismatchError,
        ),
    ],
    ids=[
        "le0_fn-left",
        "le0_fn-right",
        "le2_fn-left",
        "le2_fn-right",
        "le_ct-left",
        "le_ct-right",
        "le0_problem-cod",
        "lect-problems",
        "enumerate-cap",
        "compose-translation",
        "compose-far-cod-larger",
        "compose-far-cod-same-size",
        "compose-middle-answers",
    ],
)
def test_a_decider_refuses_input_outside_its_scope(call, error):
    with pytest.raises(error):
        call()


# -- composition reducibility ---------------------------------------------


def test_constant_maps_compare_by_image():
    d0 = constant_map(C3, D2, "0", name="d0")
    assert le0_fn(c0, d0) is not None and le0_fn(d0, c0) is not None
    assert le0_fn(c0, c1) is None and le0_fn(c1, c0) is None


def test_identity_on_indiscrete_codomain_is_a_top():
    top = identity_map(I2, name="top")
    for f in (blur2, constant_map(S2, I2, "0"), random_map(C3, I2, seed=4)):
        g = total_map(f.name + "'", f.dom, I2, dict(f.table))
        w = le0_fn(g, top)
        assert w is not None and verify_witness0(g, top, w)


def test_composition_reducibility_is_reflexive_with_identity_translation():
    w = le0_fn(flip, flip)
    assert w is not None
    assert map_equal(w.translation, identity_map(S2))


def test_composition_reducibility_requires_common_codomain():
    with pytest.raises(SpaceMismatchError):
        le0_fn(flip, step)


def test_composition_witnesses_replay():
    w = le0_fn(c0, step)
    assert w is not None
    assert map_equal(replay0(w, step), c0)
    assert verify_witness0(c0, step, w)


# -- one-query reducibility ------------------------------------------------


def test_flip_and_step_are_equivalent_under_one_query():
    for engine in ("fast", "oracle"):
        assert le2_fn(flip, step, engine=engine) is not None
        assert le2_fn(step, flip, engine=engine) is not None


def test_flip_is_not_reducible_to_identity():
    assert le2_fn(flip, identity_map(S2)) is None


def test_empty_domain_map_is_a_bottom():
    bottom = empty_map(S2, D2)
    for g in (flip, step, alt3, blur2, identity_map(D2)):
        w = le2_map(bottom, g)
        assert w is not None and verify_witness2(bottom, g, w)


def test_continuous_nonempty_maps_sit_below_everything_nonempty():
    konst = constant_map(C3, D2, "1", name="konst")
    for g in (flip, step, alt3, blur2):
        assert le2_fn(konst, g) is not None
    # ... but nothing nonempty reduces to an empty-domain map
    assert le2_map(konst, empty_map(S2, D2)) is None


def test_one_query_witnesses_replay_literally():
    w = le2_fn(flip, step)
    assert w is not None
    assert map_equal(replay2(w, step), flip)
    assert verify_witness2(flip, step, w)


def test_engines_agree_with_each_other():
    maps = [flip, step, alt3, c0, c1, blur2, identity_map(S2)]
    for f, g in itertools.product(maps, repeat=2):
        fast = le2_fn(f, g, engine="fast")
        oracle = le2_fn(f, g, engine="oracle")
        assert (fast is None) == (oracle is None), (f.name, g.name)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        le2_fn(flip, step, engine="psychic")


def test_decider_output_is_deterministic():
    w1, w2 = le2_fn(flip, step), le2_fn(flip, step)
    assert w1.translation.table == w2.translation.table
    assert w1.postprocess.table == w2.postprocess.table


# -- problems --------------------------------------------------------------


def test_every_problem_reduces_to_the_empty_problem():
    e = problem("none", S2, D2, ())
    p = singleton_problem(flip)
    w = le2_problem(p, e)
    assert w is not None and verify_witness2(p, e, w)
    w0 = le0_problem(singleton_problem(c0), problem("none3", S2, D2, ()))
    assert w0 is not None


def test_the_empty_problem_sits_above_the_identity_singleton():
    e = problem("none", I2, I2, ())
    w = le0_problem(e, singleton_problem(identity_map(I2)))
    assert w is None  # nothing reduces the other way...
    w = le0_problem(singleton_problem(identity_map(I2)), e)
    assert w is not None  # ...while the empty problem is vacuously above


def test_singleton_problems_agree_with_the_map_deciders():
    pool = [flip, step, alt3, c0, c1]
    for f, g in itertools.product(pool, repeat=2):
        two = le2_fn(f, g) is not None
        two_p = le2_problem(singleton_problem(f), singleton_problem(g)) is not None
        assert two == two_p, (f.name, g.name)
    endo_const = constant_map(S2, S2, "s0")
    for f, g in itertools.product([flip, endo_const], repeat=2):
        one = le0_fn(f, g) is not None
        one_p = le0_problem(singleton_problem(f), singleton_problem(g)) is not None
        assert one == one_p, (f.name, g.name)


def test_problem_with_an_empty_domain_member_is_a_bottom():
    p = problem("withbot", S2, D2, [step, empty_map(S2, D2)])
    for q in (singleton_problem(flip), singleton_problem(alt3)):
        w = le2_problem(p, q)
        assert w is not None and verify_witness2(p, q, w)


def test_doubleton_reduces_to_each_singleton():
    p = problem("both", S2, S2, [flip, identity_map(S2)])
    for member in p.members:
        w = le2_problem(p, singleton_problem(member))
        assert w is not None and verify_witness2(p, singleton_problem(member), w)
    w = le0_problem(p, singleton_problem(identity_map(S2)))
    assert w is not None and map_equal(w.translation, identity_map(S2))


def test_choice_function_problems_feed_the_problem_deciders():
    r = relation("R", D2, D2, [("0", "0"), ("0", "1"), ("1", "1")])
    p = choice_functions(r)
    assert le2_problem(p, p) is not None
    single = choice_functions(relation("F", D2, D2, [("0", "1"), ("1", "1")]))
    w = le2_problem(p, single)
    assert w is not None and verify_witness2(p, single, w)


# -- the search kernel's constraint pairs ---------------------------------


def _kernel_solutions(n, pairs, order, options, fits):
    """Every assignment the kernel accepts, in the order it finds them."""
    found = []

    def collect(vec):
        found.append(tuple(vec))
        return False

    # the predicate as the kernel's tables: entry b of masks(i2, i, low) has
    # bit a set when value a at i fits value b at the earlier point i2
    values = range(1 + max((a for opts in options for a in opts), default=0))

    def masks(i2, i, low):
        return [
            sum(
                1 << a
                for a in values
                if (fits(i2, b, i, a) if low else fits(i, a, i2, b))
            )
            for b in values
        ]

    lo, hi = tuple(i for i, _ in pairs), tuple(j for _, j in pairs)
    _search(n, (lo, hi), order, options, masks, Budget(), collect)
    return found


def _filtered_solutions(n, pairs, order, options, fits):
    """The same by brute force: every combination of options, in step
    order, kept when each given pair of defined points fits."""
    out = []
    for values in itertools.product(*options):
        vec = [-1] * n
        for i, v in zip(order, values):
            vec[i] = v
        if all(
            vec[i] < 0 or vec[j] < 0 or fits(i, vec[i], j, vec[j]) for i, j in pairs
        ):
            out.append(tuple(vec))
    return out


def test_search_prunes_on_incomparable_pairs_it_is_given():
    D3 = discrete(3)
    assert D3.pairs == ((), ())
    differ = lambda lo, a, hi, b: a != b  # noqa: E731
    options = [[0, 1]] * 3
    found = _kernel_solutions(3, [(0, 1)], range(3), options, differ)
    assert found == _filtered_solutions(3, [(0, 1)], range(3), options, differ)
    assert len(found) == 4 and all(v[0] != v[1] for v in found)


def test_search_ignores_comparable_pairs_left_out():
    never = lambda lo, a, hi, b: False  # noqa: E731
    options = [[0, 1]] * 3
    assert len(_kernel_solutions(3, [], range(3), options, never)) == 8
    # C3's own pairs prune every solution with two defined points
    lo, hi = C3.pairs
    found = _kernel_solutions(3, list(zip(lo, hi)), range(3), options, never)
    assert found == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_enforces_exactly_the_given_pairs(data):
    n = data.draw(st.integers(0, 4))
    every = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs = data.draw(st.lists(st.sampled_from(every), unique=True)) if every else []
    order = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    options = [
        data.draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3, unique=True))
        for _ in order
    ]

    # depends on the values and on which point is the pair's low side
    def fits(lo, a, hi, b):
        return a < b or (a == b and lo < hi)

    found = _kernel_solutions(n, pairs, order, options, fits)
    assert found == _filtered_solutions(n, pairs, order, options, fits)


# -- problems against brute force (property-based) -----------------------


def _monotone_partial_maps(dom, cod):
    """Every partial map dom -> cod, as a dict, monotone where defined."""
    for values in itertools.product((None, *cod.points), repeat=dom.n):
        g = {x: y for x, y in zip(dom.points, values) if y is not None}
        if all(cod.below(g[x], g[x2]) for x in g for x2 in g if dom.below(x, x2)):
            yield g


def brute_le0_problem(P, Q) -> bool:
    """Some monotone partial G with every composite q . G a member of P."""
    targets = {frozenset(m.mapping.items()) for m in P.members}
    return any(
        all(
            frozenset((x, q.mapping[y]) for x, y in g.items() if y in q.mapping)
            in targets
            for q in Q.members
        )
        for g in _monotone_partial_maps(P.dom, Q.dom)
    )


def brute_le2_problem(P, Q) -> bool:
    """Some monotone partial G and a choice of target p in P for each q in Q.

    The choice forces F on every reached (x, q(G x)) pair to p(x), with
    undefined meaning undefined; a (G, choice) works when those forced
    values agree, every point p needs is reached, and F is monotone in the
    product order.  F off the reached pairs is left undefined, which loses
    no solution: restricting a monotone F keeps it monotone.
    """
    X1, Y1, Y2 = P.dom, P.cod, Q.cod
    for g in _monotone_partial_maps(X1, Q.dom):
        for choice in itertools.product(P.members, repeat=len(Q.members)):
            forced = {}
            consistent = True
            for q, p in zip(Q.members, choice):
                for x in X1.points:
                    answer, want = q.mapping.get(g.get(x)), p.mapping.get(x)
                    if answer is None:
                        consistent = consistent and want is None
                    elif forced.setdefault((x, answer), want) != want:
                        consistent = False
            defined = [(pair, v) for pair, v in forced.items() if v is not None]
            if consistent and all(
                Y1.below(v, v2)
                for (x, a), v in defined
                for (x2, a2), v2 in defined
                if X1.below(x, x2) and Y2.below(a, a2)
            ):
                return True
    return False


@st.composite
def problem_pairs_st(draw, common_cod: bool):
    X1, X2 = draw(spaces_st(0, 3)), draw(spaces_st(0, 3))
    Y1 = draw(spaces_st(1, 3))
    Y2 = Y1 if common_cod else draw(spaces_st(1, 3))
    P = random_problem(X1, Y1, seed=draw(seeds), size=draw(st.integers(0, 3)), name="P")
    Q = random_problem(X2, Y2, seed=draw(seeds), size=draw(st.integers(1, 3)), name="Q")
    return P, Q


@settings(max_examples=300, deadline=None)
@given(problem_pairs_st(common_cod=False))
def test_one_query_problems_agree_with_brute_force(pq):
    P, Q = pq
    w = le2_problem(P, Q)
    assert (w is not None) == brute_le2_problem(P, Q)
    if w is not None:
        assert is_continuous(w.translation) and is_continuous(w.postprocess)
        assert all(P.contains(replay2(w, q)) for q in Q.members)


@settings(max_examples=300, deadline=None)
@given(problem_pairs_st(common_cod=True))
def test_composition_problems_agree_with_brute_force(pq):
    P, Q = pq
    w = le0_problem(P, Q)
    assert (w is not None) == brute_le0_problem(P, Q)
    if w is not None:
        assert is_continuous(w.translation)
        assert all(P.contains(replay0(w, q)) for q in Q.members)


@settings(max_examples=80, deadline=None)
@given(spaces_st(4, 4), spaces_st(1, 3), spaces_st(4, 4), spaces_st(1, 3), seeds, seeds)
def test_engines_agree_on_four_point_spaces(X1, Y1, X2, Y2, s1, s2):
    f, g = random_map(X1, Y1, seed=s1), random_map(X2, Y2, seed=s2)
    fast = le2_fn(f, g, engine="fast")
    assert (fast is None) == (le2_fn(f, g, engine="oracle") is None)


# -- capped parallel queries ----------------------------------------------


def test_single_query_positive_needs_one_copy():
    r = le_ct(flip, step, cap=3)
    assert r.yes and r.copies == 1


def test_doubled_step_needs_two_copies():
    sq = pi_pair(step, step, name="step2")
    assert le2_fn(sq, step) is None
    r = le_ct(sq, step, cap=3)
    assert r.yes and r.copies == 2
    assert not le_ct(sq, step, cap=1).yes


def test_cap_must_be_positive_and_result_is_cap_monotone():
    with pytest.raises(ValueError):
        le_ct(flip, step, cap=0)
    sq = pi_pair(step, step, name="step2")
    for cap in (2, 3, 4):
        assert le_ct(sq, step, cap=cap).copies == 2


def test_continuous_map_needs_one_copy_of_anything_nonempty():
    konst = constant_map(C3, D2, "0", name="konst")
    assert le_ct(konst, alt3, cap=2).copies == 1


# -- compare ---------------------------------------------------------------


def test_compare_verdicts():
    assert compare(flip, step, "le2").verdict == "equivalent"
    assert compare(flip, flip, "le2").verdict == "equivalent"
    assert compare(c0, c1, "le0").verdict == "incomparable"
    konst = constant_map(S2, S2, "s0", name="konst")
    r = compare(konst, flip, "le2")
    assert r.verdict == "left-below" and r.forward is not None and r.backward is None
    assert compare(flip, konst, "le2").verdict == "right-below"


# -- preorder laws (property-based) ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(partial_maps_st(max_points=4))
def test_one_query_reflexivity_with_replaying_witness(f):
    w = le2_map(f, f)
    assert w is not None and verify_witness2(f, f, w)


@settings(max_examples=40, deadline=None)
@given(problems_st())
def test_problem_reflexivity(p):
    w = le2_problem(p, p)
    assert w is not None and verify_witness2(p, p, w)


@settings(max_examples=40, deadline=None)
@given(total_maps_st(max_points=3), total_maps_st(max_points=3), seeds)
def test_transitivity_along_constructed_chains(f, r1, s):
    g = sup2(tagged([f, r1], ("a", "b")))
    h = sup2(tagged([g, random_map(r1.dom, r1.cod, seed=s)], ("c", "d")))
    w_fg, w_gh = le2_map(f, g), le2_map(g, h)
    assert w_fg is not None and w_gh is not None
    composed = compose_witness2(w_fg, w_gh, h.cod)
    assert verify_witness2(f, h, composed)
    assert le2_map(f, h) is not None


@settings(max_examples=40, deadline=None)
@given(spaces_st(1, 3), spaces_st(1, 3), seeds, seeds)
def test_composition_chains_compose(dom, cod, s1, s2):
    f = random_map(dom, cod, seed=s1)
    g = random_map(dom, cod, seed=s2)
    w_fg = le0_fn(f, g)
    w_gf = le0_fn(g, f)
    if w_fg is not None and w_gf is not None:
        loop = compose_witness0(w_fg, w_gf)
        assert verify_witness0(f, f, loop)


@settings(max_examples=50, deadline=None)
@given(spaces_st(1, 3), spaces_st(1, 3), seeds, seeds)
def test_composition_reducibility_refines_one_query(dom, cod, s1, s2):
    f = random_map(dom, cod, seed=s1)
    g = random_map(dom, cod, seed=s2)
    w = le0_fn(f, g)
    if w is not None:
        lifted = witness0_to_witness2(f, g, w)
        assert verify_witness2(f, g, lifted)
        assert le2_fn(f, g) is not None


def test_a_lifted_composition_witness_is_replayed():
    w = le0_map(c0, step)
    assert verify_witness2(c0, step, witness0_to_witness2(c0, step, w))
    # the same witness does not send step to c1
    with pytest.raises(InvalidWitnessError):
        witness0_to_witness2(c1, step, w)


@settings(max_examples=60, deadline=None)
@given(total_maps_st(max_points=3), total_maps_st(max_points=3))
def test_positive_one_query_verdicts_carry_valid_witnesses(f, g):
    w = le2_fn(f, g)
    if w is not None:
        assert is_continuous(w.translation) and is_continuous(w.postprocess)
        assert map_equal(replay2(w, g), f)


# -- budgets ---------------------------------------------------------------


def test_exhausted_budget_is_an_explicit_error():
    with pytest.raises(CapacityError):
        le2_fn(alt3, alt3, budget=1)
    with pytest.raises(CapacityError):
        le0_problem(
            singleton_problem(identity_map(C3)),
            singleton_problem(identity_map(C3)),
            budget=1,
        )


def test_budget_object_is_shared_across_calls():
    b = Budget(10**6)
    assert le2_fn(flip, step, budget=b) is not None
    assert b.used > 0


# -- the records of the fast le2 search -----------------------------------


def _le2_pool(seed):
    """Total and partial maps on 1-4 points whose conflict structures
    repeat: few domains, and many maps on each."""
    rng = random.Random(f"le2 records:{seed}")
    doms = [random_space(n, rng.random(), rng.randrange(10**6)) for n in (1, 2, 3, 4)]
    cods = [S2, D2, I2, C3]
    return [
        (random_map if t % 2 else random_partial_map)(
            rng.choice(doms), rng.choice(cods), seed=rng.randrange(10**6)
        )
        for t in range(18)
    ]


def _records(p, q):
    """The records of the fast le2 search kept on p's domain for q's."""
    return p.dom.__dict__.get("_kept", {}).get(("le2", q.dom), {})


def _key(p, q):
    return conflict_structure(p), conflict_structure(q)


def _new_walk(p, q, budget):
    """A new kernel walk for ``le2_map(p, q)`` on tables built from the
    two maps' values: it reads and writes no record."""
    pv, qv, upP, upQ = p.vec, q.vec, p.cod.up, q.cod.up
    n2, up, down = q.dom.n, q.dom.up, q.dom.down

    def clash(a, b):
        return qv[a] >= 0 <= qv[b] and not (upQ[qv[a]] >> qv[b]) & 1

    above = [sum(1 << b for b in range(n2) if (up[a] >> b) & 1 and clash(a, b))
             for a in range(n2)]
    below = [sum(1 << a for a in range(n2) if (down[b] >> a) & 1 and clash(a, b))
             for b in range(n2)]

    def masks(i2, i, low):
        lo, hi = (i2, i) if low else (i, i2)
        if (upP[pv[lo]] >> pv[hi]) & 1:
            return up if low else down
        return above if low else below

    order = [i for i in range(p.dom.n) if pv[i] >= 0]
    cands = [j for j in range(n2) if qv[j] >= 0]
    found = _search(p.dom.n, p.dom.pairs, order, [cands] * len(order), masks, budget)
    return None if found is None else tuple(found)


@pytest.mark.parametrize("seed", range(3))
def test_kept_searches_equal_new_walks(seed):
    # the search reads only the two conflict structures, so a record
    # written by one pair of maps answers every pair with the same ones
    pool = _le2_pool(seed)
    hits = misses = 0
    for p, q in itertools.product(pool, repeat=2):
        kept = _key(p, q) in _records(p, q)
        hits, misses = hits + kept, misses + (not kept)
        for start in (0, 7):
            new, old = Budget(10**6), Budget(10**6)
            new.used = old.used = start
            assert _le2_fast_search(p, q, old) == _new_walk(p, q, new), (p, q)
            assert old.used == new.used
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("seed", range(3))
def test_every_smaller_budget_runs_out_with_or_without_a_record(seed):
    pool = _le2_pool(seed)
    searched = 0
    for p, q in itertools.product(pool, repeat=2):
        walk = Budget(inf)
        _new_walk(p, q, walk)
        nodes = walk.used
        searched += nodes > 0
        _records(p, q).pop(_key(p, q), None)
        for recorded in (False, True):
            for start in (0, 3):
                for limit in range(start, start + nodes):
                    b = Budget(limit)
                    b.used = start
                    with pytest.raises(CapacityError):
                        _le2_fast_search(p, q, b)
                    assert b.used == limit + 1
                    # an exhausted search neither keeps nor drops a record
                    assert (_key(p, q) in _records(p, q)) == recorded
            b = Budget(nodes)
            _le2_fast_search(p, q, b)
            assert b.used == nodes
            assert _records(p, q)[_key(p, q)][1] == nodes
    assert searched > 0


def test_every_yes_replays_from_a_record_or_not(monkeypatch):
    pool = _le2_pool(0)
    replays = []

    def counted(lhs, rhs, w):
        replays.append(w)
        return verify_witness2(lhs, rhs, w)

    monkeypatch.setattr(reducibility, "verify_witness2", counted)
    yes = 0
    # the second round finds a record for every pair
    for _ in range(2):
        for p, q in itertools.product(pool, repeat=2):
            yes += le2_map(p, q) is not None
            if p.is_total and q.is_total:
                yes += le2_fn(p, q) is not None
                yes += le2_fn(p, q, "oracle") is not None
    assert yes == len(replays) > 0


def test_a_wrong_record_raises_and_never_answers_yes():
    pool = _le2_pool(1)
    pairs = list(itertools.product(pool, repeat=2))
    p, q = next((p, q) for p, q in pairs if p.def_mask and le2_map(p, q) is not None)
    key = _key(p, q)
    # G undefined everywhere: the forced F gives nothing back where p is defined
    _records(p, q)[key] = (-1,) * p.dom.n, _records(p, q)[key][1]
    twins = [(a, b) for a, b in pairs
             if a.dom is p.dom and b.dom is q.dom and _key(a, b) == key]
    assert (p, q) in twins
    for a, b in twins:
        with pytest.raises(InvalidWitnessError):
            le2_map(a, b)
        with pytest.raises(InvalidWitnessError):
            decide(a, b, "le2")
        if a.is_total and b.is_total:
            with pytest.raises(InvalidWitnessError):
                le2_fn(a, b)


def test_records_sit_on_the_left_domain_and_die_with_it():
    X = chain(3)
    p = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    q = make_map("q", X, S2, {"a": "s1", "b": "s1", "c": "s0"})
    assert le2_map(p, q) is not None
    assert list(X.__dict__["_kept"][("le2", X)]) == [_key(p, q)]
    gone = weakref.ref(X)
    del X, p, q
    gc.collect()
    assert gone() is None


def test_the_oracle_engine_keeps_no_record():
    X, Y = chain(3), chain(2)
    f = make_map("f", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    g = make_map("g", Y, S2, {"a": "s1", "b": "s0"})
    assert le2_fn(f, g, "oracle") is not None
    assert ("le2", Y) not in X.__dict__.get("_kept", {})


def test_equal_structures_share_a_record_and_one_flipped_pair_does_not(monkeypatch):
    X = chain(3)
    q = make_map("q", X, S2, {"a": "s1", "b": "s1", "c": "s0"})
    # conflict pairs (a, b) and (a, c), on two codomains
    p = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    twin = make_map("twin", X, D2, {"a": "0", "b": "1", "c": "1"})
    # conflict pair (a, b) only
    flipped = make_map("flipped", X, C3, {"a": "b", "b": "a", "c": "c"})
    assert conflict_structure(twin) == conflict_structure(p) == (7, ((0, 1), (0, 2)))
    assert conflict_structure(flipped) == (7, ((0, 1),))
    searches = []

    def spy(*args):
        searches.append(args)
        return _search(*args)

    monkeypatch.setattr(reducibility, "_search", spy)
    first, again = Budget(), Budget()
    le2_map(p, q, first)
    le2_map(twin, q, again)
    assert len(searches) == 1 and again.used == first.used > 0
    assert len(_records(p, q)) == 1
    le2_map(flipped, q)
    assert len(searches) == 2 and len(_records(p, q)) == 2


def _structures(X):
    """The table of conflict structures interned on the space X."""
    return X.__dict__.get("_kept", {}).get(("structures",), {})


def test_equal_structures_on_one_domain_are_one_object():
    X = chain(3)
    p = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    twin = make_map("twin", X, D2, {"a": "0", "b": "1", "c": "1"})
    again = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    s = conflict_structure(p)
    assert conflict_structure(twin) is s and conflict_structure(again) is s
    assert _structures(X)[s] is s
    # a map on an equal but distinct domain gets an equal, other object
    Z = chain(3)
    assert Z == X and Z is not X
    other = make_map("p", Z, S2, {"a": "s1", "b": "s0", "c": "s0"})
    assert conflict_structure(other) == s and conflict_structure(other) is not s


def test_equal_but_distinct_domains_give_the_same_answers(monkeypatch):
    X, Z = chain(3), chain(3)
    p = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    p_z = make_map("p", Z, S2, {"a": "s1", "b": "s0", "c": "s0"})
    q = make_map("q", X, S2, {"a": "s1", "b": "s1", "c": "s0"})
    q_z = make_map("q", Z, S2, {"a": "s1", "b": "s1", "c": "s0"})
    searches = []

    def spy(*args):
        searches.append(args)
        return _search(*args)

    monkeypatch.setattr(reducibility, "_search", spy)
    first, again, left = Budget(), Budget(), Budget()
    w = le2_map(p, q, first)
    # the right domain enters the key by equality: one records dict, one search
    assert le2_map(p, q_z, again).gvec == w.gvec
    assert _records(p, q_z) is _records(p, q) and len(_records(p, q)) == 1
    assert len(searches) == 1 and again.used == first.used > 0
    # the left domain holds the records: its equal twin searches anew
    assert le2_map(p_z, q, left).gvec == w.gvec
    assert _records(p_z, q) is not _records(p, q)
    assert len(searches) == 2 and left.used == first.used


def test_the_structure_table_stops_at_the_records_limit(monkeypatch):
    def decided(pool):
        out = []
        for p, q in itertools.product(pool, repeat=2):
            b = Budget()
            w = le2_map(p, q, b)
            out.append((None if w is None else (w.gvec, w.fvec), b.used))
        return out

    def pool():
        # two 3-point domains with more structures each than the bound
        doms = [chain(3), random_space(3, 0.5, 11)]
        makers = (random_partial_map, random_map)
        return [makers[s % 2](doms[s % 4 // 2], D2, s, name=f"m{s}") for s in range(16)]

    expected = decided(pool())
    monkeypatch.setattr(kernel, "RECORDS_LIMIT", 3)
    maps = pool()
    assert decided(maps) == expected
    assert {len(_structures(p.dom)) for p in maps} == {3}
    # a structure past the bound is still the map's, equal and not shared
    assert any(conflict_structure(p) not in _structures(p.dom) for p in maps)


def test_the_structure_table_dies_with_its_space():
    X = chain(3)
    p = make_map("p", X, S2, {"a": "s1", "b": "s0", "c": "s0"})
    assert conflict_structure(p) in _structures(X)
    gone = weakref.ref(X)
    del X, p
    gc.collect()
    assert gone() is None


# -- the witness contract: the least G, whatever the search order ----------


def _witness_counts(pairs):
    """Compare le0_map and le2_map with the brute force on every pair;
    count the yes answers of each."""
    yes = {"le0": 0, "le2": 0}
    for p, q in pairs:
        for relation, decider in (("le0", le0_map), ("le2", le2_map)):
            if relation == "le0" and p.cod != q.cod:
                continue
            w = decider(p, q)
            got = None if w is None else (w.gvec, getattr(w, "fvec", None))
            assert got == least_witness(p, q, relation), (p, q, relation)
            yes[relation] += w is not None
    return yes


def test_deciders_give_the_least_witness_on_every_pair_up_to_two_points():
    maps = [
        f
        for X in all_spaces_up_to(2)
        for Y in (discrete(2), sierpinski())
        for f in all_total_maps(X, Y)
    ]
    yes = _witness_counts(itertools.product(maps, repeat=2))
    assert yes["le0"] > 0 and yes["le2"] > 0


def test_deciders_give_the_least_witness_on_a_seeded_draw_up_to_three_points():
    maps = [
        f
        for X in all_spaces_up_to(3)
        if X.points
        for Y in (discrete(2), sierpinski(), discrete(3))
        for f in all_total_maps(X, Y)
    ]
    assert len(maps) == 1322
    rng = random.Random(0)
    yes = _witness_counts((rng.choice(maps), rng.choice(maps)) for _ in range(6000))
    assert yes["le0"] > 0 and yes["le2"] > 0
