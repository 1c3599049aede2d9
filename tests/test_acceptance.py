"""Fifteen end-to-end checks, one per shipping requirement.

Each test prints a single pass/fail line in the terminal summary through
the ``acceptance_report`` fixture, so the whole contract is auditable at
a glance.  Everything runs at desk scale on one machine.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from contred import (
    UNBOUNDED,
    Witness2,
    basesize,
    basesize_problem,
    build_space,
    chain,
    choice_functions,
    compose_witness2,
    constant_map,
    discrete,
    empty_map,
    identity_map,
    le0_fn,
    le0_map,
    le0_problem,
    le2_fn,
    le2_map,
    le2_problem,
    le_ct,
    level,
    level_problem,
    make_map,
    pi_pair,
    pi_power,
    problem,
    product,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    relation,
    sierpinski,
    singleton_problem,
    sup0,
    sup2,
    sup2_problem,
    to_dot,
    verify_witness2,
)
from contred.category import (
    continuous_subcategory,
    coproduct_with_mediator,
    le0_cat,
    poset_to_category,
    pullback_with_mediator,
    space_category,
    thin_coproduct,
)
from contred.cli import main
from contred.corpus import corpus_from_items, parse, serialize
from contred.explore import admissible, degree_poset, is_surjective
from contred.lattice import (
    distribute2,
    distribute2_relation,
    inf0,
    sup2_upper_witness,
    tagged,
    verify_glb,
    verify_lub,
)

from conftest import (
    all_spaces_up_to,
    all_total_maps,
    assert_valid_dot,
    brute_force_basesize,
)

GOLDEN = Path(__file__).parent / "golden"

S2 = sierpinski()
D2 = discrete(2)
step = make_map("step", S2, D2, {"s0": "0", "s1": "1"})


def small_space(seed: int, max_points: int = 3, min_points: int = 0) -> object:
    """A deterministic small space with independently drawn size and density."""
    rng = random.Random(seed)
    n = rng.randint(min_points, max_points)
    density = rng.choice((0.0, 0.3, 0.5, 0.8, 1.0))
    return random_space(n, density, seed)


def oracle_level(f, variant: int):
    """Independent level computation straight from the definitions.

    Repeatedly keep the points that still witness a comparability sent to
    incomparable values; the second variant also keeps everything lying
    below such a point.  Stabilizing nonempty means no finite level.
    """
    live = set(f.defined_on)
    stages = 0
    while live:
        bad = {
            x
            for x in live
            if any(
                f.dom.below(x, y) and not f.cod.below(f(x), f(y))
                for y in live
            )
        }
        if variant == 2:
            bad = {z for z in live if any(f.dom.below(z, s) for s in bad)}
        if bad == live:
            return "unbounded"
        live = bad
        stages += 1
    return stages


def identity_witness_for(j) -> Witness2:
    """The self-reduction that queries the join at the input itself."""
    prod = product((j.dom, j.cod))
    rows = {}
    for p, (x, a) in prod.origin.items():
        if a == j(x):
            rows[p] = j(x)
    return Witness2(identity_map(j.dom), make_map("F_id", prod.space, j.cod, rows))


def test_criterion_01_engines_agree_everywhere(acceptance_report):
    spaces = all_spaces_up_to(3)
    pairs = 0
    disagreements = 0
    for dom in spaces:
        for cod in spaces:
            maps = list(all_total_maps(dom, cod))
            for f in maps:
                for g in maps:
                    pairs += 1
                    fast = le2_fn(f, g, engine="fast")
                    slow = le2_fn(f, g, engine="oracle")
                    if (fast is None) != (slow is None):
                        disagreements += 1
    acceptance_report(
        1,
        "both one-query engines agree on every total-map pair over spaces "
        f"with at most 3 points ({pairs} pairs)",
        disagreements == 0 and pairs == 630_511,
    )


def test_criterion_02_preorder_laws(acceptance_report):
    ok = True
    reflexive_items = 0
    for seed in range(350):
        f = random_partial_map(small_space(seed), small_space(seed + 1), seed)
        ok = ok and le2_map(f, f) is not None
        reflexive_items += 1
    for seed in range(150):
        p = random_problem(
            small_space(seed + 2), small_space(seed + 3), seed, size=seed % 3
        )
        ok = ok and le2_problem(p, p) is not None
        reflexive_items += 1
    chains = 0
    for seed in range(200):
        f = random_partial_map(small_space(seed), small_space(seed + 5), seed)
        r = random_partial_map(small_space(seed + 1), small_space(seed + 6), seed)
        s = random_partial_map(small_space(seed + 2), small_space(seed + 7), seed)
        g = sup2([f, r], name=f"g{seed}")
        h = sup2([g, s], name=f"h{seed}")
        w_fg = sup2_upper_witness([f, r], "0")
        w_gh = sup2_upper_witness([g, s], "0")
        composed = compose_witness2(w_fg, w_gh, h.cod)
        ok = ok and verify_witness2(f, h, composed)
        chains += 1
    acceptance_report(
        2,
        f"reducibility is reflexive on {reflexive_items} generated items and "
        f"transitive with composed witnesses replaying on {chains} chains",
        ok and reflexive_items == 500 and chains == 200,
    )


def test_criterion_03_bound_laws_for_joins_and_meets(acceptance_report):
    violations: list[str] = []
    families = 0
    for seed in range(50):
        fam = [
            random_partial_map(
                small_space(7 * seed + i, 4), small_space(7 * seed + i + 1, 4), seed
            )
            for i in range(seed % 3 + 1)
        ]
        join = sup2(fam, name=f"join{seed}")
        extra = random_partial_map(small_space(seed + 11, 4), small_space(seed + 12, 4), seed)
        pool = (
            [join, sup2(fam + [extra], name=f"bigger{seed}")]
            + [
                random_partial_map(small_space(seed + 20 + i, 4), small_space(seed + 30 + i, 4), i)
                for i in range(8)
            ]
        )
        report = verify_lub(join, fam, pool, relation="le2")
        violations.extend(report.violations)
        families += 1
    for seed in range(25):
        cod = small_space(3 * seed, 4, min_points=1)
        fam = [
            random_partial_map(small_space(3 * seed + i + 1, 4), cod, seed)
            for i in range(seed % 3 + 1)
        ]
        join = sup0(fam, cod=cod, name=f"join0_{seed}")
        top = make_map(
            f"top{seed}",
            build_space(f"itop{seed}", cod.points, [(a, b) for a in cod.points for b in cod.points]),
            cod,
            {p: p for p in cod.points},
        )
        pool = [join, top] + [
            random_partial_map(small_space(seed + 40 + i, 4), cod, i) for i in range(8)
        ]
        report = verify_lub(join, fam, pool, relation="le0")
        violations.extend(report.violations)
        families += 1
    for seed in range(25):
        cod = small_space(5 * seed + 1, 4, min_points=1)
        fam = [
            random_map(small_space(5 * seed + i + 2, 4), cod, seed)
            for i in range(seed % 3 + 1)
        ]
        meet = inf0(fam, cod=cod, name=f"meet{seed}")
        pool = [meet, empty_map(small_space(seed + 50, 4), cod)] + [
            random_partial_map(small_space(seed + 60 + i, 4), cod, i) for i in range(8)
        ]
        report = verify_glb(meet, fam, pool, relation="le0")
        violations.extend(report.violations)
        families += 1
    acceptance_report(
        3,
        f"joins and meets satisfy both halves of the bound laws against "
        f"sampled pools on {families} families",
        not violations and families == 100,
    )


def test_criterion_04_invariants_are_monotone(acceptance_report):
    samples = [
        random_partial_map(small_space(seed), small_space(seed + 1), seed)
        for seed in range(250)
    ]
    for seed in range(50):
        samples.append(sup2([samples[seed], samples[seed + 1]], name=f"join{seed}"))
    pairs = [(samples[i], samples[i + 1]) for i in range(len(samples) - 1)]
    pairs += [(samples[i + 1], samples[i]) for i in range(len(samples) - 1)]
    pairs += [(samples[seed], samples[250 + seed]) for seed in range(50)]
    positives = 0
    violations = 0
    for f, g in pairs:
        if le2_map(f, g) is None:
            continue
        positives += 1
        if not (
            level(f, 1) <= level(g, 1)
            and level(f, 2) <= level(g, 2)
            and basesize(f) <= basesize(g)
        ):
            violations += 1
    acceptance_report(
        4,
        f"level and basesize are monotone along all {positives} positive "
        f"reductions found among {len(samples)} samples",
        violations == 0 and positives >= 50,
    )


def test_criterion_05_invariant_chain(acceptance_report):
    checked = 0
    ok = True
    saw_unbounded = False
    for seed in range(500):
        f = random_partial_map(small_space(seed, 4), small_space(seed + 1, 4), seed)
        l1, l2, b = level(f, 1), level(f, 2), basesize(f)
        ok = ok and b <= l1 <= l2
        saw_unbounded = saw_unbounded or l1 == UNBOUNDED
        checked += 1
    acceptance_report(
        5,
        f"basesize <= level-1 <= level-2 on {checked} generated maps, "
        "including maps with no finite level",
        ok and checked == 500 and saw_unbounded,
    )


def test_criterion_06_joins_commute_with_invariants(acceptance_report):
    ok = True
    families = 0
    for seed in range(100):
        fam = [
            random_partial_map(small_space(11 * seed + i), small_space(11 * seed + i + 1), seed)
            for i in range(seed % 3 + 1)
        ]
        join = sup2(fam, name=f"j{seed}")
        ok = ok and level(join, 1) == max(level(m, 1) for m in fam)
        ok = ok and level(join, 2) == max(level(m, 2) for m in fam)
        ok = ok and basesize(join) == max(basesize(m) for m in fam)
        families += 1
    for seed in range(50):
        fam = [
            random_problem(
                small_space(13 * seed + i, 2),
                small_space(13 * seed + i + 1, 2),
                seed,
                size=(seed + i) % 3,
            )
            for i in range(seed % 2 + 1)
        ]
        join = sup2_problem(fam, name=f"jp{seed}")
        ok = ok and level_problem(join, 1) == max(level_problem(p, 1) for p in fam)
        ok = ok and level_problem(join, 2) == max(level_problem(p, 2) for p in fam)
        ok = ok and basesize_problem(join) == max(basesize_problem(p) for p in fam)
        families += 1
    acceptance_report(
        6,
        f"every invariant of a join equals the family maximum on {families} "
        "map and problem families",
        ok and families == 150,
    )


def test_criterion_07_golden_fixture_profiles(acceptance_report):
    text = (GOLDEN / "fixtures.clt").read_text(encoding="utf-8")
    corpus = parse(text)
    ok = serialize(corpus) == text
    golden_profiles = (GOLDEN / "invariant_profiles.txt").read_text(encoding="utf-8")
    lib_lines = []
    oracle_lines = []
    for name in sorted(corpus.maps):
        f = corpus.maps[name]
        lib_lines.append(
            f"{name} lev1={level(f, 1)} lev2={level(f, 2)} bas={basesize(f)}"
        )
        oracle_lines.append(
            f"{name} lev1={oracle_level(f, 1)} lev2={oracle_level(f, 2)} "
            f"bas={brute_force_basesize(f)}"
        )
    ok = ok and "\n".join(lib_lines) + "\n" == golden_profiles
    ok = ok and "\n".join(oracle_lines) + "\n" == golden_profiles
    flip = corpus.maps["flip"]
    alt3 = corpus.maps["alt3"]
    blur2 = corpus.maps["blur2"]
    ok = ok and (level(flip, 1), level(flip, 2), basesize(flip)) == (2, 2, 2)
    ok = ok and (level(alt3, 1), level(alt3, 2), basesize(alt3)) == (3, 3, 2)
    ok = ok and level(blur2, 1) == UNBOUNDED and level(blur2, 2) == UNBOUNDED
    ok = ok and basesize(blur2) == 2
    acceptance_report(
        7,
        "the three stored fixtures reproduce their golden invariant "
        "profiles, independently recomputed",
        ok,
    )


def test_criterion_08_basesize_is_the_minimal_partition(acceptance_report):
    checked = 0
    ok = True
    for seed in range(100):
        dom = random_space(seed % 6, (0.0, 0.3, 0.6, 1.0)[seed % 4], seed)
        cod = small_space(seed + 1, 3, min_points=1)
        f = random_partial_map(dom, cod, seed)
        ok = ok and basesize(f) == brute_force_basesize(f)
        checked += 1
    acceptance_report(
        8,
        f"basesize equals the brute-force minimal piecewise-continuous "
        f"partition size on a fixed suite of {checked} maps with domains "
        "of up to 5 points",
        ok and checked == 100,
    )


def test_criterion_09_splitting_along_translations(acceptance_report):
    ok = True
    instances = 0
    for seed in range(45):
        fam = [
            random_map(
                small_space(17 * seed + i, 2, min_points=1),
                small_space(17 * seed + i + 1, 2, min_points=1),
                seed,
            )
            for i in range(2)
        ]
        join = sup2(fam, name=f"j{seed}")
        pieces = distribute2(join, fam, identity_witness_for(join))
        ok = ok and pieces.tags == ("0", "1")
        defined = [piece.defined_on for _, piece in pieces]
        ok = ok and frozenset().union(*defined) == join.defined_on
        ok = ok and not (defined[0] & defined[1])
        ok = ok and all(
            le2_map(piece, member) is not None
            for (_, piece), member in zip(pieces, fam)
        )
        reassembled = sup2(pieces.items, name=f"re{seed}")
        ok = ok and le2_map(join, reassembled) is not None
        ok = ok and le2_map(reassembled, join) is not None
        instances += 1
    for seed in range(5):
        targets = [
            ["0", "1"][: seed % 2 + 1],
            ["1", "0"][: (seed + 1) % 2 + 1],
        ]
        r1 = relation(f"r1_{seed}", D2, D2, [("0", y) for y in targets[0]])
        r2 = relation(f"r2_{seed}", D2, D2, [("1", y) for y in targets[1]])
        rel = relation(f"rel{seed}", D2, D2, list(r1.pairs) + list(r2.pairs))
        joined = sup2_problem(
            tagged([choice_functions(r1), choice_functions(r2)], ("L", "R"))
        )
        g = make_map(f"G{seed}", D2, joined.dom, {"0": "L.0", "1": "R.1"})
        prod = product((D2, joined.cod))
        f_rows = {}
        for p, (x, a) in prod.origin.items():
            tag, y = a.split(".", 1)
            if (x == "0" and tag == "L") or (x == "1" and tag == "R"):
                f_rows[p] = y
        w = Witness2(g, make_map(f"F{seed}", prod.space, D2, f_rows))
        parts = distribute2_relation(rel, tagged([r1, r2], ("L", "R")), w)
        ok = ok and {tag: set(piece.pairs) for tag, piece in parts} == {
            "L": set(r1.pairs),
            "R": set(r2.pairs),
        }
        instances += 1
    acceptance_report(
        9,
        f"splitting along a translation passes its post-conditions on "
        f"{instances} witnessed map and relation instances",
        ok and instances == 50,
    )


def test_criterion_10_doubletons_below_both_singletons(acceptance_report):
    dom = chain(5)
    cod = discrete(3)
    zig = make_map(
        "zig", dom, cod, dict(zip(dom.points, ["0", "1", "0", "1", "0"]))
    )
    ramp = make_map(
        "ramp", dom, cod, dict(zip(dom.points, ["0", "1", "2", "2", "2"]))
    )
    both = problem("both", dom, cod, [zig, ramp])
    ok = le2_fn(zig, ramp) is None and le2_fn(ramp, zig) is None
    w_zig = le2_problem(both, singleton_problem(zig))
    w_ramp = le2_problem(both, singleton_problem(ramp))
    ok = ok and w_zig is not None and w_ramp is not None
    ok = ok and verify_witness2(both, singleton_problem(zig), w_zig)
    ok = ok and verify_witness2(both, singleton_problem(ramp), w_ramp)
    acceptance_report(
        10,
        "a stored incomparable pair puts the two-member problem below each "
        "singleton while neither map reduces to the other",
        ok,
    )


def test_criterion_11_extremal_degrees(acceptance_report):
    pool = [
        random_map(
            small_space(seed, 3), small_space(seed + 1, 3, min_points=1), seed
        )
        for seed in range(100)
    ]
    bottom = empty_map(discrete(1), discrete(1), name="bottom")
    ok = all(le2_map(bottom, item) is not None for item in pool)
    conts = [
        identity_map(S2),
        constant_map(S2, S2, "s0", name="k0"),
        constant_map(chain(3), D2, "1", name="k1"),
        make_map("mono", chain(3), S2, {"a": "s0", "b": "s1", "c": "s1"}),
    ]
    for f, g in itertools.permutations(conts, 2):
        ok = ok and le2_map(f, g) is not None
    nonempty = [m for m in pool if m.defined_on]
    for c in conts[:2]:
        ok = ok and all(le2_map(c, item) is not None for item in nonempty)
    cod = S2
    pool0 = [
        random_map(small_space(seed + 7, 3), cod, seed) for seed in range(30)
    ]
    top = make_map(
        "top",
        build_space("itop", cod.points, [(a, b) for a in cod.points for b in cod.points]),
        cod,
        {p: p for p in cod.points},
    )
    ok = ok and all(le0_map(item, top) is not None for item in pool0)
    nothing = problem("nothing", cod, cod, [])
    ok = ok and le0_problem(singleton_problem(identity_map(cod)), nothing) is not None
    acceptance_report(
        11,
        "the empty map sits below a 100-item pool, continuous maps form one "
        "class below everything nonempty, and the indiscrete identity and "
        "empty problem sit on top",
        ok,
    )


def test_criterion_12_parallel_queries(acceptance_report):
    pp = pi_pair(step, step, name="double_step")
    ok = le2_fn(pp, step) is None
    ok = ok and le2_fn(pp, pi_power(step, 2)) is not None
    ok = ok and le_ct(pp, step, cap=3).copies == 2
    chains = 0
    for seed in range(44):
        a = random_map(
            small_space(seed, 2, min_points=1), small_space(seed + 1, 2, min_points=1), seed
        )
        r = random_map(
            small_space(seed + 2, 2, min_points=1), small_space(seed + 3, 2, min_points=1), seed
        )
        s = random_map(
            small_space(seed + 4, 2, min_points=1), small_space(seed + 5, 2, min_points=1), seed
        )
        b = sup2([a, r], name=f"b{seed}")
        c = sup2([b, s], name=f"c{seed}")
        m1 = le_ct(a, b, cap=2).copies
        m2 = le_ct(b, c, cap=2).copies
        res = le_ct(a, c, cap=m1 * m2)
        ok = ok and res.yes and res.copies <= m1 * m2
        chains += 1
    for seed in range(6):
        r = random_map(discrete(1), small_space(seed + 1, 2, min_points=1), seed)
        c = sup2([step, r], name=f"cs{seed}")
        m1 = le_ct(pp, step, cap=2).copies
        m2 = le_ct(step, c, cap=2).copies
        res = le_ct(pp, c, cap=m1 * m2)
        ok = ok and res.yes and res.copies <= m1 * m2
        chains += 1
    identities = 0
    for seed in range(30):
        f = random_map(discrete(1), small_space(seed + 1, 2, min_points=1), seed)
        g1 = random_map(
            small_space(seed + 2, 2, min_points=1), small_space(seed + 3, 2, min_points=1), seed
        )
        g2 = random_map(
            small_space(seed + 4, 2, min_points=1), small_space(seed + 5, 2, min_points=1), seed
        )
        lhs = pi_pair(f, sup2([g1, g2], name=f"g{seed}"), name=f"lhs{seed}")
        rhs = sup2(
            [pi_pair(f, g1), pi_pair(f, g2)], name=f"rhs{seed}"
        )
        ok = ok and le2_map(lhs, rhs) is not None
        ok = ok and le2_map(rhs, lhs) is not None
        identities += 1
    acceptance_report(
        12,
        "two parallel copies beat the single-query barrier, bounded-copy "
        f"reductions compose across {chains} chains, and querying a join "
        f"splits into a join of queries on {identities} instances",
        ok and chains == 50 and identities == 30,
    )


def test_criterion_13_admissible_means_surjective(acceptance_report):
    checked = 0
    ok = True
    for n in (1, 2, 3):
        Y = discrete(n)
        for X in all_spaces_up_to(3):
            for f in all_total_maps(Y, X):
                ok = ok and admissible(f) == is_surjective(f)
                checked += 1
    acceptance_report(
        13,
        "a total map from a nonempty discrete source with at most 3 points "
        f"is admissible exactly when it is surjective ({checked} maps)",
        ok and checked > 800,
    )


def test_criterion_14_categorical_layer(acceptance_report):
    ok = True
    compared = 0
    for S in all_spaces_up_to(3):
        model = space_category([S])
        cat = model.category
        K = continuous_subcategory(model)
        for u in cat.morphisms:
            for v in cat.morphisms:
                g = le0_cat(cat, u, v, K)
                w = le0_fn(model.map_of(u), model.map_of(v))
                ok = ok and (g is None) == (w is None)
                compared += 1
    for trio in itertools.combinations_with_replacement(all_spaces_up_to(2), 3):
        model = space_category(trio)
        cat = model.category
        K = continuous_subcategory(model)
        for u in cat.morphisms:
            for v in cat.morphisms:
                if u.dst != v.dst:
                    continue
                g = le0_cat(cat, u, v, K)
                w = le0_fn(model.map_of(u), model.map_of(v))
                ok = ok and (g is None) == (w is None)
                compared += 1
    mediators = 0
    for seed in range(25):
        cod = small_space(seed, 2, min_points=1)
        cone = [
            random_map(small_space(seed + i + 1, 2), cod, seed) for i in range(2)
        ]
        res = coproduct_with_mediator(cone)
        ok = ok and res.unique is True
        mediators += 1
    for seed in range(25):
        f = random_map(
            small_space(seed + 1, 2, min_points=1),
            small_space(seed + 2, 2, min_points=1),
            seed,
        )
        x1 = f.dom.points[seed % f.dom.n]
        c = constant_map(small_space(seed + 3, 2, min_points=1), f.cod, f(x1))
        q1 = constant_map(discrete(1), f.dom, x1, name=f"q1_{seed}")
        q2 = constant_map(discrete(1), c.dom, c.dom.points[0], name=f"q2_{seed}")
        res = pullback_with_mediator([f, c], cone=[q1, q2])
        ok = ok and res.unique is True and res.mediator is not None
        mediators += 1
    posets = 0
    for seed in range(20):
        base = [
            random_map(
                small_space(23 * seed + i, 2, min_points=1),
                small_space(23 * seed + i + 1, 2, min_points=1),
                seed,
                name=f"base{seed}_{i}",
            )
            for i in range(3)
        ]
        items = list(base)
        join_index: dict[tuple[int, int], int] = {}
        for i, j in itertools.combinations(range(3), 2):
            join_index[(i, j)] = len(items)
            items.append(sup2([base[i], base[j]], name=f"join{seed}_{i}{j}"))
        po = degree_poset(items, "le2")
        cat = poset_to_category(po)
        for (i, j), k in join_index.items():
            a = po.class_label(po.class_of(i))
            b = po.class_label(po.class_of(j))
            expected = po.class_label(po.class_of(k))
            ok = ok and thin_coproduct(cat, a, b) == expected
        posets += 1
    acceptance_report(
        14,
        f"categorical factoring matches the map-level decider on {compared} "
        f"pairs, {mediators} mediators replay uniquely, and thin-category "
        f"coproducts realize joins in {posets} degree posets",
        ok and mediators == 50 and posets == 20,
    )


def test_criterion_15_cli_and_corpus_round_trips(
    acceptance_report, tmp_path, capsys
):
    ok = True
    round_trips = 0
    for seed in range(100):
        kind = seed % 3
        if kind == 0:
            items = [small_space(seed, 4)]
        elif kind == 1:
            items = [
                random_partial_map(small_space(seed, 3), small_space(seed + 1, 3), seed)
            ]
        else:
            items = [
                random_problem(
                    small_space(seed, 3), small_space(seed + 1, 3), seed, size=seed % 3
                )
            ]
        corpus = corpus_from_items(items)
        text = serialize(corpus)
        ok = ok and parse(text) == corpus and serialize(parse(text)) == text
        round_trips += 1
    demo = tmp_path / "demo.clt"
    demo.write_text(
        serialize(
            corpus_from_items(
                [
                    make_map("flip", S2, S2, {"s0": "s1", "s1": "s0"}),
                    step,
                    constant_map(S2, S2, "s0", name="konst"),
                ]
            )
        ),
        encoding="utf-8",
    )
    clt = str(demo)
    ok = ok and main(["check", "le2", "flip", "step", clt]) == 0
    ok = ok and main(["check", "le2", "flip", "konst", clt]) == 1
    ok = ok and main(["invariants", "ghost", clt]) == 2
    ok = ok and main(["frobnicate"]) == 2
    ok = ok and main(["check", "le2", "flip", "step", clt, "--budget", "1"]) == 3
    ok = ok and main(["poset", "le2", "flip", "step", "konst", clt, "--dot"]) == 0
    dot_text = capsys.readouterr().out.rsplit("digraph", 1)
    dot_text = "digraph" + dot_text[1]
    try:
        assert_valid_dot(dot_text)
        assert_valid_dot(to_dot(degree_poset([step, pi_pair(step, step)], "le2")))
    except AssertionError:
        ok = False
    acceptance_report(
        15,
        f"corpus serialization is byte-stable on {round_trips} generated "
        "corpora, the four documented exit codes hold, and DOT output "
        "passes a syntax validator",
        ok and round_trips == 100,
    )
