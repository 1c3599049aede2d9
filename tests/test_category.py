"""Finite categories of spaces: validation, factoring, and mediators."""

import pytest

from contred.category import (
    CoproductResultCat,
    FinCategory,
    Morphism,
    PullbackResultCat,
    ThinCategory,
    continuous_subcategory,
    coproduct_with_mediator,
    le0_cat,
    poset_to_category,
    pullback_with_mediator,
    space_category,
    thin_coproduct,
    thin_pullback,
)
from contred.errors import CapacityError, ContredError, SpaceMismatchError
from contred.explore import degree_poset
from contred.lattice import inf0, tagged
from contred.reducibility import le0_fn
from contred.spaces import (
    compose,
    constant_map,
    discrete,
    identity_map,
    is_continuous,
    make_map,
    map_equal,
    sierpinski,
    total_map,
)

S2 = sierpinski()
D2 = discrete(2)

flip = make_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
step = make_map("step", S2, D2, {"s0": "0", "s1": "1"})
ident = identity_map(S2)
konst = constant_map(S2, S2, "s0", name="konst")


# -- hand-built categories and their validation ----------------------------


def one_object_monoid(table_core):
    """A single-object category on morphisms 1, a, b with the given core."""
    morphisms = tuple(Morphism(n, "*", "*") for n in ("1", "a", "b"))
    table = {("1", n): n for n in ("1", "a", "b")}
    table.update({(n, "1"): n for n in ("a", "b")})
    table.update(table_core)
    return FinCategory("M", ("*",), morphisms, {"*": "1"}, table)


def test_single_identity_category():
    cat = FinCategory(
        "pt", ("*",), (Morphism("1", "*", "*"),), {"*": "1"}, {("1", "1"): "1"}
    )
    assert cat.is_identity("1")
    assert cat.hom("*", "*") == (Morphism("1", "*", "*"),)
    assert cat.compose_names("1", "1") == "1"


def test_cyclic_group_of_order_three_is_a_category():
    cat = one_object_monoid(
        {("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "1", ("b", "b"): "a"}
    )
    assert cat.compose_names("a", "a") == "b"
    assert not cat.is_identity("a")


def test_missing_identity_rejected():
    with pytest.raises(ValueError, match="identity"):
        FinCategory("bad", ("*",), (Morphism("a", "*", "*"),), {}, {("a", "a"): "a"})


def test_undeclared_endpoints_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        FinCategory(
            "bad", ("*",), (Morphism("1", "*", "*"), Morphism("a", "*", "x")),
            {"*": "1"}, {}
        )


def test_incomplete_table_rejected():
    with pytest.raises(ValueError, match="composable pairs"):
        one_object_monoid({("a", "a"): "1", ("a", "b"): "b", ("b", "a"): "b"})


def test_unit_law_violation_rejected():
    morphisms = (Morphism("1", "*", "*"), Morphism("a", "*", "*"))
    table = {("1", "1"): "1", ("1", "a"): "1", ("a", "1"): "a", ("a", "a"): "1"}
    with pytest.raises(ValueError, match="unit law"):
        FinCategory("bad", ("*",), morphisms, {"*": "1"}, table)


def _two_objects(table):
    morphisms = (Morphism("1x", "x", "x"), Morphism("1y", "y", "y"), Morphism("f", "x", "y"))
    return FinCategory("bad", ("x", "y"), morphisms, {"x": "1x", "y": "1y"}, table)


def _right_unit_fails():
    # 1 after a is a, but a after 1 is 1
    morphisms = (Morphism("1", "*", "*"), Morphism("a", "*", "*"))
    table = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "1", ("a", "a"): "a"}
    return FinCategory("bad", ("*",), morphisms, {"*": "1"}, table)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: _two_objects({("1x", "zz"): "1x"}), "names a stranger"),
        (lambda: _two_objects({("1x", "1y"): "1x"}), "is not composable"),
        (lambda: _two_objects({("f", "1x"): "1y"}), "wrong endpoints"),
        (_right_unit_fails, "right unit law fails at a"),
    ],
    ids=["stranger", "not-composable", "wrong-endpoints", "right-unit"],
)
def test_category_table_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_associativity_violation_rejected():
    core = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    with pytest.raises(ValueError, match="associativity"):
        one_object_monoid(core)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate object"):
        FinCategory(
            "bad", ("*", "*"), (Morphism("1", "*", "*"),), {"*": "1"},
            {("1", "1"): "1"}
        )
    with pytest.raises(ValueError, match="duplicate morphism"):
        FinCategory(
            "bad", ("*",), (Morphism("1", "*", "*"), Morphism("1", "*", "*")),
            {"*": "1"}, {("1", "1"): "1"}
        )


def test_morphism_lookup_errors():
    cat = one_object_monoid(
        {("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "1", ("b", "b"): "a"}
    )
    with pytest.raises(ValueError, match="no morphism"):
        cat.morphism("zz")
    with pytest.raises(ValueError, match="not composable"):
        cat.compose_names("a", "zz")


def test_thin_category_rejects_parallel_morphisms():
    morphisms = (
        Morphism("1x", "x", "x"),
        Morphism("1y", "y", "y"),
        Morphism("f", "x", "y"),
        Morphism("g", "x", "y"),
    )
    table = {
        ("1x", "1x"): "1x", ("1y", "1y"): "1y",
        ("f", "1x"): "f", ("1y", "f"): "f",
        ("g", "1x"): "g", ("1y", "g"): "g",
    }
    with pytest.raises(ValueError, match="two morphisms"):
        ThinCategory("bad", ("x", "y"), morphisms, {"x": "1x", "y": "1y"}, table)


# -- the category of spaces and total maps ---------------------------------


def test_space_category_single_object():
    model = space_category([S2])
    cat = model.category
    assert cat.objects == (S2.name,)
    assert len(cat.morphisms) == 4  # all endomaps of a two-point space
    ident_name = cat.identities[S2.name]
    assert map_equal(model.map_of(ident_name), identity_map(S2))


def test_space_category_composition_matches_map_composition():
    model = space_category([S2, D2])
    cat = model.category
    assert len(cat.morphisms) == 16
    for f in cat.morphisms:
        for g in cat.morphisms:
            if f.dst != g.src:
                continue
            h = cat.compose_names(g.name, f.name)
            assert map_equal(
                model.map_of(h), compose(model.map_of(g), model.map_of(f))
            )


def test_space_category_with_empty_space():
    model = space_category([discrete(0), S2])
    cat = model.category
    assert len(cat.hom("discrete0", "discrete0")) == 1
    assert len(cat.hom("discrete0", S2.name)) == 1
    assert len(cat.hom(S2.name, "discrete0")) == 0
    assert len(cat.hom(S2.name, S2.name)) == 4


def test_space_category_deduplicates_and_validates():
    model = space_category([S2, S2])
    assert model.category.objects == (S2.name,)
    with pytest.raises(ValueError, match="unique"):
        space_category([S2, discrete(2, name=S2.name)])
    # 7 ** 7 = 823,543 self-maps, counted against HOM_CAP before any is built
    with pytest.raises(CapacityError, match="^823543 morphisms exceed the cap of 50000$"):
        space_category([discrete(7)])


def test_continuous_subcategory_predicate():
    model = space_category([S2])
    K = continuous_subcategory(model)
    for m in model.category.morphisms:
        assert K(m) == is_continuous(model.map_of(m))
    # the only discontinuous endomap of the two-point connected space
    discontinuous = [m for m in model.category.morphisms if not K(m)]
    assert len(discontinuous) == 1
    assert map_equal(model.map_of(discontinuous[0]), flip)


# -- factoring inside a category vs. between bare maps ----------------------


def test_le0_cat_agrees_with_map_level_decider():
    model = space_category([S2, D2])
    cat = model.category
    K = continuous_subcategory(model)
    checked = 0
    for u in cat.morphisms:
        for v in cat.morphisms:
            if u.dst != v.dst:
                continue
            g = le0_cat(cat, u, v, K)
            w = le0_fn(model.map_of(u), model.map_of(v))
            assert (g is None) == (w is None)
            if g is not None:
                assert K(g)
                assert map_equal(
                    compose(model.map_of(v), model.map_of(g)), model.map_of(u)
                )
            checked += 1
    assert checked == 128


def test_le0_cat_accepts_names_and_checks_endpoints():
    model = space_category([S2, D2])
    cat = model.category
    K = continuous_subcategory(model)
    u = next(m for m in cat.morphisms if m.src == S2.name and m.dst == S2.name)
    v = next(m for m in cat.morphisms if m.dst == D2.name)
    with pytest.raises(SpaceMismatchError):
        le0_cat(cat, u, v, K)
    assert le0_cat(cat, u.name, u.name, K) is not None  # reflexive via identity


def test_le0_cat_requires_wide_subcategory():
    model = space_category([S2])
    cat = model.category
    with pytest.raises(ValueError, match="identity"):
        le0_cat(cat, cat.morphisms[0], cat.morphisms[0], lambda m: False)


def test_le0_cat_with_all_maps_is_more_permissive():
    model = space_category([S2])
    cat = model.category
    K_cont = continuous_subcategory(model)
    K_all = lambda m: True
    for u in cat.morphisms:
        for v in cat.morphisms:
            if le0_cat(cat, u, v, K_cont) is not None:
                assert le0_cat(cat, u, v, K_all) is not None
    # flip factors through the identity by itself, but not continuously
    flip_m = next(
        m for m in cat.morphisms if map_equal(model.map_of(m), flip)
    )
    ident_m = cat.identities[S2.name]
    assert le0_cat(cat, flip_m, ident_m, K_all) is not None
    assert le0_cat(cat, flip_m, ident_m, K_cont) is None


# -- coproducts with mediators ---------------------------------------------


def test_coproduct_mediator_replays_and_is_unique():
    res = coproduct_with_mediator([flip, ident])
    assert isinstance(res, CoproductResultCat)
    assert res.space.n == 4
    assert res.unique is True
    assert res.mediator.is_total
    for inj, m in zip(res.injections, [flip, ident]):
        assert map_equal(compose(res.mediator, inj), m)
    # the glued map inherits continuity exactly from its legs
    assert not is_continuous(res.mediator)
    assert is_continuous(coproduct_with_mediator([konst, ident]).mediator)


def test_coproduct_mediator_tags_show_in_points():
    res = coproduct_with_mediator(tagged([flip, ident], ["L", "R"]))
    assert all(p.startswith(("L.", "R.")) for p in res.space.points)


def test_coproduct_mediator_empty_cone_needs_cod():
    res = coproduct_with_mediator([], cod=S2)
    assert res.space.n == 0 and res.mediator.dom.n == 0
    assert res.unique is True


def test_coproduct_mediator_rejects_partial_cone():
    partial = make_map("half", S2, S2, {"s1": "s1"})
    with pytest.raises(ValueError, match="total"):
        coproduct_with_mediator([partial, ident])


def test_coproduct_mediator_needs_one_codomain():
    with pytest.raises(SpaceMismatchError, match="shared codomain"):
        coproduct_with_mediator([flip, step])
    with pytest.raises(SpaceMismatchError, match="explicit codomain"):
        coproduct_with_mediator([flip, ident], cod=D2)


def test_coproduct_mediator_capacity_guard():
    # 3 ** 10 = 59,049 maps out of the 10-point coproduct, counted against
    # HOM_CAP before any candidate is tried
    d5, d3 = discrete(5), discrete(3)
    cone = [constant_map(d5, d3, "0", name="k0"), constant_map(d5, d3, "1", name="k1")]
    with pytest.raises(CapacityError, match="^59049 candidate mediators exceed the cap$"):
        coproduct_with_mediator(cone)


# -- pullbacks with mediators ----------------------------------------------


def test_pullback_object_and_projections():
    res = pullback_with_mediator([flip, ident])
    assert isinstance(res, PullbackResultCat)
    assert set(res.space.points) == {"(s0,s1)", "(s1,s0)"}
    for f, p in zip([flip, ident], res.projections):
        assert map_equal(compose(f, p), res.common)
    assert res.mediator is None and res.unique is None


def test_pullback_space_agrees_with_meet_construction():
    fam = tagged([flip, ident], ["a", "b"])
    res = pullback_with_mediator(fam)
    meet = inf0(fam)
    assert res.space == meet.dom
    assert map_equal(res.common, meet)


def test_pullback_mediator_replays_and_is_unique():
    q1 = total_map("q1", discrete(1), S2, {"0": "s0"})
    q2 = total_map("q2", discrete(1), S2, {"0": "s1"})
    res = pullback_with_mediator([flip, ident], cone=[q1, q2])
    assert res.unique is True
    assert res.mediator.mapping == {"0": "(s0,s1)"}
    assert res.mediator_continuous is True
    for p, q in zip(res.projections, [q1, q2]):
        assert map_equal(compose(p, res.mediator), q)


def test_pullback_rejects_bad_cones():
    q1 = total_map("q1", discrete(1), S2, {"0": "s0"})
    q2 = total_map("q2", discrete(1), S2, {"0": "s1"})
    with pytest.raises(ValueError, match="one cone leg"):
        pullback_with_mediator([flip, ident], cone=[q1])
    with pytest.raises(ValueError, match="commute"):
        pullback_with_mediator([flip, ident], cone=[q1, q1])
    q3 = total_map("q3", discrete(2), S2, {"0": "s0", "1": "s0"})
    with pytest.raises(SpaceMismatchError, match="share a source"):
        pullback_with_mediator([flip, ident], cone=[q1, q3])
    with pytest.raises(SpaceMismatchError, match="target"):
        pullback_with_mediator(
            [flip, ident], cone=[total_map("qd", discrete(1), D2, {"0": "0"}), q2]
        )
    with pytest.raises(ValueError, match="at least one"):
        pullback_with_mediator([])


def test_pullback_of_disagreeing_constants_is_empty():
    c0 = constant_map(discrete(1), D2, "0", name="c0")
    c1 = constant_map(discrete(1), D2, "1", name="c1")
    res = pullback_with_mediator([c0, c1])
    assert res.space.n == 0
    # the only commuting cone comes from the empty space
    e0 = total_map("e0", discrete(0), discrete(1), {})
    res2 = pullback_with_mediator([c0, c1], cone=[e0, e0])
    assert res2.mediator.dom.n == 0 and res2.unique is True


# -- thin categories from degree posets -------------------------------------


def chain_poset():
    bottom = make_map("bottom", discrete(0), S2, {})
    return degree_poset([bottom, konst, flip], relation="le2")


def test_poset_to_category_chain():
    poset = chain_poset()
    cat = poset_to_category(poset)
    assert isinstance(cat, ThinCategory)
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 6  # three identities, three comparabilities
    for a in range(len(poset.classes)):
        for b in range(len(poset.classes)):
            assert cat.below(
                poset.class_label(a), poset.class_label(b)
            ) == poset.class_below(a, b)


def test_thin_joins_and_meets_on_a_chain():
    cat = poset_to_category(chain_poset())
    lo, mid, hi = "bottom", "konst", "flip"
    assert thin_coproduct(cat, lo, hi) == hi
    assert thin_coproduct(cat, mid, mid) == mid
    assert thin_pullback(cat, lo, hi) == lo
    assert thin_pullback(cat, mid, hi) == mid


def test_thin_joins_on_an_antichain_are_absent():
    up = make_map("up", D2, S2, {"0": "s0", "1": "s1"})
    down = make_map("down", D2, S2, {"0": "s1", "1": "s0"})
    poset = degree_poset([up, down], relation="le0")
    cat = poset_to_category(poset)
    assert not cat.below("up", "down") and not cat.below("down", "up")
    assert thin_coproduct(cat, "up", "down") is None
    assert thin_pullback(cat, "up", "down") is None


def test_thin_joins_on_a_diamond():
    morphisms = (
        Morphism("1b", "b", "b"), Morphism("1x", "x", "x"),
        Morphism("1y", "y", "y"), Morphism("1t", "t", "t"),
        Morphism("bx", "b", "x"), Morphism("by", "b", "y"),
        Morphism("xt", "x", "t"), Morphism("yt", "y", "t"),
        Morphism("bt", "b", "t"),
    )
    index = {(m.src, m.dst): m.name for m in morphisms}
    table = {
        (g.name, f.name): index[(f.src, g.dst)]
        for f in morphisms
        for g in morphisms
        if f.dst == g.src
    }
    cat = ThinCategory(
        "diamond", ("b", "x", "y", "t"), morphisms,
        {o: f"1{o}" for o in "bxyt"}, table
    )
    assert thin_coproduct(cat, "x", "y") == "t"
    assert thin_pullback(cat, "x", "y") == "b"
    assert thin_coproduct(cat, "b", "x") == "x"

