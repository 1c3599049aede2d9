"""The index-native core: point names that contain the product and
coproduct spellings, the pointwise witness replay against the literal
composite, witnesses that hold index vectors and build their maps on first
read, and corpus round trips on arbitrary bare tokens."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    Budget,
    CapacityError,
    InvalidWitnessError,
    Problem,
    Witness0,
    Witness2,
    build_space,
    chain,
    coproduct,
    corpus_from_items,
    discrete,
    indiscrete,
    is_continuous,
    le0_map,
    le0_problem,
    le2_fn,
    le2_map,
    le2_problem,
    make_map,
    map_equal,
    parse,
    problem,
    product,
    product_space,
    replay0,
    replay2,
    serialize,
    singleton_problem,
    sup2,
    sup2_upper_witness,
    tagged,
    verify_witness0,
    verify_witness2,
)
from contred import reducibility, spaces
from contred.cli import main
from contred.spaces import _breaks, _vec_map

from conftest import partial_maps_st, problems_st, spaces_st

# -- names with commas -------------------------------------------------------

COMMA = """
space X
  points a a,b
end

space Y
  points b,c c
end

map p : X -> X
  a -> a
  a,b -> a,b
end

map q : X -> Y
  a -> b,c
  a,b -> c
end
"""


def comma_maps():
    X = build_space("X", ["a", "a,b"])
    Y = build_space("Y", ["b,c", "c"])
    p = make_map("p", X, X, {"a": "a", "a,b": "a,b"})
    q = make_map("q", X, Y, {"a": "b,c", "a,b": "c"})
    return p, q


@pytest.fixture()
def comma_clt(tmp_path):
    path = tmp_path / "comma.clt"
    path.write_text(COMMA, encoding="utf-8")
    return str(path)


def test_comma_names_give_distinct_product_points():
    p, q = comma_maps()
    X, Y = p.dom, q.cod
    # X x X spells its tuples plainly: no two of them collide
    assert product((X, X)).space.points == ("(a,a)", "(a,a,b)", "(a,b,a)", "(a,b,a,b)")
    # plainly, (a, b,c) and (a,b, c) would both be "(a,b,c)"
    prod = product((X, Y))
    assert len(set(prod.space.points)) == 4
    assert list(prod.origin.values()) == [
        ("a", "b,c"), ("a", "c"), ("a,b", "b,c"), ("a,b", "c")
    ]


def test_tags_with_dots_give_distinct_coproduct_points():
    A = build_space("A", ["b.c"])
    B = build_space("B", ["c"])
    cop = coproduct((A, B), tags=("a", "a.b"))
    assert len(set(cop.space.points)) == 2
    assert list(cop.origin.values()) == [("a", "b.c"), ("a.b", "c")]
    assert coproduct((A, B), tags=("l", "r")).space.points == ("l.b.c", "r.c")


def test_comma_names_reduce_with_a_literally_replaying_witness():
    p, q = comma_maps()
    w = le2_map(p, q)
    assert w is not None
    assert is_continuous(w.translation) and is_continuous(w.postprocess)
    assert map_equal(replay2(w, q), p)


def test_comma_names_check_says_yes(comma_clt, capsys):
    assert main(["check", "le2", "p", "q", comma_clt]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_comma_names_printed_witness_parses_and_replays(comma_clt, capsys):
    assert main(["check", "le2", "p", "q", comma_clt, "--witness"]) == 0
    head, text = capsys.readouterr().out.split("\n", 1)
    assert head == "yes"
    printed = parse(text)
    assert serialize(printed) == text
    p, q = comma_maps()
    # the printed rows name points of the library's own spaces
    g = make_map("G", p.dom, q.dom, printed.maps["G[p,q]"].table)
    f = make_map("F", product_space(p.dom, q.cod), p.cod, printed.maps["F[p,q]"].table)
    w = Witness2(g, f)
    assert is_continuous(g) and is_continuous(f)
    assert map_equal(replay2(w, q), p)


# -- the pointwise replay against the literal composite ----------------------


def _rows(dom, cod, vec):
    return {dom.points[i]: cod.points[v] for i, v in enumerate(vec) if v >= 0}


def _mutant(data, m, label):
    """m with one row changed, added or removed (or m itself)."""
    if not (m.dom.n and m.cod.n) or not data.draw(st.booleans(), label=f"mutate {label}"):
        return m
    vec = list(m.vec)
    i = data.draw(st.integers(0, m.dom.n - 1), label=f"{label} row")
    others = [v for v in range(-1, m.cod.n) if v != vec[i]]
    vec[i] = data.draw(st.sampled_from(others), label=f"{label} value")
    return make_map(m.name, m.dom, m.cod, _rows(m.dom, m.cod, vec))


def _random_map(data, name, dom, cod, options=None):
    """A map with values drawn from ``options[i]`` at point i (default: any)."""
    if options is None:
        options = [range(-1, cod.n)] * dom.n
    values = st.tuples(*(st.sampled_from(o) for o in options))
    return make_map(name, dom, cod, _rows(dom, cod, data.draw(values, label=name)))


def _found(decider, lhs, rhs):
    try:
        return decider(lhs, rhs, Budget(20_000))
    except CapacityError:
        return None


def _witness2(data, decider, lhs, rhs):
    """The decider's witness or a random (G, F) on the right spaces, mutated."""
    w = _found(decider, lhs, rhs)
    if w is None:
        prod = product_space(lhs.dom, rhs.cod)
        w = Witness2(
            _random_map(data, "G", lhs.dom, rhs.dom), _random_map(data, "F", prod, lhs.cod)
        )
    return Witness2(_mutant(data, w.translation, "G"), _mutant(data, w.postprocess, "F"))


def _witness0(data, decider, lhs, rhs):
    """The decider's witness or a random G, mutated.  Between maps, the
    random G solves q(G x) = p(x) when some G does, continuous or not."""
    w = _found(decider, lhs, rhs)
    if w is None:
        options = None
        if not isinstance(lhs, Problem):
            qv = [-1, *rhs.vec]  # qv[j + 1]: q at j, or undefined for j = -1
            options = [[j for j in range(-1, rhs.dom.n) if qv[j + 1] == v] for v in lhs.vec]
            if not all(options):
                options = None
        w = Witness0(_random_map(data, "G", lhs.dom, rhs.dom, options))
    return Witness0(_mutant(data, w.translation, "G"))


@settings(max_examples=300, deadline=None)
@given(partial_maps_st(0, 3), partial_maps_st(0, 3), st.data())
def test_verify_witness2_agrees_with_the_literal_composite(p, q, data):
    w = _witness2(data, le2_map, p, q)
    g, f = w.translation, w.postprocess
    literal = is_continuous(g) and is_continuous(f) and map_equal(replay2(w, q), p)
    assert verify_witness2(p, q, w) == literal


@settings(max_examples=300, deadline=None)
@given(spaces_st(0, 3), spaces_st(0, 3), spaces_st(1, 3), st.data())
def test_verify_witness0_agrees_with_the_literal_composite(X1, X2, Y, data):
    p = _random_map(data, "p", X1, Y)
    q = _random_map(data, "q", X2, Y)
    w = _witness0(data, le0_map, p, q)
    literal = is_continuous(w.translation) and map_equal(replay0(w, q), p)
    assert verify_witness0(p, q, w) == literal


@settings(max_examples=150, deadline=None)
@given(problems_st(3, 3), problems_st(3, 3), st.data())
def test_verify_witness2_on_problems_agrees_with_the_literal_composite(P, Q, data):
    w = _witness2(data, le2_problem, P, Q)
    g, f = w.translation, w.postprocess
    literal = (
        is_continuous(g)
        and is_continuous(f)
        and all(P.contains(replay2(w, m)) for m in Q.members)
    )
    assert verify_witness2(P, Q, w) == literal


@settings(max_examples=150, deadline=None)
@given(problems_st(3, 3), spaces_st(0, 3), st.data())
def test_verify_witness0_on_problems_agrees_with_the_literal_composite(P, X2, data):
    members = [_random_map(data, f"q{k}", X2, P.cod) for k in range(data.draw(st.integers(0, 3)))]
    Q = problem("Q", X2, P.cod, members)
    w = _witness0(data, le0_problem, P, Q)
    literal = is_continuous(w.translation) and all(
        P.contains(replay0(w, m)) for m in Q.members
    )
    assert verify_witness0(P, Q, w) == literal


# -- witnesses on index vectors ----------------------------------------------


def _eager(lhs, rhs, w):
    """The witness as maps built at once from its vectors, named and placed
    as a decider names and places them."""
    g = _vec_map(f"G[{lhs.name},{rhs.name}]", lhs.dom, rhs.dom, w.gvec)
    if isinstance(w, Witness0):
        return Witness0(g)
    prod = product_space(lhs.dom, rhs.cod)
    return Witness2(g, _vec_map(f"F[{lhs.name},{rhs.name}]", prod, lhs.cod, w.fvec))


def _check_lazy(lhs, rhs, w):
    # nothing is built before a caller reads a map
    assert "translation" not in vars(w) and "postprocess" not in vars(w)
    eager = _eager(lhs, rhs, w)
    # maps are equal when name, domain, codomain and vector are
    assert w.translation == eager.translation
    if isinstance(w, Witness2):
        assert w.postprocess == eager.postprocess
    assert w == eager and hash(w) == hash(eager)
    with pytest.raises(FrozenInstanceError):
        w.gvec = ()
    with pytest.raises(FrozenInstanceError):
        del w.translation


@settings(max_examples=200, deadline=None)
@given(partial_maps_st(0, 3), partial_maps_st(0, 3), st.data())
def test_a_le2_witness_builds_the_maps_of_its_vectors_on_first_read(p, q, data):
    w = _found(le2_map, p, q)
    if w is not None:
        _check_lazy(p, q, w)
    P, Q = problem("P", p.dom, p.cod, [p]), problem("Q", q.dom, q.cod, [q])
    w = _found(le2_problem, P, Q)
    if w is not None:
        _check_lazy(P, Q, w)


@settings(max_examples=200, deadline=None)
@given(spaces_st(0, 3), spaces_st(0, 3), spaces_st(1, 3), st.data())
def test_a_le0_witness_builds_the_map_of_its_vector_on_first_read(X1, X2, Y, data):
    p = _random_map(data, "p", X1, Y)
    q = _random_map(data, "q", X2, Y)
    for decider, lhs, rhs in (
        (le0_map, p, q),
        (le0_problem, problem("P", X1, Y, [p]), problem("Q", X2, Y, [q])),
    ):
        w = _found(decider, lhs, rhs)
        if w is not None:
            _check_lazy(lhs, rhs, w)


def _vector_mutant(data, w, lhs, rhs):
    """A decider's witness ``w`` with up to two entries of each vector
    changed, still a witness of vectors on the spaces it was built on."""

    def mutated(vec, n, label):
        vec = list(vec)
        for _ in range(data.draw(st.integers(0, 2), label=f"{label} changes")):
            if not (vec and n):
                break
            i = data.draw(st.integers(0, len(vec) - 1), label=f"{label} entry")
            others = [v for v in range(-1, n) if v != vec[i]]
            vec[i] = data.draw(st.sampled_from(others), label=f"{label} value")
        return tuple(vec)

    gvec = mutated(w.gvec, rhs.dom.n, "G")
    if isinstance(w, Witness0):
        return Witness0._on(lhs, rhs, w.spaces, gvec=gvec)
    fvec = mutated(w.fvec, lhs.cod.n, "F")
    return Witness2._on(lhs, rhs, w.spaces, gvec=gvec, fvec=fvec)


@settings(max_examples=300, deadline=None)
@given(partial_maps_st(0, 3), partial_maps_st(0, 3), st.data())
def test_verify_witness2_on_mutated_vectors_agrees_with_the_literal_composite(p, q, data):
    w = _found(le2_map, p, q)
    if w is None:
        return
    m = _vector_mutant(data, w, p, q)
    verdict = verify_witness2(p, q, m)
    g, f = m.translation, m.postprocess
    literal = is_continuous(g) and is_continuous(f) and map_equal(replay2(m, q), p)
    assert verdict == literal


@settings(max_examples=150, deadline=None)
@given(problems_st(3, 3), problems_st(3, 3), st.data())
def test_verify_witness2_on_mutated_problem_vectors_agrees_with_the_literal_composite(
    P, Q, data
):
    w = _found(le2_problem, P, Q)
    if w is None:
        return
    m = _vector_mutant(data, w, P, Q)
    verdict = verify_witness2(P, Q, m)
    g, f = m.translation, m.postprocess
    literal = (
        is_continuous(g)
        and is_continuous(f)
        and all(P.contains(replay2(m, q)) for q in Q.members)
    )
    assert verdict == literal


def _reached(data, p, q):
    """A vector of G, monotone or not, and the vector of the F it forces:
    F(x, q(G x)) = p(x) at the reached points, undefined elsewhere, as the
    deciders build it.  Where p is defined, G is drawn where q is, if q is
    defined anywhere, so that the equation mostly holds."""
    k, qv = q.cod.n, q.vec
    anywhere = range(-1, q.dom.n)
    reaching = [j for j in anywhere if j >= 0 <= qv[j]] or anywhere
    options = [anywhere if v < 0 else reaching for v in p.vec]
    gvec = data.draw(st.tuples(*map(st.sampled_from, options)), label="G")
    fvec = [-1] * (p.dom.n * k)
    for x, (j, v) in enumerate(zip(gvec, p.vec)):
        if j >= 0 <= qv[j]:
            fvec[x * k + qv[j]] = v
    return gvec, fvec


def _on_vectors(p, q, gvec, fvec):
    """The witness of these vectors on a decider's spaces, and whether its
    maps are continuous and its literal composite is p."""
    w = Witness2._on(p, q, (p.dom, q.dom, q.cod, p.cod), tuple(gvec), tuple(fvec))
    g, f = w.translation, w.postprocess
    return w, is_continuous(g) and is_continuous(f) and map_equal(replay2(w, q), p)


@settings(max_examples=400, deadline=None)
@given(partial_maps_st(0, 3), partial_maps_st(0, 3), st.data())
def test_verify_witness2_at_the_reached_points_agrees_with_the_literal_composite(
    p, q, data
):
    gvec, fvec = _reached(data, p, q)
    if p.dom.n and data.draw(st.booleans(), label="change p"):
        vec = list(p.vec)
        x = data.draw(st.integers(0, p.dom.n - 1), label="p row")
        vec[x] = data.draw(
            st.sampled_from([v for v in range(-1, p.cod.n) if v != vec[x]]), label="p value"
        )
        p = _vec_map(p.name, p.dom, p.cod, vec)
    w, literal = _on_vectors(p, q, gvec, fvec)
    assert verify_witness2(p, q, w) == literal


@settings(max_examples=300, deadline=None)
@given(partial_maps_st(0, 3), partial_maps_st(0, 3), st.data())
def test_an_f_defined_past_the_reached_points_is_checked_on_the_whole_product(
    p, q, data
):
    gvec, fvec = _reached(data, p, q)
    k, qv = q.cod.n, q.vec
    reached = {x * k + qv[j] for x, j in enumerate(gvec) if j >= 0 <= qv[j]}
    spare = [t for t in range(len(fvec)) if t not in reached]
    if not spare:
        return
    fvec[data.draw(st.sampled_from(spare), label="extra point")] = data.draw(
        st.integers(0, p.cod.n - 1), label="extra value"
    )
    w, literal = _on_vectors(p, q, gvec, fvec)
    with mock.patch.object(reducibility, "_breaks", wraps=_breaks) as breaks:
        assert verify_witness2(p, q, w) == literal
    # past the equation and G's check, F is read on the whole product
    reaches = map_equal(replay2(w, q), p) and is_continuous(w.translation)
    on_product = [c for c in breaks.call_args_list if c.args[1] == product_space(p.dom, q.cod)]
    assert len(on_product) == reaches


def test_a_witness_built_from_maps_still_replays():
    fam = tagged([ID, STEP], ("l", "r"))
    for tag, item in fam:
        w = sup2_upper_witness(fam, tag)
        assert w.spaces is None
        assert verify_witness2(item, sup2(fam), w)


@settings(max_examples=300, deadline=None)
@given(spaces_st(0, 3), spaces_st(0, 3), spaces_st(1, 3), st.data())
def test_verify_witness0_on_mutated_vectors_agrees_with_the_literal_composite(
    X1, X2, Y, data
):
    p = _random_map(data, "p", X1, Y)
    q = _random_map(data, "q", X2, Y)
    w = _found(le0_map, p, q)
    if w is None:
        return
    m = _vector_mutant(data, w, p, q)
    verdict = verify_witness0(p, q, m)
    assert verdict == (is_continuous(m.translation) and map_equal(replay0(m, q), p))


C2 = chain(2)
ID = make_map("id", C2, C2, {"a": "a", "b": "b"})
STEP = make_map("step", C2, discrete(2), {"a": "0", "b": "1"})


@pytest.mark.parametrize(
    "gvec",
    [
        [1, 0],  # G reverses the order: not continuous
        [0, -1],  # G undefined where p is defined: the composite misses b
    ],
)
def test_a_wrong_le2_search_result_is_refused_on_the_decision_path(monkeypatch, gvec):
    monkeypatch.setattr(reducibility, "_le2_fast_search", lambda p, q, b: list(gvec))
    with pytest.raises(InvalidWitnessError):
        le2_map(ID, ID)
    with pytest.raises(InvalidWitnessError):
        le2_fn(ID, ID)


@pytest.mark.parametrize(
    "gvec",
    [
        [1, 0],  # G reverses the order: not continuous
        [0, 0],  # q(G b) = a, not b
    ],
)
def test_a_wrong_le0_search_result_is_refused_on_the_decision_path(monkeypatch, gvec):
    monkeypatch.setattr(reducibility, "_search", lambda *args: list(gvec))
    with pytest.raises(InvalidWitnessError):
        le0_map(ID, ID)


CONST = make_map("const", C2, C2, {"a": "a", "b": "a"})
SWAP = make_map("swap", C2, C2, {"a": "b", "b": "a"})


@pytest.mark.parametrize(
    "p, q, gvec, fvec, replays",
    [
        (ID, ID, [0, 1], [0, -1, -1, 1], True),
        # G reverses the order; the F it forces rises
        (CONST, ID, [1, 0], [-1, 0, 0, -1], False),
        # G rises; F falls from (a, a) to (b, b), as p does
        (SWAP, ID, [0, 1], [1, -1, -1, 0], False),
        # F at the reached points rises, but its extra point (b, 0) is
        # above (a, 0) with a value not above it
        (STEP, STEP, [0, 1], [0, -1, -1, 1], True),
        (STEP, STEP, [0, 1], [0, -1, 1, 1], False),
    ],
)
def test_the_replay_between_two_maps_refuses_each_break(p, q, gvec, fvec, replays):
    w, literal = _on_vectors(p, q, gvec, fvec)
    assert literal == replays
    assert verify_witness2(p, q, w) == replays


def test_a_yes_builds_no_map_and_no_product(monkeypatch):
    # the deciders replay their vectors; only a reader of the maps builds them
    pairs = [(ID, ID), (STEP, STEP), (ID, STEP)]
    wanted = [le2_map(p, q) for p, q in pairs]
    assert all(w is not None for w in wanted)

    def refuse(*args, **kwargs):
        raise AssertionError("built on the yes path")

    for module in (spaces, reducibility):
        for name in ("_vec_map", "product", "product_space", "is_continuous"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    found = [le2_map(p, q) for p, q in pairs]
    found += [le2_fn(p, q, engine) for p, q in pairs for engine in ("fast", "oracle")]
    found += [le0_map(ID, ID), le0_map(STEP, STEP)]
    assert all(w is not None for w in found)
    monkeypatch.undo()
    assert [w.postprocess for w in found[:3]] == [w.postprocess for w in wanted]
    assert all(verify_witness2(p, q, w) for (p, q), w in zip(pairs, found))


def test_a_vector_one_entry_short_fails_the_replay():
    # the last point of C2 lies in an order pair, so a short vector is read
    # past its end unless its length is checked first
    w2, w0 = le2_map(ID, ID), le0_map(ID, ID)
    assert w2 is not None and w0 is not None
    short2 = Witness2._on(ID, ID, w2.spaces, gvec=w2.gvec[:-1], fvec=w2.fvec)
    assert not verify_witness2(ID, ID, short2)
    short_f = Witness2._on(ID, ID, w2.spaces, gvec=w2.gvec, fvec=w2.fvec[:-1])
    assert not verify_witness2(ID, ID, short_f)
    assert not verify_witness0(ID, ID, Witness0._on(ID, ID, w0.spaces, gvec=w0.gvec[:-1]))


I2 = indiscrete(2)
# q' takes the values ID takes, on I2, into which every G is continuous: so
# ID's witness vectors turn q' into ID, and only its spaces are wrong
ID_ON_I2 = _vec_map("id'", I2, C2, (0, 1))


def test_a_vector_witness_on_other_spaces_fails_the_replay():
    w = le2_map(ID, ID)
    assert w is not None and w.spaces == (C2, C2, C2, C2)
    assert verify_witness2(ID, ID_ON_I2, Witness2(_vec_map("G", C2, I2, w.gvec), w.postprocess))
    assert not verify_witness2(ID, ID_ON_I2, w)


@pytest.mark.parametrize(
    "spaces",
    [(I2, C2, C2, C2), (C2, I2, C2, C2), (C2, C2, I2, C2), (C2, C2, C2, I2)],
    ids=["G-dom", "G-cod", "F-factor", "F-cod"],
)
def test_a_witness_built_from_maps_on_other_spaces_fails_the_replay(spaces):
    # the vectors that replay ID below ID, on maps with one space changed:
    # G's domain or codomain, F's second factor or F's codomain
    w = le2_map(ID, ID)
    assert w is not None
    assert verify_witness2(ID, ID, Witness2(w.translation, w.postprocess))
    X, Z, Y, V = spaces
    bad = Witness2(_vec_map("G", X, Z, w.gvec), _vec_map("F", product_space(C2, Y), V, w.fvec))
    assert not verify_witness2(ID, ID, bad)


def test_a_map_and_a_problem_fail_the_replay_either_way_round():
    P = singleton_problem(ID)
    w0, w2 = le0_map(ID, ID), le2_map(ID, ID)
    assert verify_witness0(P, P, w0) and verify_witness2(P, P, w2)
    for lhs, rhs in ((ID, P), (P, ID)):
        assert not verify_witness0(lhs, rhs, w0)
        assert not verify_witness2(lhs, rhs, w2)


# -- corpus round trips on arbitrary bare tokens ------------------------------

# arbitrary tokens, and a few that make the plain product and coproduct
# spellings collide: ("a", "a,a") and ("a,a", "a") are both "(a,a,a)"
tokens = st.one_of(
    st.text(alphabet="ab,().\\", min_size=1, max_size=4),
    st.sampled_from(["a", "a,a", "a.a", ",", "(", ")", "\\"]),
)


@st.composite
def named_spaces_st(draw, names):
    """Spaces with the given names; points are arbitrary bare tokens."""
    out = []
    for name in names:
        pts = draw(st.lists(tokens, max_size=3, unique=True))
        pair = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
        out.append(build_space(name, pts, draw(st.lists(pair)) if pts else ()))
    return out


@st.composite
def token_maps_st(draw):
    """p: X1 -> Y1 and q: X2 -> Y2 with every name drawn from bare tokens."""
    names = draw(st.lists(tokens, min_size=6, max_size=6, unique=True))
    X1, Y1, X2, Y2 = draw(named_spaces_st(names[:4]))

    def some_map(name, dom, cod):
        vals = st.sampled_from([None, *cod.points])
        rows = {x: y for x in dom.points if (y := draw(vals)) is not None}
        return make_map(name, dom, cod, rows)

    return some_map(names[4], X1, Y1), some_map(names[5], X2, Y2)


@settings(max_examples=200, deadline=None)
@given(token_maps_st())
def test_corpus_round_trips_on_arbitrary_tokens(pq):
    text = serialize(corpus_from_items(pq))
    assert serialize(parse(text)) == text


@settings(max_examples=200, deadline=None)
@given(token_maps_st())
def test_le2_witness_on_arbitrary_tokens_round_trips(pq):
    p, q = pq
    w = le2_map(p, q)
    if w is None:
        return
    text = serialize(corpus_from_items([w.translation, w.postprocess]))
    back = parse(text)
    assert serialize(back) == text
    g = back.maps[w.translation.name]
    f = back.maps[w.postprocess.name]
    # parsing lists points in their sorted order, so compare rows as sets
    assert set(g.table) == set(w.translation.table)
    assert set(f.table) == set(w.postprocess.table)
    prod = product_space(p.dom, q.cod)
    rebuilt = Witness2(
        make_map("G", p.dom, q.dom, g.table), make_map("F", prod, p.cod, f.table)
    )
    assert map_equal(replay2(rebuilt, q), p)
