"""The index-native core: point names that contain the product and
coproduct spellings, the pointwise witness replay against the literal
composite, and corpus round trips on arbitrary bare tokens."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    Budget,
    CapacityError,
    Problem,
    Witness0,
    Witness2,
    build_space,
    coproduct,
    corpus_from_items,
    is_continuous,
    le0_map,
    le0_problem,
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
    verify_witness0,
    verify_witness2,
)
from contred.cli import main

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
