"""The .clt text format: parsing, canonical serialization, and assembly."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contred import (
    Corpus,
    CorpusError,
    corpus_from_items,
    discrete,
    make_map,
    parse,
    problem,
    relation,
    serialize,
    sierpinski,
    total_map,
)
from contred.spaces import Space, build_space

from conftest import (
    partial_maps_st,
    problems_st,
    seeds,
    spaces_st,
    total_maps_st,
)

SAMPLE = """
# two spaces, one chain declared by its covers
space S
  points s0 s1
  below s0 s1
end

space D2
  points 0 1
end

map flip : S -> S
  s0 -> s1
  s1 -> s0
end

map half : S -> D2 partial
  s1 -> 1   # the other point stays undefined
end

relation pick : D2 -> D2
  0 -> 0 1
  1 -> 1
end

map flap : S -> S
  s0 -> s1
  s1 -> s0
end

problem duo : S -> S
  members flip flap
end
"""


# -- parsing basics --------------------------------------------------------


def test_parse_sample_contents():
    c = parse(SAMPLE)
    assert set(c.spaces) == {"S", "D2"}
    assert set(c.maps) == {"flip", "half", "flap"}
    assert set(c.relations) == {"pick"}
    assert set(c.problems) == {"duo"}
    s = c.spaces["S"]
    assert s.below("s0", "s1") and not s.below("s1", "s0")
    assert c.maps["flip"].is_total
    assert not c.maps["half"].is_total
    assert c.maps["half"].defined_on == frozenset({"s1"})
    assert c.relations["pick"].pairs == (("0", "0"), ("0", "1"), ("1", "1"))
    # equal tables collapse to one member
    assert len(c.problems["duo"].members) == 1


def test_parse_empty_text():
    c = parse("")
    assert not c.spaces and not c.maps and not c.relations and not c.problems
    assert serialize(c) == ""


def test_parse_takes_transitive_closure():
    c = parse(
        "space C\n  points a b c\n  below a b\n  below b c\nend\n"
    )
    assert c.spaces["C"].below("a", "c")


def test_comments_and_blank_lines_are_ignored():
    noisy = "# top\n\nspace X\n  # inside\n  points x  # trailing\nend\n"
    c = parse(noisy)
    assert c.spaces["X"].points == ("x",)


def test_item_lookup():
    c = parse(SAMPLE)
    assert c.item("flip") is c.maps["flip"]
    assert c.item("duo") is c.problems["duo"]
    assert c.item("pick") is c.relations["pick"]
    assert c.item("D2") is c.spaces["D2"]
    with pytest.raises(KeyError):
        c.item("ghost")


def test_relation_rows_deduplicate_targets():
    c = parse(
        "space D\n  points 0 1\nend\n"
        "relation r : D -> D\n  0 -> 1 1 0\nend\n"
    )
    assert c.relations["r"].pairs == (("0", "0"), ("0", "1"))


def test_partial_marker_with_all_rows_is_just_total():
    c = parse(
        "space D\n  points 0\nend\n"
        "map m : D -> D partial\n  0 -> 0\nend\n"
    )
    assert c.maps["m"].is_total
    assert " partial" not in serialize(c)
    assert parse(serialize(c)) == c


# -- canonical serialization ----------------------------------------------


def test_serialize_parse_is_a_fixpoint():
    c = parse(SAMPLE)
    text = serialize(c)
    again = parse(text)
    assert serialize(again) == text
    assert again == c


def test_serialize_orders_blocks_and_rows():
    text = serialize(parse(SAMPLE))
    blocks = text.strip().split("\n\n")
    heads = [b.splitlines()[0] for b in blocks]
    assert heads == [
        "space D2",
        "space S",
        "map flap : S -> S",
        "map flip : S -> S",
        "map half : S -> D2 partial",
        "relation pick : D2 -> D2",
        "problem duo : S -> S",
    ]
    assert text.endswith("end\n")


def test_serialize_writes_the_full_strict_order():
    c = parse("space C\n  points a b c\n  below a b\n  below b c\nend\n")
    block = serialize(c)
    assert "  below a b\n" in block
    assert "  below b c\n" in block
    assert "  below a c\n" in block  # closure is spelled out
    assert "below a a" not in block  # reflexivity stays implicit


def test_points_keep_their_declaration_order():
    text = "space X\n  points q p\n  below p q\nend\n"
    c = parse(text)
    assert c.spaces["X"].points == ("q", "p")
    assert serialize(c) == text
    assert parse(serialize(c)).spaces["X"] == c.spaces["X"]


def test_semantic_equality_ignores_formatting():
    a = parse("space X\n  points p q\n  below p q\nend\n")
    b = parse("# reordered\nspace X\n  points q p\n  below p q  # same\nend\n")
    assert a == b and hash(a) == hash(b)
    d = parse("space X\n  points p q\nend\n")
    assert a != d
    assert a != "space X"  # plain strings never compare equal


def test_token_safety_guards_serialization():
    weird = build_space("has space", ["x"], [])
    c = Corpus(spaces={weird.name: weird})
    with pytest.raises(CorpusError, match="bare token"):
        serialize(c)


# -- parse errors carry line numbers ---------------------------------------


def err(text: str) -> CorpusError:
    with pytest.raises(CorpusError) as info:
        parse(text)
    return info.value


def test_error_unknown_declaration():
    e = err("garbage\n")
    assert e.line == 1 and "unknown declaration" in str(e)


def test_error_undeclared_space_in_header():
    e = err("map m : X -> X\nend\n")
    assert e.line == 1 and "undeclared space 'X'" in str(e)


def test_error_duplicate_declarations():
    e = err("space X\nend\nspace X\nend\n")
    assert e.line == 3 and "duplicate space 'X'" in str(e)
    text = "space X\n  points x\nend\n" + "map m : X -> X\n  x -> x\nend\n" * 2
    assert "duplicate map 'm'" in str(err(text))


def test_error_bad_space_lines():
    assert "expected 'space NAME'" in str(err("space\nend\n"))
    assert "duplicate point 'x'" in str(err("space X\n  points x x\nend\n"))
    e = err("space X\n  points x\n  below x y\nend\n")
    assert e.line == 3 and "undeclared point 'y'" in str(e)
    assert "expected 'below X Y'" in str(err("space X\n  points x\n  below x\nend\n"))
    assert "unknown directive 'pints'" in str(err("space X\n  pints x\nend\n"))
    e = err("space X\n  points x\n")
    assert "never ends" in str(e)


def test_error_bad_map_blocks():
    pre = "space X\n  points x y\nend\n"
    e = err(pre + "map m : X ->\nend\n")
    assert e.line == 4 and "expected 'NAME : DOM -> COD'" in str(e)
    e = err(pre + "map m : X -> X extra\nend\n")
    assert "unexpected tokens" in str(e)
    e = err(pre + "map m : X -> X\n  x -> y z\nend\n")
    assert e.line == 5 and "one value" in str(e)
    e = err(pre + "map m : X -> X\n  z -> x\n  y -> x\nend\n")
    assert e.line == 5 and "'z' is not a point of 'X'" in str(e)
    e = err(pre + "map m : X -> X\n  x -> z\n  y -> x\nend\n")
    assert "'z' is not a point of 'X'" in str(e)
    e = err(pre + "map m : X -> X\n  x -> y\n  x -> x\n  y -> x\nend\n")
    assert e.line == 6 and "duplicate row for 'x'" in str(e)
    e = err(pre + "map m : X -> X\n  x -> y\nend\n")
    assert e.line == 4 and "mark it partial" in str(e)
    e = err(pre + "map m : X -> X\n  x -> y\n")
    assert e.line == 4 and "never ends" in str(e)
    assert "expected 'POINT -> POINT" in str(
        err(pre + "map m : X -> X partial\n  x y\nend\n")
    )


# lines 1-6 declare X = {x, y} and Y = {u, v}; a map block opens at line 7
MAP_PRE = "space X\n  points x y\nend\nspace Y\n  points u v\nend\n"

MAP_ERRORS = [
    # (case, the block from line 7 on, line of the error, message)
    ("header-short", "map m : X ->\nend\n", 7, "expected 'NAME : DOM -> COD'"),
    ("header-colon", "map m X -> Y\nend\n", 7, "expected 'NAME : DOM -> COD'"),
    ("header-extra", "map m : X -> Y total\nend\n", 7, "unexpected tokens ['total']"),
    ("header-extra-2", "map m : X -> Y partial x\nend\n", 7,
     "unexpected tokens ['partial', 'x']"),
    ("undeclared-dom", "map m : Z -> W\nend\n", 7, "undeclared space 'Z'"),
    ("undeclared-cod", "map m : X -> W\nend\n", 7, "undeclared space 'W'"),
    ("duplicate-map", "map m : X -> Y partial\nend\nmap m : Z -> Y\nend\n", 9,
     "duplicate map 'm'"),
    ("too-few", "map m : X -> Y\n  x ->\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("one-token", "map m : X -> Y\n  x\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("too-many", "map m : X -> Y\n  x -> u v\nend\n", 8, "map rows take one value"),
    ("no-arrow", "map m : X -> Y\n  x u v\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("no-arrow-4", "map m : X -> Y\n  x = u v\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("unknown-dom", "map m : X -> Y\n  x -> u\n  z -> u\nend\n", 9, "'z' is not a point of 'X'"),
    ("unknown-cod", "map m : X -> Y\n  x -> u\n  y -> x\nend\n", 9, "'x' is not a point of 'Y'"),
    ("unknown-both", "map m : X -> Y\n  z -> w\nend\n", 8, "'z' is not a point of 'X'"),
    ("duplicate", "map m : X -> Y\n  x -> u\n  x -> v\nend\n", 9, "duplicate row for 'x'"),
    ("duplicate-partial", "map m : X -> Y partial\n  y -> u\n  y -> u\nend\n", 9, "duplicate row for 'y'"),
    ("missing-rows", "map m : X -> Y\n  x -> u\nend\n", 7, "map 'm' is missing rows; mark it partial"),
    ("no-rows", "map m : X -> Y\nend\n", 7, "map 'm' is missing rows; mark it partial"),
    ("never-ends", "map m : X -> Y\n  x -> u\n  y -> v\n", 7, "map 'm' never ends"),
    ("never-ends-empty", "map m : X -> Y partial\n", 7, "map 'm' never ends"),
    ("comment", "map m : X -> Y\n  # a note\n\n  x -> u  # why\n  y -> w\nend\n", 11,
     "'w' is not a point of 'Y'"),
    ("end-with-tokens", "map m : X -> Y\n  x -> u\n  end here\n  y -> v\nend\n", 9,
     "expected 'POINT -> POINT...'"),
    ("end-as-point", "map m : X -> Y\n  x -> u\n  end -> u\nend\n", 9, "'end' is not a point of 'X'"),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "block, line, message", [c[1:] for c in MAP_ERRORS], ids=[c[0] for c in MAP_ERRORS]
)
def test_malformed_map_blocks_keep_message_and_line(block, line, message, newline):
    e = err((MAP_PRE + block).replace("\n", newline))
    assert e.line == line
    assert str(e) == f"line {line}: {message}"


RELATION_ERRORS = [
    # (case, the block from line 7 on, line of the error, message)
    ("no-arrow", "relation r : X -> Y\n  x u v\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("no-target", "relation r : X -> Y\n  x ->\nend\n", 8, "expected 'POINT -> POINT...'"),
    ("unknown-source", "relation r : X -> Y\n  x -> u\n  z -> u\nend\n", 9,
     "'z' is not a point of 'X'"),
    ("unknown-target", "relation r : X -> Y\n  x -> u x v\nend\n", 8,
     "'x' is not a point of 'Y'"),
    ("unknown-both", "relation r : X -> Y\n  z -> w\nend\n", 8, "'z' is not a point of 'X'"),
    ("duplicate", "relation r : X -> Y\n  x -> u\n  y -> u\n  x -> v\nend\n", 10,
     "duplicate row for 'x'"),
    ("duplicate-same", "relation r : X -> Y\n  x -> u v\n  x -> v u\nend\n", 9,
     "duplicate row for 'x'"),
    ("duplicate-unknown-target", "relation r : X -> Y\n  x -> u\n  x -> w\nend\n", 9,
     "'w' is not a point of 'Y'"),
    ("never-ends", "relation r : X -> Y\n  x -> u\n  y -> v\n", 7, "relation 'r' never ends"),
    ("never-ends-empty", "relation r : X -> Y\n", 7, "relation 'r' never ends"),
    ("comment", "relation r : X -> Y\n  # a note\n\n  x -> u  # why\n  y -> w\nend\n", 11,
     "'w' is not a point of 'Y'"),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "block, line, message",
    [c[1:] for c in RELATION_ERRORS],
    ids=[c[0] for c in RELATION_ERRORS],
)
def test_malformed_relation_blocks_keep_message_and_line(block, line, message, newline):
    e = err((MAP_PRE + block).replace("\n", newline))
    assert e.line == line
    assert str(e) == f"line {line}: {message}"


def test_a_comment_among_relation_rows_is_ignored():
    text = MAP_PRE + "relation r : X -> Y\n  # a note\n  y -> v u  # why\n\n  x -> u\nend\n"
    for newline in ("\n", "\r\n"):
        r = parse(text.replace("\n", newline)).relations["r"]
        assert r.pairs == (("x", "u"), ("y", "u"), ("y", "v"))


def test_a_comment_among_map_rows_is_ignored():
    text = MAP_PRE + "map m : X -> Y\n  # a note\n  y -> v  # why\n\n  x -> u\nend\n"
    for newline in ("\n", "\r\n"):
        m = parse(text.replace("\n", newline)).maps["m"]
        assert m.vec == (0, 1)


def test_only_a_bare_end_closes_a_block():
    # a line whose first token is end, but which holds more, is an ordinary
    # line of its block and is judged as one
    e = err("space X\n  points x\n  end x\nend\n")
    assert str(e) == "line 3: unknown directive 'end'"
    e = err(MAP_PRE + "relation r : X -> Y\n  end junk\nend\n")
    assert str(e) == "line 8: expected 'POINT -> POINT...'"
    pre = MAP_PRE + "map f : X -> Y\n  x -> u\n  y -> u\nend\n"
    e = err(pre + "problem p : X -> Y\n  end f\nend\n")
    assert str(e) == "line 12: expected 'members NAME...'"
    assert parse("space X\n  points x\nend  # done\n").spaces["X"].points == ("x",)


def test_a_point_named_end_round_trips_in_maps_and_relations():
    X = build_space("X", ["end", "a"], [("end", "a")])
    D = discrete(2)
    f = make_map("f", X, D, {"end": "0", "a": "1"})
    g = make_map("g", D, X, {"0": "end"})
    r = relation("r", X, X, [("end", "end"), ("end", "a"), ("a", "end")])
    c = corpus_from_items([f, g, r])
    text = serialize(c)
    assert "  end -> 0\n" in text and "  0 -> end\n" in text
    assert "  end -> a end\n" in text
    back = parse(text)
    assert back == c
    assert back.maps["f"].vec == f.vec and back.maps["g"].vec == g.vec
    assert back.relations["r"].pairs == r.pairs
    assert serialize(back) == text


def test_error_bad_problem_blocks():
    pre = (
        "space X\n  points x\nend\n"
        "space Y\n  points y\nend\n"
        "map mx : X -> X\n  x -> x\nend\n"
        "map my : Y -> Y\n  y -> y\nend\n"
    )
    e = err(pre + "problem p : X -> X\n  members ghost\nend\n")
    assert "undeclared map 'ghost'" in str(e)
    e = err(pre + "problem p : X -> X\n  members my\nend\n")
    assert "member 'my' maps Y -> Y, not X -> X" in str(e)
    e = err(pre + "problem p : X -> X\n  x -> x\nend\n")
    assert "expected 'members NAME...'" in str(e)


# -- assembling corpora from live objects ----------------------------------


def test_corpus_from_items_collects_dependencies():
    S2 = sierpinski()
    flip = make_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
    duo = problem("duo", S2, S2, [flip])
    c = corpus_from_items([duo])
    assert set(c.spaces) == {"sierpinski"}
    assert set(c.maps) == {"flip"}
    assert set(c.problems) == {"duo"}
    rel = relation("r", S2, discrete(2), [("s0", "0")])
    c2 = corpus_from_items([rel])
    assert set(c2.spaces) == {"sierpinski", "discrete2"}


def test_corpus_from_items_rejects_name_clashes():
    a = discrete(2, name="X")
    b = sierpinski()
    b2 = build_space("X", ["p", "q"], [("p", "q")])
    with pytest.raises(CorpusError, match="two different items"):
        corpus_from_items([a, b2])
    # the identical space twice is fine
    c = corpus_from_items([a, discrete(2, name="X"), b])
    assert set(c.spaces) == {"X", "sierpinski"}
    with pytest.raises(TypeError):
        corpus_from_items(["not an item"])


def test_corpus_from_items_round_trips():
    S2 = sierpinski()
    flip = make_map("flip", S2, S2, {"s0": "s1", "s1": "s0"})
    c = corpus_from_items([flip])
    assert parse(serialize(c)) == c


# -- randomized round trips ------------------------------------------------


@given(spaces_st(0, 4))
def test_random_space_round_trips(space: Space):
    c = corpus_from_items([space])
    back = parse(serialize(c))
    s = back.spaces[space.name]
    assert s.points == tuple(sorted(space.points))
    assert {
        (a, b) for a in space.points for b in space.points if space.below(a, b)
    } == {(a, b) for a in s.points for b in s.points if s.below(a, b)}


@given(total_maps_st())
def test_random_map_round_trips(m):
    c = corpus_from_items([m])
    back = parse(serialize(c))
    assert back == c
    assert back.maps[m.name].mapping == m.mapping


@given(problems_st())
def test_random_problem_round_trips(p):
    c = corpus_from_items([p])
    back = parse(serialize(c))
    assert back == c
    assert {m.vec for m in back.problems[p.name].members} == {
        m.vec for m in p.members
    }


def _shuffled(space: Space, rnd) -> Space:
    """``space`` with its points declared in a shuffled order."""
    points = list(space.points)
    rnd.shuffle(points)
    below = [(a, b) for a in points for b in points if space.below(a, b)]
    return build_space(space.name, points, below)


@given(st.one_of(total_maps_st(), partial_maps_st()), st.randoms(use_true_random=False))
def test_maps_over_shuffled_points_round_trip(m, rnd):
    spaces = {s.name: _shuffled(s, rnd) for s in (m.dom, m.cod)}
    f = make_map(m.name, spaces[m.dom.name], spaces[m.cod.name], m.mapping)
    text = serialize(corpus_from_items([f]))
    back = parse(text)
    assert back.maps[f.name].vec == f.vec
    assert back.maps[f.name].dom.points == f.dom.points
    assert serialize(back) == text
    # rows are written in point-name order
    rows = text.split(f"map {f.name} ", 1)[1].splitlines()[1:-1]
    assert rows == sorted(rows) and len(rows) == len(m.mapping)


def test_serialize_builds_no_name_table():
    c = parse(SAMPLE.split("problem duo")[0])
    fresh = make_map("fresh", c.spaces["S"], c.spaces["D2"], {"s0": "1"})
    c.maps["fresh"] = fresh
    serialize(c)
    for m in c.maps.values():
        assert "table" not in m.__dict__


def test_parsing_a_problem_builds_no_member_table():
    c = parse(SAMPLE)
    assert [m.name for m in c.problems["duo"].members] == ["flip"]
    for m in (*c.maps.values(), *c.problems["duo"].members):
        assert "table" not in m.__dict__
