"""The relation layer against a name-level reference, on every relation
between spaces of at most two points, and the generators against the
name-row constructions they replace."""

from __future__ import annotations

import itertools
import random

import pytest

from contred import (
    Space,
    chain,
    choice_functions,
    corpus_from_items,
    discrete,
    empty_map,
    indiscrete,
    injective_indiscrete_map,
    make_map,
    mod_chain_map,
    parse,
    random_map,
    random_partial_map,
    random_space,
    relation,
    serialize,
    total_map,
)

from conftest import all_spaces_up_to


def _small_spaces() -> list[Space]:
    """Every space of at most two points, and each two-point space again
    with its points' names swapped, so that declaration order and name
    order differ."""
    spaces = list(all_spaces_up_to(2))
    spaces += [Space(s.name + "r", s.points[::-1], s.up) for s in spaces if s.n == 2]
    return spaces


def _relations():
    """(dom, cod, name pairs) for every subset of dom x cod."""
    for dom, cod in itertools.product(_small_spaces(), repeat=2):
        cells = list(itertools.product(dom.points, cod.points))
        for k in range(1 << len(cells)):
            yield dom, cod, [c for b, c in enumerate(cells) if k >> b & 1]


RELATIONS = list(_relations())


def _ref_pairs(dom, cod, pairs):
    return sorted(set(pairs), key=lambda p: (dom.points.index(p[0]), cod.points.index(p[1])))


def _ref_block(name, dom, cod, pairs):
    """The relation block as the corpus format spells it: sources and
    their targets each sorted by name."""
    lines = [f"relation {name} : {dom.name} -> {cod.name}"]
    for x in sorted({x for x, _ in pairs}):
        lines.append(f"  {x} -> " + " ".join(sorted(y for x2, y in pairs if x2 == x)))
    return "\n".join(lines + ["end"])


def _ref_choices(rel_name, dom, cod, pairs):
    """(name, table) of each choice function, enumerated over the sources
    in domain order and their targets in codomain order, then ordered by
    name as a problem orders its members."""
    ref = _ref_pairs(dom, cod, pairs)
    sources = [x for x in dom.points if any(x == a for a, _ in ref)]
    options = [[y for a, y in ref if a == x] for x in sources]
    members = [
        (f"cf({rel_name}).c{k}", tuple(zip(sources, picks)))
        for k, picks in enumerate(itertools.product(*options))
    ]
    return sorted(members)


def test_views_serialization_and_choices_match_the_name_reference():
    for k, (dom, cod, pairs) in enumerate(RELATIONS):
        name = f"r{k}"
        rel = relation(name, dom, cod, pairs)
        ref = _ref_pairs(dom, cod, pairs)
        assert rel.pairs == tuple(ref)
        want = {x: tuple(y for a, y in ref if a == x) for x, _ in ref}
        assert rel.targets == want and list(rel.targets) == list(want)

        text = serialize(corpus_from_items([rel]))
        assert _ref_block(name, dom, cod, pairs) + "\n" in text
        back = parse(text)
        assert back.relations[name] == rel and hash(back.relations[name]) == hash(rel)
        assert serialize(back) == text

        got = [(m.name, m.table) for m in choice_functions(rel).members]
        assert got == _ref_choices(name, dom, cod, pairs)


def test_equal_relations_are_equal_and_hash_alike():
    by_spaces = itertools.groupby(RELATIONS, key=lambda r: (r[0], r[1]))
    for (dom, cod), group in by_spaces:
        kept = {}
        for _, _, pairs in group:
            rel = relation("r", dom, cod, pairs)
            again = relation("r", dom, cod, pairs[::-1] + pairs)
            assert rel == again and hash(rel) == hash(again)
            assert rel not in kept
            kept[rel] = pairs
        assert len(kept) == 1 << (dom.n * cod.n)
        first = next(iter(kept))
        assert relation("s", dom, cod, kept[first]) != first


# -- generators against their name-row constructions -----------------------


GENERATOR_SPACES = [random_space(0)] + [
    random_space(n, density, seed)
    for n, density, seed in ((1, 0.3, 0), (3, 0.3, 1), (4, 0.5, 2), (2, 0.7, 5))
]


@pytest.mark.parametrize("dom", GENERATOR_SPACES, ids=lambda s: s.name)
def test_random_maps_draw_as_rng_choice_over_names(dom):
    # the reference draws each value with rng.choice(cod.points), point by
    # point in domain order, and for a partial map only after its point
    # passed the density test
    for cod in GENERATOR_SPACES + [discrete(3)]:
        for seed in range(50):
            if cod.n or not dom.n:
                rng = random.Random(f"map:{dom.name}:{cod.name}:{seed}")
                rows = {p: rng.choice(cod.points) for p in dom.points}
                want = total_map(f"rm{seed}[{dom.name}>{cod.name}]", dom, cod, rows)
                got = random_map(dom, cod, seed)
                assert got == want and got.vec == want.vec
            rng = random.Random(f"pmap:{dom.name}:{cod.name}:{seed}:0.7")
            rows = {p: rng.choice(cod.points) for p in dom.points
                    if cod.n and rng.random() < 0.7}
            want = make_map(f"rp{seed}[{dom.name}>{cod.name}]", dom, cod, rows)
            got = random_partial_map(dom, cod, seed)
            assert got == want and got.vec == want.vec


def test_catalog_maps_match_their_name_rows():
    for length in range(7):
        for modulus in range(1, 5):
            dom = chain(length)
            rows = {p: str(i % modulus) for i, p in enumerate(dom.points)}
            want = total_map(f"mod{modulus}x{length}", dom, discrete(modulus), rows)
            assert mod_chain_map(length, modulus) == want
    for k in range(6):
        dom = indiscrete(k)
        want = total_map(f"blur{k}", dom, discrete(k), {p: p for p in dom.points})
        assert injective_indiscrete_map(k) == want
    for dom, cod in itertools.product(GENERATOR_SPACES, repeat=2):
        want = make_map(f"empty_{dom.name}_{cod.name}", dom, cod, {})
        assert empty_map(dom, cod) == want and empty_map(dom, cod).vec == want.vec
