"""The .clt corpus format: declarations of spaces, maps, relations, and
problems in a line-oriented, diff-friendly text form.

Grammar (one declaration block per item, ``#`` starts a comment)::

    space NAME
      points a b c
      below a b
    end

    map NAME : DOM -> COD [partial]
      a -> x
    end

    relation NAME : DOM -> COD
      a -> x y
    end

    problem NAME : DOM -> COD
      members m1 m2
    end

``below a b`` declares a below b; the reflexive-transitive closure is
taken automatically.  A map without the ``partial`` marker must supply a
row for every point, and a block ends at a line that is exactly ``end``.
Map and relation blocks are read by one row reader into target bitmasks,
one index lookup per name, and a map's rows, one target each, then become
its value vector; both are written back from these, rows in point-name
order, and no name table is built either way.
Serialization is canonical — rows, pairs and blocks are sorted, and a
space's points keep their declaration order, which a ``Space`` compares
— so ``serialize`` is a fixpoint under ``parse``/``serialize`` round
trips, and a witness printed for a corpus loads beside it.  Two corpora
are equal exactly when their texts coincide once every space's points
are sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CorpusError
from .spaces import (
    PartialMap,
    Problem,
    Relation,
    Space,
    _bits,
    _vec_map,
    build_space,
    problem,
)


@dataclass(eq=False)
class Corpus:
    spaces: dict[str, Space] = field(default_factory=dict)
    maps: dict[str, PartialMap] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)
    problems: dict[str, Problem] = field(default_factory=dict)

    def item(self, name: str):
        """Look up a declared item of any kind by name."""
        for pool in (self.maps, self.problems, self.relations, self.spaces):
            if name in pool:
                return pool[name]
        raise KeyError(f"nothing named {name!r} in the corpus")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return _text(self, sorted) == _text(other, sorted)

    def __hash__(self):
        return hash(_text(self, sorted))


def _token_safe(text: str, what: str) -> str:
    # one token exactly when it is not empty and holds no whitespace
    if text.split() != [text] or "#" in text:
        raise CorpusError(f"{what} {text!r} is not a bare token")
    return text


# -- parsing --------------------------------------------------------------

# the tokens of the line that closes a block
_END = ["end"]


def parse(text: str) -> Corpus:
    corpus = Corpus()
    spaces = corpus.spaces
    pools = {"space": spaces, "map": corpus.maps,
             "relation": corpus.relations, "problem": corpus.problems}
    # (line number, tokens) of every line that holds more than a comment
    lines = (
        (lineno, parts)
        for lineno, line in enumerate(text.splitlines(), 1)
        if (parts := line.split("#", 1)[0].split())
    )

    def block(head: str, name: str, opened: int):
        """The lines of the block opened at line ``opened``, up to its ``end``."""
        for lineno, parts in lines:
            if parts == _END:
                return
            yield lineno, parts
        raise CorpusError(f"{head} {name!r} never ends", opened)

    for opened, parts in lines:
        head = parts[0]
        pool = pools.get(head)
        if pool is None:
            raise CorpusError(f"unknown declaration {head!r}", opened)
        if head == "space":
            if len(parts) != 2:
                raise CorpusError("expected 'space NAME'", opened)
            name = parts[1]
            if name in pool:
                raise CorpusError(f"duplicate space {name!r}", opened)
            points: list[str] = []
            below: list[tuple[str, str]] = []
            for lineno, parts in block(head, name, opened):
                if parts[0] == "points":
                    for p in parts[1:]:
                        if p in points:
                            raise CorpusError(f"duplicate point {p!r}", lineno)
                        points.append(p)
                elif parts[0] == "below":
                    if len(parts) != 3:
                        raise CorpusError("expected 'below X Y'", lineno)
                    for p in parts[1:]:
                        if p not in points:
                            raise CorpusError(f"undeclared point {p!r}", lineno)
                    below.append((parts[1], parts[2]))
                else:
                    raise CorpusError(f"unknown directive {parts[0]!r}", lineno)
            spaces[name] = build_space(name, points, below)
            continue

        # NAME : DOM -> COD, and for a map an optional partial marker
        n = len(parts)
        if n < 6 or parts[2] != ":" or parts[4] != "->" or (n > 6 and head != "map"):
            raise CorpusError("expected 'NAME : DOM -> COD'", opened)
        name, partial = parts[1], n > 6
        if partial and parts[6:] != ["partial"]:
            raise CorpusError(f"unexpected tokens {parts[6:]}", opened)
        if name in pool:
            raise CorpusError(f"duplicate {head} {name!r}", opened)
        dom = spaces.get(parts[3])
        cod = spaces.get(parts[5])
        if dom is None or cod is None:
            missing = parts[3] if dom is None else parts[5]
            raise CorpusError(f"undeclared space {missing!r}", opened)

        if head == "problem":
            members: dict[str, PartialMap] = {}
            for lineno, parts in block(head, name, opened):
                if parts[0] != "members" or len(parts) < 2:
                    raise CorpusError("expected 'members NAME...'", lineno)
                for m in parts[1:]:
                    if m not in corpus.maps:
                        raise CorpusError(f"undeclared map {m!r}", lineno)
                    f = members[m] = corpus.maps[m]
                    if f.dom != dom or f.cod != cod:
                        raise CorpusError(
                            f"member {m!r} maps {f.dom.name} -> {f.cod.name}, "
                            f"not {dom.name} -> {cod.name}",
                            lineno,
                        )
            pool[name] = problem(name, dom, cod, members.values())
            continue

        # a map's rows and a relation's go straight into target bitmasks, one
        # lookup per name; a given row is never 0, and a map row holds one bit
        rows = [0] * dom.n
        dindex, cindex, one = dom.index, cod.index, head == "map"
        for lineno, parts in block(head, name, opened):
            if len(parts) < 3 or parts[1] != "->":
                raise CorpusError("expected 'POINT -> POINT...'", lineno)
            if one and len(parts) != 3:
                raise CorpusError("map rows take one value", lineno)
            i = dindex.get(parts[0])
            if i is None:
                raise CorpusError(f"{parts[0]!r} is not a point of {dom.name!r}", lineno)
            row = 0
            for p in parts[2:]:
                j = cindex.get(p)
                if j is None:
                    raise CorpusError(f"{p!r} is not a point of {cod.name!r}", lineno)
                row |= 1 << j
            if rows[i]:
                raise CorpusError(f"duplicate row for {parts[0]!r}", lineno)
            rows[i] = row
        if head == "relation":
            pool[name] = Relation(name, dom, cod, tuple(rows))
            continue
        vec = [r.bit_length() - 1 for r in rows]
        if not partial and -1 in vec:
            raise CorpusError(f"map {name!r} is missing rows; mark it partial", opened)
        pool[name] = _vec_map(name, dom, cod, vec)
    return corpus


# -- serialization --------------------------------------------------------


def _space_block(s: Space, points) -> str:
    lines = [f"space {_token_safe(s.name, 'space name')}"]
    pts = points(_token_safe(p, "point") for p in s.points)
    if pts:
        lines.append("  points " + " ".join(pts))
    lo, hi = s.pairs
    for a, b in sorted((s.points[i], s.points[j]) for i, j in zip(lo, hi)):
        lines.append(f"  below {a} {b}")
    lines.append("end")
    return "\n".join(lines)


def _map_block(m: PartialMap) -> str:
    head = (
        f"map {_token_safe(m.name, 'map name')} : "
        f"{m.dom.name} -> {m.cod.name}"
    )
    if not m.is_total:
        head += " partial"
    pts, vals, vec = m.dom.points, m.cod.points, m.vec
    rows = [f"  {pts[i]} -> {vals[vec[i]]}" for i in m.dom.by_name if vec[i] >= 0]
    return "\n".join([head, *rows, "end"])


def _relation_block(r: Relation) -> str:
    head = (
        f"relation {_token_safe(r.name, 'relation name')} : "
        f"{r.dom.name} -> {r.cod.name}"
    )
    pts, vals, rows = r.dom.points, r.cod.points, r.rows
    lines = [
        f"  {pts[i]} -> " + " ".join(sorted(vals[j] for j in _bits(rows[i])))
        for i in r.dom.by_name
        if rows[i]
    ]
    return "\n".join([head, *lines, "end"])


def _problem_block(p: Problem) -> str:
    lines = [
        f"problem {_token_safe(p.name, 'problem name')} : "
        f"{p.dom.name} -> {p.cod.name}"
    ]
    if p.members:
        lines.append(
            "  members " + " ".join(sorted(m.name for m in p.members))
        )
    lines.append("end")
    return "\n".join(lines)


def serialize(corpus: Corpus) -> str:
    return _text(corpus, list)


def _text(corpus: Corpus, points) -> str:
    """The corpus text, each space's points listed as ``points`` orders
    them (``list``: declaration order, ``sorted``: by name)."""
    blocks = []
    for name in sorted(corpus.spaces):
        blocks.append(_space_block(corpus.spaces[name], points))
    for name in sorted(corpus.maps):
        blocks.append(_map_block(corpus.maps[name]))
    for name in sorted(corpus.relations):
        blocks.append(_relation_block(corpus.relations[name]))
    for name in sorted(corpus.problems):
        blocks.append(_problem_block(corpus.problems[name]))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# -- assembly from live objects -------------------------------------------


def _add(pool: dict, kind: str, item) -> None:
    held = pool.get(item.name)
    if held is None:
        pool[item.name] = item
    elif held != item:
        raise CorpusError(f"{kind} name {item.name!r} used for two different items")


def corpus_from_items(items) -> Corpus:
    """Collect items plus everything they reference into one corpus."""
    corpus = Corpus()

    def add_space(s: Space):
        _add(corpus.spaces, "space", s)

    def add_map(m: PartialMap):
        add_space(m.dom)
        add_space(m.cod)
        _add(corpus.maps, "map", m)

    for item in items:
        if isinstance(item, Space):
            add_space(item)
        elif isinstance(item, PartialMap):
            add_map(item)
        elif isinstance(item, Relation):
            add_space(item.dom)
            add_space(item.cod)
            _add(corpus.relations, "relation", item)
        elif isinstance(item, Problem):
            add_space(item.dom)
            add_space(item.cod)
            for m in item.members:
                add_map(m)
            _add(corpus.problems, "problem", item)
        else:
            raise TypeError(f"cannot put {type(item).__name__} in a corpus")
    return corpus
