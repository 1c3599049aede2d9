"""Command-line front end.

Items live in .clt corpus files; any argument ending in ``.clt`` names a
corpus file and every other positional is an item declared in one of
them.  ``main`` looks the items up before any command runs, so a name of
the wrong kind (a space, a relation, a problem where only maps are taken)
is a usage error.  Exit codes: 0 yes/success, 1 no (for ``check`` and
``search --lev/--bas``), 2 usage or corpus errors, 3 an exhausted search
budget or a capacity ceiling; only ``--budget`` sets a budget.
Every command reads its files afresh, but a text read before in the same
process reuses the items parsed from it.

``COMMANDS`` lists every command once.  ``main`` reads a well-formed line
from that table alone (:func:`_read`) and hands any other line to
argparse, whose parser is built from the same table; so help and every
usage error are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import OrderedDict
from typing import Callable, NamedTuple

from .corpus import Corpus, corpus_from_items, parse, serialize
from .errors import CapacityError, ContredError, CorpusError
from .explore import (
    admissible,
    decompose_by_level,
    degree_poset,
    search_antichain,
    search_lev_bas_witness,
    to_dot,
)
from .invariants import (
    UNBOUNDED,
    LevelValue,
    basesize,
    basesize_problem,
    level,
    level_problem,
)
from .lattice import inf0, sup0, sup0_problem, sup2, sup2_problem
from .reducibility import CtResult, Witness0, Witness2, decide
from .spaces import PartialMap, Problem


# how many corpus texts the process keeps parsed, most recently read first
PARSED_LIMIT = 16
_parsed: OrderedDict[str, Corpus] = OrderedDict()


def _parse_once(text: str) -> Corpus:
    """The parsed corpus of ``text``, the same objects for the same text
    while it stays among the last ``PARSED_LIMIT`` read, so every fact
    derived from an item (its profile, its order pairs, its product
    lookups) is worked out once per process.  A text that fails to parse
    is not kept, so it fails again the same way."""
    one = _parsed.pop(text, None)
    if one is None:
        one = parse(text)
        if len(_parsed) >= PARSED_LIMIT:
            _parsed.popitem(last=False)
    _parsed[text] = one
    return one


def _load_corpus(files: list[str]) -> Corpus:
    """The corpus of one file is its cached parse, which callers only
    read; several files merge into a fresh Corpus, so a cached parse is
    never changed."""
    parsed = []
    for path in files:
        try:
            # unbuffered bytes are read faster than a text stream opens
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        except OSError as exc:
            raise CorpusError(f"cannot read {path!r}: {exc}") from exc
        text = data.decode("utf-8")
        if "\r" in text:  # universal newlines, as a text stream reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        parsed.append((path, _parse_once(text)))
    if len(parsed) == 1:
        return parsed[0][1]
    merged = Corpus()
    for path, one in parsed:
        for kind in ("spaces", "maps", "relations", "problems"):
            pool = getattr(merged, kind)
            for name, item in getattr(one, kind).items():
                if name in pool and pool[name] != item:
                    raise CorpusError(
                        f"{kind[:-1]} {name!r} declared differently in {path!r}"
                    )
                pool[name] = item
    return merged


def _resolve_items(args) -> list:
    """Look up the items a command names in the corpora it names."""
    names, files = [], []
    for a in args.rest:
        (files if a.endswith(".clt") else names).append(a)
    if args.count is not None and len(names) != args.count:
        wanted = "one item name" if args.count == 1 else "exactly two item names"
        raise CorpusError(f"{args.command} takes {wanted}")
    corpus = _load_corpus(files)
    items = []
    for name in names:
        try:
            item = corpus.item(name)
        except KeyError:
            raise CorpusError(f"nothing named {name!r} in the loaded corpora")
        kind = "map" if isinstance(item, PartialMap) else type(item).__name__.lower()
        if kind not in args.takes:
            raise CorpusError(
                f"{name!r} is a {kind}; {args.command} works on "
                + " or ".join(k + "s" for k in args.takes)
            )
        items.append(item)
    return items


def _resolve_budget(flag: int | None) -> int | None:
    if flag is not None and flag < 0:
        raise CorpusError(f"--budget is a number of search nodes, not {flag}")
    return flag


def _print_witness(found) -> None:
    if isinstance(found, CtResult):
        print(f"copies {found.copies}")
        found = found.witness
    if isinstance(found, Witness2):
        print(serialize(corpus_from_items([found.translation, found.postprocess])), end="")
    elif isinstance(found, Witness0):
        print(serialize(corpus_from_items([found.translation])), end="")


def _cmd_check(args, items) -> int:
    lhs, rhs = items
    found = decide(lhs, rhs, args.relation, args.budget, args.cap)
    if found is None:
        print("no")
        return 1
    print("yes")
    if args.witness:
        _print_witness(found)
    return 0


def _cmd_invariants(args, items) -> int:
    (item,) = items
    if isinstance(item, Problem):
        lev, bas = level_problem, basesize_problem
    else:
        lev, bas = level, basesize
    print(f"lev1={lev(item, 1)} lev2={lev(item, 2)} bas={bas(item)}")
    return 0


def _cmd_sup(args, items) -> int:
    problems = [isinstance(x, Problem) for x in items]
    if any(problems) and not all(problems):
        raise CorpusError("sup items must be all maps or all problems")
    if all(problems) and items:
        join = sup2_problem if args.relation == "le2" else sup0_problem
    else:
        join = sup2 if args.relation == "le2" else sup0
    built = join(items, name=args.name)
    print(serialize(corpus_from_items([built])), end="")
    return 0


def _cmd_inf(args, items) -> int:
    built = inf0(items, name=args.name)
    print(serialize(corpus_from_items([built])), end="")
    return 0


def _cmd_poset(args, items) -> int:
    po = degree_poset(items, args.relation, args.budget, args.cap)
    if args.dot:
        print(to_dot(po), end="")
        return 0
    lines = [f"class {c}: {po.class_label(c)}" for c in range(len(po.classes))]
    lines += [f"cover: {a} < {b}" for a, b in po.hasse]
    if lines:
        print("\n".join(lines))
    return 0


def _cmd_decompose(args, items) -> int:
    try:
        thresholds = tuple(int(t) for t in args.thresholds.split(","))
    except ValueError:
        raise CorpusError(f"bad threshold list {args.thresholds!r}")
    result = decompose_by_level(items[0], thresholds, args.budget)
    print(serialize(corpus_from_items(result.parts.items)), end="")
    print(f"holds: {'yes' if result.holds else 'no'}")
    return 0


def _cmd_admissible(args, items) -> int:
    verdict = admissible(items[0], args.budget)
    print("admissible: " + ("yes" if verdict else "no"))
    return 0


def _cmd_search(args, items) -> int:
    if args.max_points < 0:
        raise CorpusError(f"--max-points is a number of points, not {args.max_points}")
    if args.bas is not None and args.bas < 0:
        raise CorpusError(f"--bas takes a natural number, not {args.bas}")
    have_pair = args.lev is not None or args.bas is not None
    if args.antichain is not None:
        if have_pair:
            raise CorpusError("--antichain excludes --lev/--bas")
        if args.antichain < 2:
            raise CorpusError(f"--antichain needs 2 members or more, not {args.antichain}")
        fam = search_antichain(
            args.antichain, args.relation, max_points=args.max_points, budget=args.budget
        )
        print(serialize(corpus_from_items(fam)), end="")
        return 0
    if args.lev is None or args.bas is None:
        raise CorpusError("search needs --lev with --bas, or --antichain")
    try:
        target = UNBOUNDED if args.lev == "unbounded" else LevelValue(int(args.lev))
    except ValueError:
        raise CorpusError(f"--lev takes a natural number or unbounded, not {args.lev!r}")
    found = search_lev_bas_witness(target, args.bas, max_points=args.max_points)
    if found is None:
        print("no")
        return 1
    print(serialize(corpus_from_items([found])), end="")
    return 0


class _Opt(NamedTuple):
    """One option of a command; ``type`` None makes it a switch."""

    flag: str
    type: Callable | None = str
    default: object = None
    choices: tuple | None = None
    required: bool = False


class _Command(NamedTuple):
    """One command: ``relations`` are the choices of its first positional
    (None: it has none), ``count`` how many item names it takes (None: any
    number) and ``takes`` the kinds of item it works on (None: it reads no
    items and has no positionals, so any given are a usage error)."""

    handler: Callable
    help: str
    relations: tuple | None
    options: tuple[_Opt, ...]
    count: int | None = None
    takes: tuple | None = ("map", "problem")


_RELATIONS = ("le0", "le2", "lect")
_BUDGET = _Opt("--budget", int)

# the one description of the command line: build_parser and _read both
# read it
COMMANDS = {
    "check": _Command(
        _cmd_check, "decide one reducibility, with witness", _RELATIONS,
        (_Opt("--cap", int, 3), _Opt("--witness", None, False), _BUDGET), count=2,
    ),
    "invariants": _Command(_cmd_invariants, "level and basesize table", None, (), count=1),
    "sup": _Command(_cmd_sup, "join of maps or problems", ("le0", "le2"), (_Opt("--name"),)),
    "inf": _Command(
        _cmd_inf, "meet of total maps with one codomain", None, (_Opt("--name"),),
        takes=("map",),
    ),
    "poset": _Command(
        _cmd_poset, "degree poset, plain or DOT", _RELATIONS,
        (_Opt("--cap", int, 3), _Opt("--dot", None, False), _BUDGET),
    ),
    "decompose": _Command(
        _cmd_decompose, "slice a map below its level sets", None,
        (_Opt("--thresholds", required=True), _BUDGET), count=1, takes=("map",),
    ),
    "admissible": _Command(
        _cmd_admissible, "compare against the full continuous join", None, (_BUDGET,),
        count=1, takes=("map",),
    ),
    "search": _Command(
        _cmd_search, "hunt for invariant witnesses or antichains", None,
        (_Opt("--lev"), _Opt("--bas", int), _Opt("--antichain", int),
         _Opt("--relation", default="le2", choices=_RELATIONS), _Opt("--max-points", int, 8),
         _BUDGET),
        takes=None,
    ),
}


def _reader(name: str, command: _Command) -> tuple[dict, dict, list]:
    """What :func:`_read` needs of a command: its options by flag, each
    with the attribute it sets; the namespace of a line that gives no
    option; the attributes of its required options."""
    flags = {o.flag: (o.flag[2:].replace("-", "_"), o) for o in command.options}
    defaults = {dest: o.default for dest, o in flags.values()}
    defaults.update(command=name, handler=command.handler, count=command.count,
                    takes=command.takes)
    return flags, defaults, [dest for dest, o in flags.values() if o.required]


_READERS = {name: _reader(name, command) for name, command in COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from ``COMMANDS``:
    parsing leaves it unchanged, and every call of ``main`` gets a fresh
    namespace."""
    top = argparse.ArgumentParser(
        prog="contred",
        description="Reducibility degrees of maps between finite spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.relations:
            p.add_argument("relation", choices=command.relations)
        if command.takes:
            p.add_argument("rest", nargs="*", metavar="ITEM|FILE.clt")
        for o in command.options:
            if o.type is None:
                p.add_argument(o.flag, action="store_true")
            else:
                p.add_argument(o.flag, type=o.type, default=o.default,
                               choices=o.choices, required=o.required)
        p.set_defaults(handler=command.handler, count=command.count, takes=command.takes)
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments argparse reads from ``argv``; a line it rejects, or
    asks for help with, raises ``SystemExit`` after argparse has printed."""
    parser = build_parser()
    # argparse fills the item list before the first option, so item names
    # after an option come back as leftovers
    args, extra = parser.parse_known_args(argv)
    if extra:
        if not args.takes or any(a.startswith("-") for a in extra):
            parser.error("unrecognized arguments: " + " ".join(extra))
        args.rest += extra
    return args


def _read(argv: list[str]) -> argparse.Namespace | None:
    """:func:`_parse_args` of a plainly well-formed ``argv``, read from
    ``COMMANDS`` alone; None for any other line.

    A plain line is a command name, then its known long options written in
    full (a value option followed by a value that does not start with
    ``-``), its relation as the first positional and its items anywhere,
    with its required options present.  Help, ``--opt=value``,
    abbreviations, values starting with ``-`` and every usage error are
    left to argparse.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags, defaults, required = _READERS[argv[0]]
    got = defaults.copy()
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        known = flags.get(token)
        if known is None:
            return None
        dest, o = known
        if o.type is None:
            got[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            got[dest] = value = o.type(value)
        except ValueError:
            return None
        if o.choices and value not in o.choices:
            return None
    if command.relations:
        if not positionals or positionals[0] not in command.relations:
            return None
        got["relation"] = positionals.pop(0)
    if command.takes:
        got["rest"] = positionals
    elif positionals:
        return None
    for dest in required:
        if got[dest] is None:
            return None
    args = argparse.Namespace()
    args.__dict__.update(got)
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            return 0 if code == 0 else 2
    try:
        items = _resolve_items(args) if args.takes else []
        if "budget" in args:
            args.budget = _resolve_budget(args.budget)
        return args.handler(args, items)
    except CapacityError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ContredError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
