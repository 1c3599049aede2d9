"""Command-line front end.

Items live in .clt corpus files; any argument ending in ``.clt`` names a
corpus file and every other positional is an item declared in one of
them.  ``main`` looks the items up before any command runs, so a name of
the wrong kind (a space, a relation, a problem where only maps are taken)
is a usage error.  Exit codes: 0 yes/success, 1 no (for ``check``), 2
usage or corpus errors, 3 exhausted search/capacity budgets.  Search
budgets obey ``--budget`` first, then the ``CONTRED_BUDGET`` environment
variable.  Every command reads its files afresh, but a text read before in
the same process reuses the items parsed from it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import OrderedDict

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
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CorpusError(f"cannot read {path!r}: {exc}") from exc
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
    names = [a for a in args.rest if not a.endswith(".clt")]
    if args.count is not None and len(names) != args.count:
        wanted = "one item name" if args.count == 1 else "exactly two item names"
        raise CorpusError(f"{args.command} takes {wanted}")
    corpus = _load_corpus([a for a in args.rest if a.endswith(".clt")])
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
    source, budget = "--budget", flag
    if budget is None:
        env = os.environ.get("CONTRED_BUDGET")
        if not env:
            return None
        try:
            source, budget = "CONTRED_BUDGET", int(env)
        except ValueError:
            raise CorpusError(f"CONTRED_BUDGET={env!r} is not an integer")
    if budget < 0:
        raise CorpusError(f"{source} is a number of search nodes, not {budget}")
    return budget


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
    for c in range(len(po.classes)):
        print(f"class {c}: {po.class_label(c)}")
    for a, b in po.hasse:
        print(f"cover: {a} < {b}")
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
    have_pair = args.lev is not None or args.bas is not None
    if args.antichain is not None:
        if have_pair:
            raise CorpusError("--antichain excludes --lev/--bas")
        fam = search_antichain(
            args.antichain,
            args.relation,
            max_points=args.max_points,
            seed=args.seed,
            budget=args.budget,
        )
        print(serialize(corpus_from_items(fam)), end="")
        return 0
    if args.lev is None or args.bas is None:
        raise CorpusError("search needs --lev with --bas, or --antichain")
    try:
        target = UNBOUNDED if args.lev == "unbounded" else LevelValue(int(args.lev))
    except ValueError:
        raise CorpusError(f"--lev takes a natural number or unbounded, not {args.lev!r}")
    found = search_lev_bas_witness(
        target, args.bas, max_points=args.max_points, seed=args.seed
    )
    print(serialize(corpus_from_items([found])), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call of ``main`` gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="contred",
        description="Reducibility degrees of maps between finite spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, handler, count=None, takes=("map", "problem"), budget=True):
        # count: how many item names the command takes (None: any number);
        # takes: the kinds of item it works on (None: it reads no items and
        # has no positionals, so any given are a usage error)
        if takes:
            p.add_argument("rest", nargs="*", metavar="ITEM|FILE.clt")
        if budget:
            p.add_argument("--budget", type=int, default=None)
        p.set_defaults(handler=handler, count=count, takes=takes)

    p = sub.add_parser("check", help="decide one reducibility, with witness")
    p.add_argument("relation", choices=["le0", "le2", "lect"])
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--witness", action="store_true")
    common(p, _cmd_check, count=2)

    p = sub.add_parser("invariants", help="level and basesize table")
    common(p, _cmd_invariants, count=1, budget=False)

    p = sub.add_parser("sup", help="join of maps or problems")
    p.add_argument("relation", choices=["le0", "le2"])
    p.add_argument("--name", default=None)
    common(p, _cmd_sup, budget=False)

    p = sub.add_parser("inf", help="meet of total maps with one codomain")
    p.add_argument("--name", default=None)
    common(p, _cmd_inf, takes=("map",), budget=False)

    p = sub.add_parser("poset", help="degree poset, plain or DOT")
    p.add_argument("relation", choices=["le0", "le2", "lect"])
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    common(p, _cmd_poset)

    p = sub.add_parser("decompose", help="slice a map below its level sets")
    p.add_argument("--thresholds", required=True)
    common(p, _cmd_decompose, count=1, takes=("map",))

    p = sub.add_parser("admissible", help="compare against the full continuous join")
    common(p, _cmd_admissible, count=1, takes=("map",))

    p = sub.add_parser("search", help="hunt for invariant witnesses or antichains")
    p.add_argument("--lev", default=None)
    p.add_argument("--bas", type=int, default=None)
    p.add_argument("--antichain", type=int, default=None)
    p.add_argument("--relation", choices=["le0", "le2", "lect"], default="le2")
    p.add_argument("--max-points", type=int, default=8, dest="max_points")
    p.add_argument("--seed", type=int, required=True)
    common(p, _cmd_search, takes=None)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # argparse fills the item list before the first option, so item
        # names after an option come back as leftovers
        args, extra = parser.parse_known_args(argv)
        if extra:
            if not args.takes or any(a.startswith("-") for a in extra):
                parser.error("unrecognized arguments: " + " ".join(extra))
            args.rest += extra
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
