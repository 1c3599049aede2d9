"""Command-line front end.

Items live in .clt corpus files; any argument ending in ``.clt`` names a
corpus file and every other positional is an item declared in one of
them.  Exit codes: 0 yes/success, 1 no (for ``check``), 2 usage or
corpus errors, 3 exhausted search/capacity budgets.  Search budgets obey
``--budget`` first, then the ``CONTRED_BUDGET`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

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
    basesize,
    basesize_problem,
    level,
    level_problem,
)
from .lattice import inf0, sup0, sup0_problem, sup2, sup2_problem
from .reducibility import CtResult, Witness0, Witness2, decide
from .spaces import PartialMap, Problem


def _load_corpus(files: list[str]) -> Corpus:
    merged = Corpus()
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CorpusError(f"cannot read {path!r}: {exc}") from exc
        one = parse(text)
        for kind in ("spaces", "maps", "relations", "problems"):
            pool = getattr(merged, kind)
            for name, item in getattr(one, kind).items():
                if name in pool and pool[name] != item:
                    raise CorpusError(
                        f"{kind[:-1]} {name!r} declared differently in {path!r}"
                    )
                pool[name] = item
    return merged


def _split_rest(rest: list[str]) -> tuple[list[str], list[str]]:
    names = [a for a in rest if not a.endswith(".clt")]
    files = [a for a in rest if a.endswith(".clt")]
    return names, files


def _items(corpus: Corpus, names: list[str]) -> list:
    out = []
    for n in names:
        try:
            out.append(corpus.item(n))
        except KeyError:
            raise CorpusError(f"nothing named {n!r} in the loaded corpora")
    return out


def _resolve_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("CONTRED_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise CorpusError(f"CONTRED_BUDGET={env!r} is not an integer")
    return None


def _print_witness(found) -> None:
    if isinstance(found, CtResult):
        print(f"copies {found.copies}")
        found = found.witness
    if isinstance(found, Witness2):
        print(serialize(corpus_from_items([found.translation, found.postprocess])), end="")
    elif isinstance(found, Witness0):
        print(serialize(corpus_from_items([found.translation])), end="")


def _cmd_check(args) -> int:
    names, files = _split_rest(args.rest)
    if len(names) != 2:
        raise CorpusError("check needs exactly two item names")
    corpus = _load_corpus(files)
    lhs, rhs = _items(corpus, names)
    found = decide(lhs, rhs, args.relation, _resolve_budget(args), args.cap)
    if found is None:
        print("no")
        return 1
    print("yes")
    if args.witness:
        _print_witness(found)
    return 0


def _fmt_level(value) -> str:
    return str(value)


def _cmd_invariants(args) -> int:
    names, files = _split_rest(args.rest)
    if len(names) != 1:
        raise CorpusError("invariants takes one item name")
    item = _items(_load_corpus(files), names)[0]
    if isinstance(item, Problem):
        l1, l2, b = (
            level_problem(item, 1),
            level_problem(item, 2),
            basesize_problem(item),
        )
    elif isinstance(item, PartialMap):
        l1, l2, b = level(item, 1), level(item, 2), basesize(item)
    else:
        raise CorpusError(f"{names[0]!r} is a space; invariants need a map or problem")
    print(f"lev1={_fmt_level(l1)} lev2={_fmt_level(l2)} bas={b}")
    return 0


def _cmd_sup(args) -> int:
    names, files = _split_rest(args.rest)
    items = _items(_load_corpus(files), names)
    problems = [isinstance(x, Problem) for x in items]
    if any(problems) and not all(problems):
        raise CorpusError("sup items must be all maps or all problems")
    if args.relation == "le2":
        built = (sup2_problem if all(problems) and items else sup2)(
            items, name=args.name
        )
    else:
        built = (sup0_problem if all(problems) and items else sup0)(
            items, name=args.name
        )
    print(serialize(corpus_from_items([built])), end="")
    return 0


def _cmd_inf(args) -> int:
    names, files = _split_rest(args.rest)
    items = _items(_load_corpus(files), names)
    built = inf0(items, name=args.name)
    print(serialize(corpus_from_items([built])), end="")
    return 0


def _cmd_poset(args) -> int:
    names, files = _split_rest(args.rest)
    items = _items(_load_corpus(files), names)
    po = degree_poset(items, args.relation, _resolve_budget(args), args.cap)
    if args.dot:
        print(to_dot(po), end="")
        return 0
    for c in range(len(po.classes)):
        print(f"class {c}: {po.class_label(c)}")
    for a, b in sorted(po.hasse):
        print(f"cover: {a} < {b}")
    return 0


def _cmd_decompose(args) -> int:
    names, files = _split_rest(args.rest)
    if len(names) != 1:
        raise CorpusError("decompose takes one item name")
    item = _items(_load_corpus(files), names)[0]
    if not isinstance(item, PartialMap):
        raise CorpusError("decompose works on maps")
    try:
        thresholds = tuple(int(t) for t in args.thresholds.split(","))
    except ValueError:
        raise CorpusError(f"bad threshold list {args.thresholds!r}")
    result = decompose_by_level(item, thresholds, _resolve_budget(args))
    print(serialize(corpus_from_items(result.parts.items)), end="")
    print(f"holds: {'yes' if result.holds else 'no'}")
    return 0


def _cmd_admissible(args) -> int:
    names, files = _split_rest(args.rest)
    if len(names) != 1:
        raise CorpusError("admissible takes one map name")
    item = _items(_load_corpus(files), names)[0]
    if not isinstance(item, PartialMap):
        raise CorpusError("admissible works on maps")
    verdict = admissible(item, _resolve_budget(args))
    print("admissible: " + ("yes" if verdict else "no"))
    return 0


def _cmd_search(args) -> int:
    have_pair = args.lev is not None or args.bas is not None
    if args.antichain is not None:
        if have_pair:
            raise CorpusError("--antichain excludes --lev/--bas")
        fam = search_antichain(
            args.antichain,
            args.relation,
            max_points=args.max_points,
            seed=args.seed,
            budget=_resolve_budget(args),
        )
        print(serialize(corpus_from_items(fam)), end="")
        return 0
    if args.lev is None or args.bas is None:
        raise CorpusError("search needs --lev with --bas, or --antichain")
    target = UNBOUNDED if args.lev == "unbounded" else int(args.lev)
    found = search_lev_bas_witness(
        target, args.bas, max_points=args.max_points, seed=args.seed
    )
    print(serialize(corpus_from_items([found])), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="contred",
        description="Reducibility degrees of maps between finite spaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("rest", nargs="*", metavar="ITEM|FILE.clt")
        if budget:
            p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("check", help="decide one reducibility, with witness")
    p.add_argument("relation", choices=["le0", "le2", "lect"])
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("invariants", help="level and basesize table")
    common(p, budget=False)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("sup", help="join of maps or problems")
    p.add_argument("relation", choices=["le0", "le2"])
    p.add_argument("--name", default=None)
    common(p, budget=False)
    p.set_defaults(handler=_cmd_sup)

    p = sub.add_parser("inf", help="meet of total maps with one codomain")
    p.add_argument("--name", default=None)
    common(p, budget=False)
    p.set_defaults(handler=_cmd_inf)

    p = sub.add_parser("poset", help="degree poset, plain or DOT")
    p.add_argument("relation", choices=["le0", "le2", "lect"])
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("decompose", help="slice a map below its level sets")
    p.add_argument("--thresholds", required=True)
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("admissible", help="compare against the full continuous join")
    common(p)
    p.set_defaults(handler=_cmd_admissible)

    p = sub.add_parser("search", help="hunt for invariant witnesses or antichains")
    p.add_argument("--lev", default=None)
    p.add_argument("--bas", type=int, default=None)
    p.add_argument("--antichain", type=int, default=None)
    p.add_argument("--relation", choices=["le0", "le2", "lect"], default="le2")
    p.add_argument("--max-points", type=int, default=8, dest="max_points")
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_search)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.handler(args)
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
