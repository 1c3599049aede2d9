"""The seeded workloads: plans, set-up, operations and checks.

A workload turns a seeded random stream into a *plan* (plain data, made by
the benchmark alone), *builds* contred inputs from the plan with contred's
own constructors (this is what ``setup_s`` times), lists the *operations*
of a range of rounds (zero-argument callables, timed one by one) and
finally *checks* every recorded result against the reference computations
in ``ref``.

Every run is a whole number of *rounds*; a round is a fixed sequence of
operation slots whose kinds, and where known the verdicts, are the same in
every round and for every seed, so that each run's cost profile repeats.
"""

from __future__ import annotations

import io
import os
import random
from array import array
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from types import SimpleNamespace

import contred
import contred.cli

import ref

OK = "ok"
RAISED = ("failed", "raised")  # the run records the exception itself


def _decide(fname, lhs, rhs):
    """One decision with a fresh public Budget: (witness or None, nodes used)."""
    budget = contred.Budget()
    found = getattr(contred, fname)(lhs, rhs, budget)
    return found, budget.used


def _cli(argv, save_to=None):
    """One CLI command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = contred.cli.main(argv)
    if save_to is not None:
        with open(save_to, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    return code, out.getvalue(), err.getvalue()


def _build(space: ref.RefSpace):
    return contred.build_space(space.name, space.names, space.below_pairs())


def _make(m: ref.RefMap, dom, cod):
    return contred.make_map(m.name, dom, cod, m.rows())


def _forced_lazy(maps):
    """Finish the inputs' lazy set-up: value vectors and definition masks."""
    for m in maps:
        m.vec, m.def_mask, m.dom.down, m.cod.down


def _verdict_check(expected, found, replay):
    if (found is not None) != expected:
        return "wrong", f"verdict {found is not None}, reference {expected}"
    if found is not None and not replay(found):
        return "wrong", "witness does not replay"
    return OK


class Workload:
    name = ""
    round_slots: tuple = ()
    rounds_per_s = 1.0    # calibrated so that --seconds is about the timed phase

    def rounds(self, seconds):
        return max(1, round(seconds * self.rounds_per_s))

    def _op_range(self, rounds):
        """Indices of the operations of a range of rounds."""
        per_round = len(self.round_slots)
        return range(rounds.start * per_round, rounds.stop * per_round)

    def search_nodes(self, results):
        """Sum of Budget.used over the decisions (given a fresh Budget each)."""
        return sum(r[1] for r in results if r is not None)


# -- sweep3 ----------------------------------------------------------------


def preorders_up_to(max_points):
    """One space per preorder on n = 1..max_points points, named P{n}_{k}."""
    out = []
    for n in range(1, max_points + 1):
        pts = [f"q{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        seen = {}
        for bits in range(1 << len(pairs)):
            chosen = [(pts[i], pts[j]) for k, (i, j) in enumerate(pairs) if (bits >> k) & 1]
            s = ref.RefSpace("", pts, chosen)
            seen.setdefault(s.up, chosen)
        for k, chosen in enumerate(seen.values()):
            out.append(ref.RefSpace(f"P{n}_{k}", pts, chosen))
    return out


def _expand(slot_counts, seed):
    """A round's slots: each (kind..., count) entry repeated count times, in
    one fixed shuffled order."""
    slots = [kind for *kind, count in slot_counts for _ in range(count)]
    random.Random(seed).shuffle(slots)
    return tuple(tuple(s) for s in slots)


class Sweep3(Workload):
    """le2_map (and le0_map) on total maps between spaces of 1-3 points.

    Criterion 1 decides every ordered pair of total maps with one (domain,
    codomain) over the spaces of at most 3 points.  A run draws ``combos``
    (domain, codomain) pairs with a 3-point domain and ``small_combos`` with
    a 1- or 2-point domain, each weighted by the number of map pairs it has
    in criterion 1, and ``maps_per_combo`` random total maps for each.  An
    operation decides one ordered pair of distinct maps of one combo of its
    slot's domain class, drawn again until the reference verdict matches the
    slot.  The slots of a round follow the shares of criterion 1's pairs
    (see README), and fixing them keeps the mix of cheap and costly
    decisions, and so ``op_ms_p50``, the same for every seed.
    """

    name = "sweep3"
    # (decider, verdict, domain class: 3 points or "small", slots per round)
    round_slots = _expand((("le2_map", True, 3, 47), ("le2_map", False, 3, 16),
                           ("le2_map", True, "small", 1),
                           ("le0_map", True, 3, 2), ("le0_map", False, 3, 6)), "sweep3 round")
    rounds_per_s = 120.0
    combos = 480
    small_combos = 48
    maps_per_combo = 16

    def __init__(self):
        self.spaces = preorders_up_to(3)

    def plan(self, rng, rounds):
        """The pool as RefMaps, and per operation one index c*M*M + i*M + j
        (combo c, maps i and j, M maps per combo) in a compact array."""
        M = self.maps_per_combo
        pool, classes = [], {3: [], "small": []}
        for size, count in ((3, self.combos), ("small", self.small_combos)):
            doms = [s for s in self.spaces if (s.n == 3) == (size == 3)]
            combos = [(d, c) for d in doms for c in self.spaces]
            weights = [(c.n ** d.n) ** 2 for d, c in combos]
            for dom, cod in rng.choices(combos, weights, k=count):
                c = len(pool)
                classes[size].append(c)
                pool.append([ref.RefMap(f"c{c}m{i}", dom, cod,
                                        [rng.randrange(cod.n) for _ in range(dom.n)])
                             for i in range(M)])
        # reference verdicts, computed as pairs are drawn: 0 unknown, 1 no, 2 yes
        verdicts = {"le2_map": bytearray(len(pool) * M * M),
                    "le0_map": bytearray(len(pool) * M * M)}
        decide = {"le2_map": ref.le2, "le0_map": ref.le0}
        ops = array("I")
        for k in range(rounds * len(self.round_slots)):
            fname, want, size = self.round_slots[k % len(self.round_slots)]
            known = verdicts[fname]
            while True:
                c = rng.choice(classes[size])
                i, j = rng.sample(range(M), 2)
                key = (c * M + i) * M + j
                if not known[key]:
                    known[key] = 1 + decide[fname](pool[c][i], pool[c][j])
                if known[key] == 1 + want:
                    break
            ops.append(key)
        return SimpleNamespace(pool=pool, ops=ops)

    def _pair(self, plan, k):
        """(decider, verdict, combo, i, j) of operation k."""
        fname, want, _size = self.round_slots[k % len(self.round_slots)]
        cij, j = divmod(plan.ops[k], self.maps_per_combo)
        c, i = divmod(cij, self.maps_per_combo)
        return fname, want, c, i, j

    def build(self, plan, workdir):
        """Build the pool, write it as one corpus and load it back."""
        spaces = {s.name: _build(s) for s in self.spaces}
        maps = [_make(m, spaces[m.dom.name], spaces[m.cod.name])
                for combo in plan.pool for m in combo]
        corpus = contred.parse(contred.serialize(contred.corpus_from_items(maps)))
        _forced_lazy(corpus.maps.values())
        return [[corpus.maps[m.name] for m in combo] for combo in plan.pool]

    def operations(self, plan, inputs, rounds):
        ops = []
        for k in self._op_range(rounds):
            fname, _want, c, i, j = self._pair(plan, k)
            ops.append(partial(_decide, fname, inputs[c][i], inputs[c][j]))
        return ops

    def check(self, plan, inputs, results, rounds):
        out = []
        for k, res in zip(self._op_range(rounds), results):
            if res is None:
                out.append(RAISED)
                continue
            fname, want, c, i, j = self._pair(plan, k)
            replay = ref.replay2 if fname == "le2_map" else ref.replay0
            out.append(_verdict_check(want, res[0], partial(replay, plan.pool[c][i],
                                                            plan.pool[c][j])))
        return out


# -- session ---------------------------------------------------------------


class Session(Workload):
    """A fixed script of CLI commands per round, over a generated corpus.

    Every round writes its own corpus: 14 maps (10 total, 4 partial) over
    four random_space domains of 2, 3, 3 and 4 points into discrete2 or
    chain2.  The comma corpus of the last slot has points named with
    commas; its ``check le2`` must answer yes but fails today (see
    CHANGES.md).
    """

    name = "session"
    dom_sizes = (2, 3, 3, 4)
    pool = 14
    poset_size = 12
    posets = 20
    round_slots = (("poset",) * 20 + ("check_w", "check_w", "lect", "sup")
                   + ("member",) * 3 + ("invariants", "comma"))
    rounds_per_s = 3.0

    def plan(self, rng, rounds):
        rounds_plan = []
        for r in range(rounds):
            doms = [(n, rng.randrange(1 << 30)) for n in self.dom_sizes]
            maps = []
            for k in range(self.pool):
                # m0 and m1 are total maps on the 2- and 3-point domains: the
                # lect pair, whose 3-fold power of g has only 8 points
                dom = k if k < 2 else rng.randrange(len(doms))
                cod = rng.choice(("discrete2", "chain2"))
                total = k < 10
                maps.append((f"m{k}", dom, cod, total, rng.randrange(1 << 30)))
            rounds_plan.append(SimpleNamespace(
                doms=doms, maps=maps,
                posets=[rng.sample(range(self.pool), self.poset_size)
                        for _ in range(self.posets)],
                checks=[tuple(rng.sample(range(self.pool), 2)) for _ in range(2)],
                lect=(1, 0),
                sup=rng.sample(range(self.pool), 3),
            ))
        return rounds_plan

    def build(self, plan, workdir):
        cods = {"discrete2": contred.discrete(2), "chain2": contred.chain(2)}
        comma_x = contred.build_space("X", ["a", "a,b"])
        comma_y = contred.build_space("Y", ["b,c", "c"])
        comma = [contred.make_map("p", comma_x, comma_x, {"a": "a", "a,b": "a,b"}),
                 contred.make_map("q", comma_x, comma_y, {"a": "b,c", "a,b": "c"})]
        comma_path = os.path.join(workdir, "comma.clt")
        self._write(comma_path, contred.serialize(contred.corpus_from_items(comma)))
        rounds = []
        for r, rp in enumerate(plan):
            doms = [contred.random_space(n, 0.6, s) for n, s in rp.doms]
            maps = []
            for name, dom, cod, total, seed in rp.maps:
                make = contred.random_map if total else contred.random_partial_map
                maps.append(make(doms[dom], cods[cod], seed=seed, name=name))
            text = contred.serialize(contred.corpus_from_items(maps))
            path = os.path.join(workdir, f"corpus{r}.clt")
            self._write(path, text)
            if contred.serialize(contred.parse(text)) != text:
                raise RuntimeError("corpus does not round-trip")
            rounds.append(SimpleNamespace(
                maps=maps, corpus=path, join=os.path.join(workdir, f"join{r}.clt")))
        return SimpleNamespace(rounds=rounds, comma=comma, comma_path=comma_path)

    @staticmethod
    def _write(path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def operations(self, plan, inputs, rounds):
        ops = []
        for r in rounds:
            rp, ri = plan[r], inputs.rounds[r]
            names = [m.name for m in ri.maps]
            both = [ri.corpus, ri.join]
            join = f"J{r}"
            for subset in rp.posets:
                ops.append(partial(_cli, ["poset", "le2", *(names[i] for i in subset), ri.corpus]))
            for a, b in rp.checks:
                ops.append(partial(_cli, ["check", "le2", names[a], names[b], ri.corpus, "--witness"]))
            a, b = rp.lect
            ops.append(partial(_cli, ["check", "lect", names[a], names[b], ri.corpus, "--witness"]))
            ops.append(partial(_cli, ["sup", "le2", *(names[i] for i in rp.sup), ri.corpus,
                                      "--name", join], save_to=ri.join))
            for i in rp.sup:
                ops.append(partial(_cli, ["check", "le2", names[i], join, *both, "--witness"]))
            ops.append(partial(_cli, ["invariants", join, *both]))
            ops.append(partial(_cli, ["check", "le2", "p", "q", inputs.comma_path]))
        return ops

    def search_nodes(self, results):
        return 0  # the CLI makes its own budgets

    def check(self, plan, inputs, results, rounds):
        out = []
        per_round = len(self.round_slots)
        cx, cy = ref.space_of(inputs.comma[0].dom), ref.space_of(inputs.comma[1].cod)
        cp, cq = ref.map_of(inputs.comma[0], cx, cx), ref.map_of(inputs.comma[1], cx, cy)
        comma_yes = ref.le2(cp, cq)
        for n, r in enumerate(rounds):
            rp, ri = plan[r], inputs.rounds[r]
            spaces = {}

            def space(s):
                return spaces.setdefault(s.name, ref.space_of(s))

            pool = [ref.map_of(m, space(m.dom), space(m.cod)) for m in ri.maps]
            le2_memo = {}

            def le2(a, b):
                if (a, b) not in le2_memo:
                    le2_memo[a, b] = ref.le2(pool[a], pool[b])
                return le2_memo[a, b]

            res = results[n * per_round:(n + 1) * per_round]
            k = 0
            for subset in rp.posets:
                names = [pool[i].name for i in subset]
                below = [[le2(i, j) for j in subset] for i in subset]
                out.append(_cli_check(res[k], 0, ref.poset_lines(names, below)))
                k += 1
            for a, b in rp.checks:
                out.append(_witness_check(res[k], le2(a, b), pool[a], pool[b]))
                k += 1
            out.append(_lect_check(res[k], pool[rp.lect[0]], pool[rp.lect[1]]))
            k += 1
            sup_result = res[k]
            out.append(_cli_check(sup_result, 0, None))
            k += 1
            joined = None
            if sup_result is not None and sup_result[0] == 0:
                joined = ref.parse_corpus(sup_result[1])[1].get(f"J{r}")
            for i in rp.sup:
                if joined is None:
                    out.append(("wrong", "no join to check against"))
                else:
                    out.append(_witness_check(res[k], True, pool[i], joined))
                k += 1
            members = [pool[i] for i in rp.sup]
            out.append(_cli_check(res[k], 0, [ref.invariants_line(members)]))
            k += 1
            out.append(_witness_check(res[k], comma_yes, cp, cq, witness=False))
        return out


def _cli_check(result, want_code, want_lines):
    if result is None:
        return RAISED
    code, stdout, stderr = result
    if code != want_code:
        return "failed", f"exit {code}, wanted {want_code}: {stderr.strip()}"
    if want_lines is not None and stdout.splitlines() != want_lines:
        return "wrong", f"output {stdout.splitlines()[:4]} != {want_lines[:4]}"
    return OK


def _witness_rows(stdout, lhs, rhs):
    """The G and F printed after 'yes' by `check ... --witness`."""
    _spaces, maps = ref.parse_corpus(stdout.split("\n", 1)[1])
    tables = {}
    for prefix in ("G", "F"):
        m = maps.get(f"{prefix}[{lhs},{rhs}]")
        if m is None:
            return None
        tables[prefix] = SimpleNamespace(table=m.rows(), dom=SimpleNamespace(points=m.dom.names))
    return SimpleNamespace(translation=tables["G"], postprocess=tables["F"])


def _witness_check(result, expected, p, q, witness=True):
    """A `check le2` answer: the reference verdict, and a replaying witness."""
    if result is None:
        return RAISED
    code, stdout, stderr = result
    if code not in (0, 1):
        return "failed", f"exit {code}: {stderr.strip()}"
    if (code == 0) != expected or stdout.split("\n", 1)[0] != ("yes" if expected else "no"):
        return "wrong", f"verdict exit {code}, reference {expected}"
    if expected and witness:
        w = _witness_rows(stdout, p.name, q.name)
        if w is None or not ref.replay2(p, q, w):
            return "wrong", "printed witness does not replay"
    return OK


def _lect_check(result, f, g, cap=3):
    if result is None:
        return RAISED
    code, stdout, stderr = result
    if code not in (0, 1):
        return "failed", f"exit {code}: {stderr.strip()}"
    least = next((n for n in range(1, cap + 1) if ref.le2(f, ref.power(g, n))), None)
    if (code == 0) != (least is not None):
        return "wrong", f"verdict exit {code}, reference copies {least}"
    if least is None:
        return OK if stdout == "no\n" else ("wrong", "expected 'no'")
    lines = stdout.split("\n", 2)
    if lines[:2] != ["yes", f"copies {least}"]:
        return "wrong", f"{lines[:2]} but the least number of copies is {least}"
    gn = ref.power(g, least)
    gname = g.name if least == 1 else f"{g.name}^{least}"
    w = _witness_rows("\n".join(lines[1:]), f.name, gname)
    if w is None or not ref.replay2(f, gn, w):
        return "wrong", "printed witness does not replay"
    return OK


WORKLOADS = {w.name: w for w in (Sweep3(), Session())}
