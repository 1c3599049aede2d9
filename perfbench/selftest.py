"""Each check must accept genuine results and reject corrupted ones.

For every workload a one-round plan is run untimed; its results must all
pass.  Then each check is fed one corrupted verdict and one corrupted
witness (or output) and must reject it.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from workloads import OK, WORKLOADS


def _drop_rows(w, which):
    """A copy of witness ``w`` with all rows of its G or F removed."""
    parts = dict(vars(w)) if isinstance(w, SimpleNamespace) else {
        k: getattr(w, k) for k in ("translation", "postprocess") if hasattr(w, k)}
    parts[which] = SimpleNamespace(table=(), dom=parts[which].dom)
    return SimpleNamespace(**parts)


def _replace_value(w, p):
    """Change F at one reached pair (x, q(G x)) to another value of p's codomain."""
    f = w.postprocess
    others = [v for v in p.cod.names if v != f.table[0][1]]
    rows = ((f.table[0][0], others[0]),) + tuple(f.table[1:])
    return SimpleNamespace(translation=w.translation,
                           postprocess=SimpleNamespace(table=rows, dom=f.dom))


def _edit_stdout(result, old, new):
    code, out, err = result
    return code, out.replace(old, new, 1), err


def selftest() -> int:
    work = Path(__file__).resolve().parent / "work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=work)
    bad = []

    def expect(label, outcomes, k, accepted):
        got = outcomes[k] == OK
        print(f"{'pass' if got == accepted else 'FAIL'}  {label}: {outcomes[k]}")
        if got != accepted:
            bad.append(label)

    try:
        runs = {}
        for name, w in WORKLOADS.items():
            plan = w.plan(random.Random(f"selftest:{name}"), 1)
            inputs = w.build(plan, tmp)
            results = [op() for op in w.operations(plan, inputs, range(1))]
            outcomes = w.check(plan, inputs, results, range(1))
            # the session's comma slot is the one operation allowed to fail
            genuine = all(o == OK or (o[0] == "failed" and name == "session"
                                      and w.round_slots[k % len(w.round_slots)] == "comma")
                          for k, o in enumerate(outcomes))
            print(f"{'pass' if genuine else 'FAIL'}  {name}: genuine results accepted")
            if not genuine:
                bad.append(f"{name} genuine")
            runs[name] = (w, plan, inputs, results)

        def corrupt(name, k, value, label):
            w, plan, inputs, results = runs[name]
            changed = list(results)
            changed[k] = value
            expect(f"{name} {label}", w.check(plan, inputs, changed, range(1)), k, False)

        w, plan, inputs, results = runs["sweep3"]
        pairs = [w._pair(plan, i) for i in range(len(results))]

        def lhs(i):
            _fname, _want, c, a, _b = pairs[i]
            return plan.pool[c][a]

        k = next(i for i, r in enumerate(results) if r[0] is not None
                 and lhs(i).cod.n > 1 and pairs[i][0] == "le2_map")
        found, used = results[k]
        corrupt("sweep3", k, (None, used), "yes reported as no")
        corrupt("sweep3", k, (_replace_value(found, lhs(k)), used), "F changed at a reached pair")
        corrupt("sweep3", k, (_drop_rows(found, "postprocess"), used), "F emptied")
        k = next(i for i, r in enumerate(results) if pairs[i][0] == "le0_map" and r[0] is not None)
        corrupt("sweep3", k, (None, 0), "le0 yes reported as no")
        corrupt("sweep3", k, (_drop_rows(results[k][0], "translation"), 0), "le0 G emptied")
        k = next(i for i, r in enumerate(results) if r[0] is None)
        corrupt("sweep3", k, (found, 0), "no reported as yes")

        w, plan, inputs, results = runs["session"]
        slots = w.round_slots
        poset = slots.index("poset")
        line = results[poset][1].splitlines()[0]
        corrupt("session", poset, _edit_stdout(results[poset], line, line + "x"), "poset class line")
        covers = [ln for ln in results[poset][1].splitlines() if ln.startswith("cover")]
        if covers:
            corrupt("session", poset, _edit_stdout(results[poset], covers[0] + "\n", ""),
                    "poset cover dropped")
        member = slots.index("member")
        corrupt("session", member, (1, "no\n", ""), "member below join reported as no")
        rows = [ln for ln in results[member][1].splitlines() if ln.startswith("  (")]
        corrupt("session", member, _edit_stdout(results[member], rows[0] + "\n", ""),
                "printed F loses a row")
        lect = slots.index("lect")
        code, out, err = results[lect]
        if code == 0:
            n = out.splitlines()[1].split()[1]
            corrupt("session", lect, _edit_stdout(results[lect], f"copies {n}", f"copies {int(n) + 1}"),
                    "lect copies off by one")
        else:
            corrupt("session", lect, (0, "yes\ncopies 1\n", ""), "lect no reported as yes")
        inv = slots.index("invariants")
        corrupt("session", inv, _edit_stdout(results[inv], "bas=", "bas=9"), "join basesize")
        corrupt("session", slots.index("comma"), (1, "no\n", ""), "comma yes reported as no")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest", "FAILED: " + ", ".join(bad) if bad else "passed", file=sys.stderr)
    return 1 if bad else 0
