"""Verdict and size shares over criterion 1's pairs, from the references.

    python3 perfbench/run.py --shares     # about a minute

Criterion 1 decides every ordered pair of total maps with one (domain,
codomain) over the spaces of at most 3 points.  This counts those pairs by
domain and codomain size with their le2 and le0 verdicts, computed by
``ref`` alone; ``sweep3``'s round and combo weights follow these shares.
The 35 pairs on the empty domain are left out, as ``sweep3`` leaves it out.
"""

from __future__ import annotations

from itertools import product

import ref
from workloads import preorders_up_to


def main():
    spaces = preorders_up_to(3)
    counts = {}
    for dom in spaces:
        for cod in spaces:
            maps = [ref.RefMap("", dom, cod, v) for v in product(range(cod.n), repeat=dom.n)]
            c = counts.setdefault((dom.n, cod.n), [0, 0, 0])
            for f in maps:
                for g in maps:
                    c[0] += 1
                    c[1] += ref.le2(f, g)
                    c[2] += ref.le0(f, g)
    total = sum(c[0] for c in counts.values())
    print(f"{'domain':>6} {'codomain':>8} {'pairs':>7} {'share':>7} {'le2 yes':>8} {'le0 yes':>8}")
    for (d, n), (pairs, yes2, yes0) in sorted(counts.items()):
        print(f"{d:6} {n:8} {pairs:7} {pairs / total:7.4f} {yes2 / pairs:8.4f} {yes0 / pairs:8.4f}")
    for label, keep in (("3-point domains", lambda d: d == 3),
                        ("1-2-point domains", lambda d: d < 3), ("all", lambda d: True)):
        rows = [c for (d, _n), c in counts.items() if keep(d)]
        pairs = sum(c[0] for c in rows)
        print(f"{label}: {pairs} pairs ({pairs / total:.4f}), le2 yes"
              f" {sum(c[1] for c in rows) / pairs:.4f}, le0 yes {sum(c[2] for c in rows) / pairs:.4f}")
