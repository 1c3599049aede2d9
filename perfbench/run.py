"""Seeded benchmark for contred: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload sweep3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 35      # two interleaved sets
    python3 perfbench/run.py --selftest                    # the checks catch faults
    python3 perfbench/run.py --shares                      # criterion 1's shares

A run plans its inputs from --seed and sets them up once before the timed
phase and sixteen more times spread over it, between chunks of operations
(the median of the seventeen is ``setup_s``).  It performs the workload's whole
operation list once, checks every result against the benchmark's own
reference computations and prints
``{"correct", "attempted", "failed", "metrics"}`` as its last line.  The
operation count is ``--seconds`` times a calibrated rate, so the timed
phase lasts about that long on the reference machine; the run never stops
on a clock, so every run of one seed does identical work.  With --trace 1
the metrics are the per-layer ones of BENCHMARK.json.

contred is imported from ``src/`` of the checkout this file sits in; the
run fails, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LATER_SETUPS = 16
CHUNK_OPS = 4000


def import_contred():
    src = ROOT / "src"
    if not (src / "contred" / "__init__.py").is_file():
        sys.exit(f"perfbench: no contred source under {src}")
    sys.path.insert(0, str(src))
    import contred

    if Path(contred.__file__).resolve().parent != src / "contred":
        sys.exit(f"perfbench: imported contred from {contred.__file__}, not {src}")


def run_workload(name, seed, seconds, trace):
    from spans import Tracer
    from workloads import OK, WORKLOADS

    w = WORKLOADS[name]
    t_plan = perf_counter()
    rounds = w.rounds(seconds)
    plan = w.plan(random.Random(f"{name}:{seed}"), rounds)
    # Chunks of whole rounds; checks run between chunks, off the clock, so
    # that results need not be kept for the whole run.
    per_chunk = max(1, min(CHUNK_OPS // len(w.round_slots), -(-rounds // LATER_SETUPS)))
    chunks = [range(r, min(r + per_chunk, rounds)) for r in range(0, rounds, per_chunk)]
    # set-up samples after these chunks, spread evenly over the run
    later = Counter(((s + 1) * len(chunks) - 1) // LATER_SETUPS for s in range(LATER_SETUPS))
    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "work")
    setups = []

    def timed_build(subdir):
        path = os.path.join(workdir, subdir)
        os.mkdir(path)
        gc.collect()
        t0 = perf_counter()
        built = w.build(plan, path)
        setups.append(perf_counter() - t0)
        return built

    try:
        t_setup = perf_counter()
        inputs = timed_build("inputs")
        tracer = Tracer() if trace else None
        chunk_p50, chunk_p90 = [], []   # (quantile, operations) per chunk
        attempted, failed, wrong = 0, 0, 0
        wall, nodes, check_s = 0.0, 0, 0.0
        for k, chunk in enumerate(chunks):
            ops = w.operations(plan, inputs, chunk)
            results = []
            errors = {}
            times = array("d")
            gc.collect()
            if tracer:
                tracer.install()
            try:
                start = perf_counter()
                for op in ops:
                    t0 = perf_counter()
                    try:
                        results.append(op())
                    except Exception as exc:  # an operation that raises has failed
                        results.append(None)
                        errors[len(results) - 1] = repr(exc)
                    times.append(perf_counter() - t0)
                wall += perf_counter() - start
            finally:
                if tracer:
                    tracer.uninstall()
            deciles = statistics.quantiles(times, n=10, method="inclusive")
            chunk_p50.append((deciles[4], len(times)))
            chunk_p90.append((deciles[8], len(times)))
            t0 = perf_counter()
            for n, outcome in enumerate(w.check(plan, inputs, results, chunk)):
                if outcome != OK:
                    failed += 1
                    wrong += outcome[0] == "wrong"
                    why = errors.get(n, outcome[1])
                    print(f"op {attempted + n}: {outcome[0]}: {why}", file=sys.stderr)
            attempted += len(ops)
            nodes += w.search_nodes(results)
            check_s += perf_counter() - t0
            del ops, results
            # More set-ups, their inputs discarded, so that the samples of
            # setup_s span the run and not one second of it.
            for n in range(later[k]):
                timed_build(f"setup{k}.{n}")
                shutil.rmtree(os.path.join(workdir, f"setup{k}.{n}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# plan {t_setup - t_plan:.2f}s setup {sum(setups):.2f}s"
              f" timed {wall:.2f}s check {check_s:.2f}s", file=sys.stderr)
        print("# set-up samples " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_per_s = attempted / wall
    if tracer:
        untraced = untraced_ops_per_s(name, seed, seconds)
        metrics = tracer.metrics(nodes, untraced / ops_per_s)
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (_mean_over_chunks(chunk_p50) * 1000, "ms"),
            "op_ms_p90": (_mean_over_chunks(chunk_p90) * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _mean_over_chunks(quantiles):
    """A per-chunk quantile of the operation times, averaged over the chunks
    weighted by their operations.  The machine runs in fast and slow phases
    lasting seconds, so over a whole run the operation times are bimodal and
    their median would jump between the modes with the share of the run
    spent in each; the average of per-chunk quantiles follows that share
    smoothly, as ``ops_per_s`` does."""
    return sum(q * n for q, n in quantiles) / sum(n for _q, n in quantiles)


def run_child(workload, seed, seconds, trace):
    """One run in a fresh process; its result line, parsed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_ops_per_s(workload, seed, seconds):
    return run_child(workload, seed, seconds, 0)["metrics"]["ops_per_s"]["value"]


def repeat(n, seconds):
    """Two interleaved sets of n runs of each workload in BENCHMARK.json,
    seeds 1..n and n+1..2n."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(n):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = i + 1 if s == "A" else n + i + 1
                runs[w, s].append(run_child(w, seed, seconds, 0))
                print(f"# {w} set {s} seed {seed} done", file=sys.stderr, flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    saved = HERE / "out" / f"repeat-{n}x{seconds}s.json"
    saved.write_text(json.dumps({f"{w} {s}": r for (w, s), r in runs.items()}, indent=1))
    print(f"# raw results in {saved.relative_to(ROOT)}", file=sys.stderr)
    ok = True
    print(f"{'workload':9} {'metric':12} {'set':3} {'median':>11} {'q1':>11} {'q3':>11}"
          f" {'spread':>7} {'bound':>6}  agree")
    for w in workloads:
        shares = {s: sorted({(r["failed"], r["attempted"]) for r in runs[w, s]}) for s in "AB"}
        same_share = len({f / a for s in "AB" for f, a in shares[s]}) == 1
        ok &= same_share and all(r["correct"] for s in "AB" for r in runs[w, s])
        for name, m in bounds.items():
            meds = {}
            for s in "AB":
                vals = [r["metrics"][name]["value"] for r in runs[w, s]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                meds[s] = med
                spread = (q3 - q1) / med
                print(f"{w:9} {name:12} {s:3} {med:11.4f} {q1:11.4f} {q3:11.4f}"
                      f" {spread:7.3f} {m['bound']:6.2f}", end="")
                if s == "B":
                    worse = (meds["B"] - meds["A"]) / meds["A"]
                    if m["better"] == "higher":
                        worse = -worse
                    agree = abs(worse) <= m["bound"]
                    ok &= agree
                    print(f"  {'yes' if agree else 'NO'} ({worse:+.3f})", end="")
                print()
        print(f"{w:9} failed/attempted A {shares['A']} B {shares['B']}"
              f" {'same' if same_share else 'DIFFERENT'}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="runs per set in repeatability mode")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--shares", action="store_true", help="criterion 1's verdict shares")
    args = ap.parse_args(argv)
    import_contred()
    if args.selftest:
        from selftest import selftest
        return selftest()
    if args.shares:
        from shares import main as shares
        return shares()
    from workloads import WORKLOADS

    if args.repeat:
        return repeat(args.repeat, args.seconds)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
