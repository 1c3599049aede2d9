"""Per-layer spans for the traced run, recorded from the benchmark's side.

Every public contred function listed in ``SPANS`` is replaced by a timing
wrapper under every name a ``contred.*`` module binds it to, because each
module that imports a function looks it up in its own namespace.  Spans
nest on one stack: a span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span kind -> (defining module, public functions)
SPANS = {
    "product": ("spaces", ("product", "product_space", "coproduct", "delta",
                           "pi_pair", "pi_power")),
    "map_build": ("spaces", ("make_map", "partial_map", "total_map", "compose",
                             "restrict")),
    "decider": ("reducibility", ("le0_map", "le0_problem", "le2_map", "le2_fn",
                                 "le2_problem", "le_ct")),
    "verifier": ("reducibility", ("verify_witness0", "verify_witness2")),
    "invariants": ("invariants", ("level", "basesize", "level_problem",
                                  "basesize_problem", "invariant_report")),
    "lattice": ("lattice", ("sup2", "sup0", "inf0", "sup2_problem",
                            "sup0_problem")),
    "poset": ("explore", ("degree_poset",)),
    "parse": ("corpus", ("parse",)),
    "serialize": ("corpus", ("serialize",)),
    "cli": ("cli", ("main",)),
}
SPACES_KINDS = ("product", "map_build")
# the two constructors whose results are product/coproduct spaces
COUNTED_PRODUCTS = ("product", "coproduct")


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [kind, child_seconds]
        self.reducibility = []     # open decider/verifier kinds, innermost last
        self.depth = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.duration_s = dict.fromkeys(SPANS, 0.0)
        self.decisions = 0
        self.poset_decisions = 0
        self.witness_s = 0.0
        self.product_calls = 0
        self.product_repeats = 0
        self.product_points = 0
        self._product_keys = set()
        self._patched = []

    def _wrap(self, kind, name, fn):
        tracer = self
        counted = name in COUNTED_PRODUCTS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [kind, 0.0]
            stack.append(frame)
            tracer.depth[kind] += 1
            if kind in ("decider", "verifier"):
                tracer.reducibility.append(kind)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer.depth[kind] -= 1
                if kind in ("decider", "verifier"):
                    tracer.reducibility.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.self_s[kind] += dur - frame[1]
                if tracer.depth[kind] == 0:
                    tracer.duration_s[kind] += dur
                if kind == "decider":
                    tracer.decisions += 1
                    if tracer.depth["poset"]:
                        tracer.poset_decisions += 1
                elif (kind in SPACES_KINDS and parent not in SPACES_KINDS
                      and tracer.reducibility and tracer.reducibility[-1] == "decider"):
                    tracer.witness_s += dur
            if counted:
                tracer._count_product(name, args, kwargs, result)
            return result

        return span

    def _count_product(self, name, args, kwargs, result):
        key = (name, tuple(tuple(a) if isinstance(a, list) else a for a in args),
               tuple(sorted(kwargs.items())))
        self.product_calls += 1
        if key in self._product_keys:
            self.product_repeats += 1
        else:
            self._product_keys.add(key)
        self.product_points += result.space.n

    def install(self):
        """Patch every binding of every traced function in ``contred.*``."""
        originals = {}
        for kind, (module, names) in SPANS.items():
            mod = sys.modules["contred." + module]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = self._wrap(kind, name, fn), fn
        for modname, mod in list(sys.modules.items()):
            if modname != "contred" and not modname.startswith("contred."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(mod, attr, hit[0])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def metrics(self, search_nodes, trace_overhead):
        """The per-layer metrics, keyed by the names in BENCHMARK.json."""
        ms = 1000.0
        search_s = self.self_s["decider"]
        repeat = self.product_repeats / self.product_calls if self.product_calls else 0.0
        return {
            "spaces.product_ms": (self.self_s["product"] * ms, "ms"),
            "spaces.product_points": (self.product_points, "count"),
            "spaces.product_repeat_ratio": (repeat, "ratio"),
            "spaces.map_build_ms": (self.self_s["map_build"] * ms, "ms"),
            "reducibility.decisions": (self.decisions, "count"),
            "reducibility.search_ms": (search_s * ms, "ms"),
            "reducibility.search_nodes": (search_nodes, "count"),
            "reducibility.nodes_per_s": (search_nodes / search_s if search_nodes else 0.0, "1/s"),
            "reducibility.witness_ms": (self.witness_s * ms, "ms"),
            "reducibility.replay_ms": (self.duration_s["verifier"] * ms, "ms"),
            "invariants.ms": (self.duration_s["invariants"] * ms, "ms"),
            "lattice.ms": (self.duration_s["lattice"] * ms, "ms"),
            "explore.poset_decisions": (self.poset_decisions, "count"),
            "explore.poset_ms": (self.duration_s["poset"] * ms, "ms"),
            "corpus.parse_ms": (self.duration_s["parse"] * ms, "ms"),
            "corpus.serialize_ms": (self.duration_s["serialize"] * ms, "ms"),
            "cli.self_ms": (self.self_s["cli"] * ms, "ms"),
            "trace.overhead": (trace_overhead, "ratio"),
        }
