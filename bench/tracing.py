"""In-memory span tracing of the bbi layers, installed from outside the package.

`Tracer.install` replaces each traced public function with a wrapper in
every loaded `bbi` module that holds a reference to it, and wraps
`BlackBoxMap.__call__` plus the map function of every map built while
tracing is on.  `Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent span, operation id); spans are
kept in memory and written out by the caller.  Every wrapper also adds
to a per-name aggregate: calls, inclusive seconds, self seconds (the
span minus the time its children cover) and map evaluations made
inside it.  Map evaluations are aggregated but not kept as spans: the
ground-truth workload makes millions of them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, layer)
TRACED = (
    ("bbi.cli", "main", "cli.main", "cli"),
    ("bbi.targets", "load_target", "targets.load_target", "targets"),
    ("bbi.embedding", "invert_embedding", "embedding.invert_embedding", "embedding"),
    ("bbi.engine", "local_inversion", "engine.local_inversion", "engine"),
    ("bbi.engine", "generate", "engine.generate", "engine"),
    ("bbi.engine", "minimal_polynomial", "engine.minimal_polynomial", "engine"),
    ("bbi.engine", "invert_from_minpoly", "engine.invert_from_minpoly", "engine"),
    ("bbi.gf2", "order", "gf2.order", "gf2"),
    ("bbi.oracle", "orbit_profile", "oracle.orbit_profile", "oracle"),
    ("bbi.oracle", "brute_force_invert", "oracle.brute_force_invert", "oracle"),
)
WRAPPER = "engine.BlackBoxMap"
MAP_FN = "targets.map"
# The square window maps built by embedding.composed_map project the
# target's output; their own cost belongs to the embedding layer.
WINDOW_FN = "embedding.window_map"
LAYER = {name: layer for _, _, name, layer in TRACED}
LAYER.update({WRAPPER: "engine", MAP_FN: "targets", WINDOW_FN: "embedding"})
LAYERS = ("cli", "targets", "embedding", "engine", "gf2", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, incl s, self s, evals
        self.counts = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # frames: [child s, evals at entry, span id]
        self._restore: list[tuple] = []

    # -- operation boundaries -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append([0.0, 0, -1])

    def end_op(self) -> None:
        self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        stack, spans, agg = self._stack, self.spans, self.agg[name]
        evals = self.agg[WRAPPER]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][2], self.op])
            frame = [0.0, evals[0], sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                agg[3] += evals[0] - frame[1]
                spans[sid][1] = t0
                spans[sid][2] = t1
            if on_result is not None:
                on_result(self.counts, args, result, dur)
            return result

        return traced

    def _leaf(self, name: str, fn):
        """Aggregate-only wrapper for per-evaluation calls."""
        stack, agg = self._stack, self.agg[name]

        def traced(*args):
            frame = [0.0, 0, stack[-1][2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]

        return traced

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "bbi" or k.startswith("bbi."))]
        for modname, attr, name, _ in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._span(name, orig, ON_RESULT.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

        cls = sys.modules["bbi.engine"].BlackBoxMap
        orig_call, orig_init = cls.__call__, cls.__init__
        self._restore += [(cls, "__call__", orig_call), (cls, "__init__", orig_init)]
        cls.__call__ = self._leaf(WRAPPER, orig_call)
        leaf = self._leaf

        def init(obj, fn, *args, **kwargs):
            kind = WINDOW_FN if getattr(fn, "__module__", "") == "bbi.embedding" else MAP_FN
            orig_init(obj, leaf(kind, fn), *args, **kwargs)

        cls.__init__ = init

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def _count_minpoly(counts, args, result, dur):
    counts["minpoly." + result.status] += 1


def _count_local_inversion(counts, args, result, dur):
    counts["local_inversion.solved"] += result.solved


def _count_order(counts, args, result, dur):
    if result is None:
        counts["order.capped"] += 1
        counts["order.capped_s"] += dur


def _count_generate(counts, args, result, dur):
    counts["generate.terms"] += len(result.terms)


def _count_embedding(counts, args, result, dur):
    F = args[0]
    window = result[1]
    counts["embedding.windows"] += (window if window is not None
                                    else F.out_width - F.in_width + 1)


ON_RESULT = {
    "engine.minimal_polynomial": _count_minpoly,
    "engine.local_inversion": _count_local_inversion,
    "gf2.order": _count_order,
    "engine.generate": _count_generate,
    "embedding.invert_embedding": _count_embedding,
}


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer numbers from one traced run of `ops` operations that took
    `op_seconds` in total."""
    agg, counts = tracer.agg, tracer.counts

    def ms(name):  # mean inclusive milliseconds per call
        calls, incl = agg[name][0], agg[name][1]
        return 1e3 * incl / calls if calls else 0.0

    def per_op(value):
        return value / ops

    def share(seconds):
        return seconds / op_seconds

    wrap, fn = agg[WRAPPER], agg[MAP_FN]
    mp_calls = agg["engine.minimal_polynomial"][0]
    capped = counts["order.capped"]
    emb_calls = agg["embedding.invert_embedding"][0]
    out = {
        "cli.main.self_ms": 1e3 * agg["cli.main"][2] / agg["cli.main"][0]
        if agg["cli.main"][0] else 0.0,
        "targets.load_target.ms": ms("targets.load_target"),
        "targets.map.us_per_eval": 1e6 * fn[2] / fn[0] if fn[0] else 0.0,
        "targets.map.self_frac": share(fn[2]),
        "embedding.invert_embedding.ms": ms("embedding.invert_embedding"),
        "embedding.invert_embedding.windows_per_call":
            counts["embedding.windows"] / emb_calls if emb_calls else 0.0,
        "engine.BlackBoxMap.evals": per_op(wrap[0]),
        "engine.BlackBoxMap.self_us_per_eval": 1e6 * wrap[2] / wrap[0] if wrap[0] else 0.0,
        "engine.BlackBoxMap.self_frac": share(wrap[2]),
        "engine.local_inversion.ms": ms("engine.local_inversion"),
        "engine.generate.ms": ms("engine.generate"),
        "engine.generate.terms": per_op(counts["generate.terms"]),
        "engine.minimal_polynomial.ms": ms("engine.minimal_polynomial"),
        "engine.minimal_polynomial.calls": per_op(mp_calls),
        "engine.minimal_polynomial.unique_frac":
            counts["minpoly.unique"] / mp_calls if mp_calls else 0.0,
        "engine.minimal_polynomial.saturated": per_op(counts["minpoly.saturated"]),
        "engine.minimal_polynomial.rank_deficient":
            per_op(counts["minpoly.rank-deficient"]),
        "engine.minimal_polynomial.self_frac": share(agg["engine.minimal_polynomial"][2]),
        "engine.invert_from_minpoly.ms": ms("engine.invert_from_minpoly"),
        # local_inversion makes exactly one verification evaluation after
        # each invert_from_minpoly call, and reports a solution iff it passes.
        "engine.verify.attempts": per_op(agg["engine.invert_from_minpoly"][0]),
        "engine.verify.rejected": per_op(agg["engine.invert_from_minpoly"][0]
                                         - counts["local_inversion.solved"]),
        "gf2.order.ms": ms("gf2.order"),
        "gf2.order.calls": per_op(agg["gf2.order"][0]),
        "gf2.order.capped": per_op(capped),
        "gf2.order.capped_ms": 1e3 * counts["order.capped_s"] / capped if capped else 0.0,
        "oracle.orbit_profile.ms": ms("oracle.orbit_profile"),
        "oracle.orbit_profile.evals": per_op(agg["oracle.orbit_profile"][3]),
        "oracle.brute_force_invert.ms": ms("oracle.brute_force_invert"),
        "oracle.brute_force_invert.evals": per_op(agg["oracle.brute_force_invert"][3]),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_frac"] = share(
            sum(a[2] for name, a in agg.items() if LAYER[name] == layer))
    return out
