"""Benchmark of the bbi inversion engine: one workload per run.

    python3 bench/run.py --workload zoo --seed 1 --seconds 20 --trace 0

Run from the repository root; `bbi` is imported from `src/`.  One process,
one thread, one client in a closed loop: the next operation starts when
the last one ends.  A run sets up several times (import, target loading,
input generation) and reports the median, makes one untimed warm-up pass
over the workload's fixed operation list, then repeats whole passes
until both `--seconds` and MIN_SAMPLES operations are reached.  Each
latency is scaled by a calibration loop timed beside it (see CAL_REF_S).

Every operation's output is checked against ground truth outside the
timed region; an operation that raises, exits 1, returns a wrong x or
answers differently from the warm-up pass counts as failed, and any
failure makes the run exit 1.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones, taken with the layers wrapped by
tracing.py.  A summary with the output digest (and, when traced, every
span) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from workloads import WORKLOADS, import_bbi  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 100  # at least ten samples beyond p90
# Seconds one calibration unit takes at the reference speed (about the
# usual speed of a shared 2-core Xeon VM under Python 3.11).  Shared
# machines drift by up to 1.5x for tens of seconds at a time; scaling
# every timing by the calibration measured beside it removes most of that.
CAL_REF_S = 250e-6
GRID_BUCKETS = ((16, 31), (32, 63), (64, 127), (128, 255), (256, 511), (512, 1024))


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


_BIG = (1 << 4096) // 3


def _calibration_unit() -> int:
    """Fixed interpreter work shaped like the program's: small objects and
    dict use, a shift-and-reduce loop like `order`, and XOR of shifted
    multi-kilobit ints like the Hankel scan.  It runs no bbi code, so a
    change to bbi cannot change it."""
    acc, table = 0, {}
    for i in range(150):
        acc = _Cell(((acc << 1) ^ i) & 0xFFFF).v
        table[acc & 63] = table.get(i & 63, 0) + 1
    s = 1
    for _ in range(1200):
        s <<= 1
        if (s >> 20) & 1:
            s ^= 0x100009
        if s == 1:
            break
    v = _BIG
    for i in range(60):
        v ^= (_BIG >> (i * 64)) & ((1 << 3000) - 1)
    return acc ^ s ^ (v & 1)


def calibrate() -> float:
    """Seconds one calibration unit takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _calibration_unit()
        best = min(best, perf_counter() - t0)
    return best


def peak_rss_mb() -> float:
    """This process's peak resident set.  Not `ru_maxrss`: on Linux that
    also holds the parent's resident set at the moment of exec, so it
    would read the caller's memory whenever the caller is the larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(op) -> tuple:
    try:
        return op.run()
    except Exception as err:  # an operation that raises is a failure, not a crash
        return (False, 0, ("raised", type(err).__name__, str(err)))


def timed_passes(ops, reference, seconds, tracer=None):
    """Whole passes until `seconds` and MIN_SAMPLES are both reached.

    Each latency is scaled by CAL_REF_S over the calibration time measured
    just before and just after the operation, so that it reads as on a
    machine of fixed speed.  Returns the scaled and the raw latencies per
    operation, the number of executions that failed, and the wall time."""
    scaled, raw = [[] for _ in ops], [[] for _ in ops]
    failed = samples = 0
    start = perf_counter()
    before = calibrate()
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op(samples)
            t0 = perf_counter()
            out = run_op(op)
            t1 = perf_counter()
            if tracer:
                tracer.end_op()
            after = calibrate()
            raw[i].append(t1 - t0)
            scaled[i].append((t1 - t0) * 2 * CAL_REF_S / (before + after))
            before = after
            samples += 1
            failed += out != reference[i][0] or not reference[i][1]
        if perf_counter() - start >= seconds and samples >= MIN_SAMPLES:
            return scaled, raw, failed, perf_counter() - start


def judge(op, out) -> bool:
    if isinstance(out[2], tuple) and out[2][:1] == ("raised",):
        return False
    try:
        return bool(op.check(out[2]))
    except (ValueError, KeyError, IndexError, TypeError):
        return False  # output the check cannot parse


def solver_grid(m, ops) -> dict[str, float]:
    """minimal_polynomial against bm_crosscheck on the long-cycle windows,
    untraced, per (n, bucket of N = (M - 2) / 2)."""
    cells: dict[str, list] = {}
    for op in ops:
        if op.window is None:
            continue
        fn, n, y, M = op.window
        seq = m.engine.generate(m.engine.BlackBoxMap(fn, n), m.BitVec(y, n), M)
        t0 = perf_counter()
        mp = m.engine.minimal_polynomial(seq).minpoly
        t1 = perf_counter()
        bm = m.engine.bm_crosscheck(seq)
        t2 = perf_counter()
        N = (M - 2) // 2
        lo, hi = next(b for b in GRID_BUCKETS if b[0] <= N <= b[1])
        cell = cells.setdefault(f"grid.n{n}.M{2 * lo + 2}-{2 * hi + 2}", [0, 0.0, 0.0, 0])
        cell[0] += 1
        cell[1] += t1 - t0
        cell[2] += t2 - t1
        cell[3] += mp == bm
    out = {}
    for n in (16, 64):
        for lo, hi in GRID_BUCKETS:
            key = f"grid.n{n}.M{2 * lo + 2}-{2 * hi + 2}"
            cases, mp_s, bm_s, agree = cells.get(key, (0, 0.0, 0.0, 0))
            out[f"{key}.cases"] = cases
            out[f"{key}.agree"] = agree
            out[f"{key}.minpoly_ms"] = 1e3 * mp_s / cases if cases else 0.0
            out[f"{key}.bm_ms"] = 1e3 * bm_s / cases if cases else 0.0
    total = sum(c[0] for c in cells.values())
    out["engine.bm_crosscheck.ms"] = (1e3 * sum(c[2] for c in cells.values()) / total
                                      if total else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bbi").is_dir():
        print(f"error: no bbi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"]
             for d in declared["per_layer" if args.trace else "end_to_end"]}
    # BBI_SEED silently overrides `survey --seed`; the workloads pass seeds.
    os.environ.pop("BBI_SEED", None)

    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        m = ops = None
        gc.collect()  # free the previous set-up, so peak memory is one set-up
        before = calibrate()
        t0 = perf_counter()
        m = import_bbi()
        ops = WORKLOADS[args.workload](m, random.Random(args.seed))
        t1 = perf_counter()
        raw_setup_s.append(t1 - t0)
        setup_s.append((t1 - t0) * 2 * CAL_REF_S / (before + calibrate()))

    # Untimed warm-up pass; its outputs are the reference every timed pass
    # must reproduce, and the ones checked against ground truth.
    reference = []
    for op in ops:
        out = run_op(op)
        reference.append((out, judge(op, out)))

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        scaled, raw, failed, elapsed = timed_passes(ops, reference, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    pooled = [t for v in scaled for t in v]
    samples = len(pooled)
    # Throughput over the fixed list, each operation at the median of its
    # repeats, so that a pass that hit a slow spell does not count twice.
    typical = [statistics.median(v) for v in scaled]
    ops_per_s = len(ops) / sum(typical)

    outputs = [out for out, _ in reference]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()[:16]
    if tracer:
        metrics = tracing.layer_metrics(tracer, samples, sum(map(sum, raw)))
        metrics["trace.ops_per_s"] = ops_per_s
        metrics.update(solver_grid(m, ops))
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_ms_p50": 1e3 * statistics.median(pooled),
            "op_ms_p90": 1e3 * statistics.quantiles(pooled, n=10)[8],
            "evals_per_op": sum(out[1] for out in outputs) / len(ops),
            "solved_frac": sum(bool(out[0]) for out in outputs) / len(ops),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         f"match BENCHMARK.json")

    by_kind: dict[str, list] = {}
    for op, times in zip(ops, raw):
        by_kind.setdefault(op.kind, []).extend(times)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": digest, "ops_per_pass": len(ops), "samples": samples,
        "elapsed_s": elapsed, "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": len(ops) / sum(statistics.median(v) for v in raw),
        "failed_checks": [op.kind for op, (_, ok) in zip(ops, reference) if not ok],
        "kinds_ms": {k: 1e3 * statistics.mean(v) for k, v in sorted(by_kind.items())},
        "op_ms": [1e3 * t for t in typical],
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(dict(summary, spans=tracer.spans if tracer else []), fh)
    print(f"{args.workload} seed {args.seed}: {samples} ops in {elapsed:.1f} s, "
          f"{failed} failed, digest {digest}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": samples, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
