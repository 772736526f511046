"""Repeated benchmark runs, their spread, and the baseline record.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_0.json
    python3 bench/baseline.py --seeds 1-10 --out /tmp/b.json --against bench/BENCH_0.json

Runs bench/run.py once per (workload, seed) untraced and once per
workload traced, one process at a time.  For each end-to-end metric it
reports the median and the quartile spread across seeds, (q3 - q1) /
median, against a third of the metric's bound in BENCHMARK.json.  From
the traced run it reports the tracing overhead (traced over untraced
ops/s on the same seed), each workload's layer self-time shares, and
the traced numbers beside the figures measured when ROADMAP item 1 was
written, flagging any that differ by more than 2x.  `--against` compares
medians, exact counts and output digests with an earlier record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("evals_per_op", "solved_frac")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads(
        (HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "digest": summary["digest"],
            "kinds_ms": summary["kinds_ms"]}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def reanchor(traced: dict, kinds: dict) -> list[dict]:
    """Traced numbers beside the ROADMAP item 1 figures."""
    gt, lin, lc = traced["ground-truth"], traced["linear"], traced["long-cycle"]
    crossover = None
    for key in sorted((k for k in lc if k.startswith("grid.n64.") and k.endswith(".bm_ms")),
                      key=lambda k: int(k.split(".")[2][1:].split("-")[0])):
        cell = key[:-len(".bm_ms")]
        if lc[key] and lc[cell + ".minpoly_ms"] >= lc[key]:
            crossover = int(cell.split(".")[2][1:].split("-")[0])
            break
    c1 = [ms for kind, ms in kinds["ground-truth"].items() if kind.startswith("c1:")]
    rows = [
        ("wrapped table-map evaluation, wrapper + map self", "us", 3.3,
         gt["engine.BlackBoxMap.self_us_per_eval"] + gt["targets.map.us_per_eval"],
         "ground-truth traced"),
        ("map function alone (raw table lookup in ROADMAP)", "us", 0.12,
         gt["targets.map.us_per_eval"],
         "ground-truth traced; the map here also builds a BitVec"),
        ("gf2.order walk to the 2^20 cap", "ms", 250.0, lin["gf2.order.capped_ms"],
         "linear traced, per capped call"),
        ("Hankel/BM crossover, n=64", "M", 514.0, crossover,
         "long-cycle grid: lowest M bucket where minimal_polynomial >= bm_crosscheck"),
        ("C1 fixture, 1000 cases", "s", 37.6,
         statistics.mean(c1) if c1 else None,
         "ground-truth untraced: mean c1 op ms x 1000 / 1000; no redraw walks"),
        ("survey --target spn-kpa, 256 samples", "s", 6.2,
         kinds["ground-truth"].get("survey:spn-kpa", 0) * 256 / 4 / 1000 or None,
         "ground-truth untraced: mean 4-sample survey op scaled to 256"),
    ]
    out = []
    for what, unit, figure, measured, source in rows:
        ratio = measured / figure if measured else None
        out.append({"what": what, "unit": unit, "roadmap": figure, "measured": measured,
                    "ratio": ratio, "flag": ratio is None or not 0.5 <= ratio <= 2,
                    "source": source})
    return out


def compare(now: dict, then: dict, bounds: dict) -> list[str]:
    lines = []
    for w, cur in now["workloads"].items():
        old = then["workloads"].get(w)
        if old is None:
            continue
        for name, stat in cur["end_to_end"].items():
            a, b = old["end_to_end"][name]["median"], stat["median"]
            change = (b - a) / a if bounds[name]["better"] == "lower" else (a - b) / a
            verdict = "worse beyond bound" if change > bounds[name]["bound"] else "ok"
            lines.append(f"{w:12s} {name:12s} {a:12.5g} -> {b:12.5g} "
                         f"worse by {change:+.3f} (bound {bounds[name]['bound']}) {verdict}")
        for name in EXACT:
            same = cur["per_seed"][name] == old["per_seed"][name]
            lines.append(f"{w:12s} {name:12s} per-seed values identical: {same}")
        lines.append(f"{w:12s} digests identical: {cur['digests'] == old['digests']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {"interpreter": f"{platform.python_implementation()} {platform.python_version()}",
              "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
              "seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    traced, kinds = {}, {}
    for w in names:
        runs = {s: run(w, s, seconds, 0) for s in args.seeds}
        e2e = {}
        for name, spec in bounds.items():
            values = [runs[s]["metrics"][name] for s in args.seeds]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "steady": spread < spec["bound"] / 3}
            print(f"{w:12s} {name:12s} median {med:12.5g} spread {spread:.4f} "
                  f"(bound/3 {spec['bound'] / 3:.4f}){'' if e2e[name]['steady'] else '  UNSTEADY'}",
                  flush=True)
        entry = {"end_to_end": e2e,
                 "samples": [runs[s]["attempted"] for s in args.seeds],
                 "per_seed": {n: [runs[s]["metrics"][n] for s in args.seeds] for n in EXACT},
                 "digests": [runs[s]["digest"] for s in args.seeds]}
        first = args.seeds[0]
        kinds[w] = runs[first]["kinds_ms"]
        t = run(w, first, seconds, 1)
        traced[w] = t["metrics"]
        entry["per_layer"] = t["metrics"]
        entry["trace_overhead"] = (t["metrics"]["trace.ops_per_s"]
                                   / runs[first]["metrics"]["ops_per_s"])
        entry["layer_self_frac"] = dict(sorted(
            ((k.split(".")[1], v) for k, v in t["metrics"].items()
             if k.startswith("layer.")), key=lambda kv: -kv[1]))
        print(f"{w:12s} traced/untraced ops_per_s {entry['trace_overhead']:.3f}; "
              f"layer self shares {entry['layer_self_frac']}", flush=True)
        record["workloads"][w] = entry
    record["reanchor"] = reanchor(traced, kinds)
    for row in record["reanchor"]:
        print(f"{row['what']:50s} roadmap {row['roadmap']:8g} {row['unit']:2s} "
              f"measured {row['measured'] if row['measured'] is None else round(row['measured'], 3)}"
              f"{'  FLAG >2x' if row['flag'] else ''}")
    if args.against:
        record["against"] = compare(record, json.loads(args.against.read_text()), bounds)
        print("\n".join(record["against"]))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
