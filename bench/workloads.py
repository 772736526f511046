"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload function takes the freshly imported `bbi` modules and a
seeded `random.Random` and returns the fixed operation list of one pass.
An operation calls only public entry points: `bbi.cli.main` in-process
with its output captured, or `local_inversion`, `orbit_profile` and
`brute_force_invert`.  It returns (solved, map evaluations, detail), and
its `check` judges the detail against ground truth computed here from
the raw map functions or tables, never from the engine.

Why these four (each stresses a different layer):
  zoo           the README user path: `bbi invert` on every shipped
                target plus the six demos; cli, targets and embedding.
  ground-truth  C1-style cases through the brute-force and orbit oracles
                plus `bbi survey`; the BlackBoxMap wrapper and oracle.
  long-cycle    windows of up to 2050 terms on one hidden cycle; the
                minimal-polynomial solve.
  linear        random invertible GF(2)-linear maps; the only workload
                where `gf2.order` walks to its 2^20 cap.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

ZOO_TARGETS = ("identity16", "rsa-demo", "rsa-cca", "dlp-p11", "ecdlp-f17",
               "spn-kpa", "stream")
ZOO_X_PER_TARGET = 32
# The lists whose operations differ widely in cost hold 10k + 5
# operations, so that for any number of passes the pooled p50 and p90
# fall inside the repeats of one operation, not between two operations
# whose costs differ by half.
GT_WIDTHS = range(4, 17)   # C1: table maps of width 4..16
GT_ROUNDS = 5              # cases per width in one pass
GT_CYCLE_CAP = 256         # C1: cycle at most 256
GT_SURVEYS = 10
GT_SURVEY_SAMPLES = 4
LC_PERIODS = {16: 27, 64: 28}  # width -> cycle lengths, log-uniform over 16..1024
LIN_WIDTHS = (16, 24, 32, 48, 64)
LIN_PER_WIDTH = 11


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple[bool, int, Any]]
    check: Callable[[Any], bool]
    window: tuple | None = None  # long-cycle: (map fn, width, y, M)


def import_bbi() -> SimpleNamespace:
    """Import bbi from scratch, so that each set-up pays the import."""
    for name in [k for k in sys.modules if k == "bbi" or k.startswith("bbi.")]:
        del sys.modules[name]
    cli = importlib.import_module("bbi.cli")
    m = SimpleNamespace(cli=cli,
                        engine=sys.modules["bbi.engine"],
                        gf2=sys.modules["bbi.gf2"],
                        oracle=sys.modules["bbi.oracle"],
                        targets=sys.modules["bbi.targets"])
    m.BitVec = m.gf2.BitVec
    m.made_maps = []
    # Exact evaluation counts for CLI operations without touching the hot
    # path: remember every map a target hands out and read its counter.
    cls = m.targets.TargetInstance
    fresh_map = cls.fresh_map

    def logged_fresh_map(inst):
        F = fresh_map(inst)
        m.made_maps.append(F)
        return F

    cls.fresh_map = logged_fresh_map
    return m


def _cli(m, argv: list[str]) -> tuple[int, str, int]:
    m.made_maps.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = m.cli.main(argv)
    return rc, out.getvalue(), sum(F.evals for F in m.made_maps)


def _raw(m, name: str):
    """The target's map function as int -> int, without the wrapper."""
    inst = m.targets.load_target(name)
    F = inst.fresh_map()
    fn, n, BitVec = F.fn, F.in_width, m.BitVec
    return inst, (lambda v: fn(BitVec(v, n)).value), F


def _rho(step, v: int) -> tuple[int, int]:
    """(preperiod, period) of v under step, by remembering every point."""
    seen: dict[int, int] = {}
    while v not in seen:
        seen[v] = len(seen)
        v = step(v)
    return seen[v], len(seen) - seen[v]


# ---------------------------------------------------------------- zoo

def _invert_op(m, name: str, raw, y: int) -> Op:
    argv = ["invert", "--target", name, "--y", f"{y:#x}"]

    def run():
        rc, out, evals = _cli(m, argv)
        return rc == 0, evals, (rc, out)

    def check(detail):
        rc, out = detail
        doc = json.loads(out)
        if rc == 2:
            return doc["outcome"] == "insufficient-data" and doc["x"] is None
        return (rc == 0 and doc["outcome"] == "solution"
                and raw(int(doc["x"], 16)) == y)

    return Op(f"invert:{name}", run, check)


_RECOVERED = re.compile(r"(?:raw x|recovered x|recovered plaintext m|"
                        r"recovered exponent x) = (0x[0-9a-f]+|\d+)")


def _demo_op(m, demo: str, raw, y: int) -> Op:
    def run():
        rc, out, evals = _cli(m, ["demo", demo])
        return rc == 0, evals, (rc, out)

    def check(detail):
        rc, out = detail
        found = _RECOVERED.findall(out)
        if found:  # whatever the exit code, a printed x must invert y
            return rc in (0, 2) and raw(int(found[-1], 0)) == y
        return rc == 2  # insufficient data, and no x claimed

    return Op(f"demo:{demo}", run, check)


def zoo(m, rng) -> list[Op]:
    ops, raws = [], {}
    for name in ZOO_TARGETS:
        inst, raw, F = _raw(m, name)
        raws[name] = (inst, raw)
        for x in rng.sample(range(1 << F.in_width),
                            min(ZOO_X_PER_TARGET, 1 << F.in_width)):
            ops.append(_invert_op(m, name, raw, raw(x)))

    def cfg(name, key):
        return int(raws[name][0].config[key], 0)

    rsa = raws["rsa-cca"][0].params
    demos = {  # demo -> (target, the y it inverts)
        "dlp": ("dlp-p11", cfg("dlp-p11", "demo_b")),
        "ecdlp": ("ecdlp-f17", raws["ecdlp-f17"][1](cfg("ecdlp-f17", "demo_k"))),
        "rsa-cca": ("rsa-cca", pow(cfg("rsa-cca", "c"), rsa.private_exponent(), rsa.n)),
        "rsa-decrypt": ("rsa-demo", cfg("rsa-demo", "demo_y")),
        "spn-kpa": ("spn-kpa", raws["spn-kpa"][1](cfg("spn-kpa", "demo_key"))),
        "stream": ("stream", raws["stream"][1](cfg("stream", "demo_key"))),
    }
    rng.shuffle(ops)
    step = len(ops) // len(demos)
    for i, (demo, (target, y)) in enumerate(sorted(demos.items())):
        ops.insert(i * (step + 1), _demo_op(m, demo, raws[target][1], y))
    return ops


# ---------------------------------------------------------------- ground-truth

def _table_map(m, table: list[int], width: int):
    BitVec = m.BitVec
    return m.engine.BlackBoxMap(lambda x: BitVec(table[x.value], width), width)


def _c1_op(m, rng, width: int) -> Op:
    size = 1 << width
    while True:  # redraw, as C1 does, until the cycle fits the cap
        table = [rng.getrandbits(width) for _ in range(size)]
        start = rng.randrange(size)
        pre, period = _rho(table.__getitem__, start)
        if period <= GT_CYCLE_CAP:
            break
    y = start
    for _ in range(pre):  # walk onto the cycle; y is where it enters
        y = table[y]
    pred = y
    for _ in range(period - 1):
        pred = table[pred]
    preimages = [u for u in range(size) if table[u] == y]

    def run():
        F = _table_map(m, table, width)
        yv = m.BitVec(y, width)
        prof = m.oracle.orbit_profile(F, yv)
        report = m.engine.local_inversion(F, yv, 2 * prof.period + 2)
        found = m.oracle.brute_force_invert(F, yv)
        x = report.x.value if report.solved else None
        return report.solved, F.evals, (prof.preperiod, prof.period, x,
                                        [u.value for u in found])

    def check(detail):
        preperiod, got_period, x, found = detail
        return (preperiod == 0 and got_period == period and x == pred
                and found == preimages and table[x] == y)

    return Op(f"c1:w{width}", run, check)


def _survey_op(m, raw, survey_seed: int) -> Op:
    argv = ["survey", "--target", "spn-kpa", "--samples", str(GT_SURVEY_SAMPLES),
            "--seed", str(survey_seed)]
    expected = [f"{v:#06x}" for v in
                sorted(random.Random(survey_seed).sample(range(1 << 16),
                                                         GT_SURVEY_SAMPLES))]

    def run():
        rc, out, evals = _cli(m, argv)
        return rc == 0, evals, (rc, out)

    def check(detail):
        rc, out = detail
        if rc != 0:
            return False
        table, summary = out.split("\n{", 1)
        rows = list(csv.DictReader(io.StringIO(table + "\n")))
        if [r["seed"] for r in rows] != expected:
            return False
        for r in rows:
            pre, period = _rho(raw, int(r["seed"], 16))
            if r["periodic"] != ("true" if pre == 0 else "false"):
                return False
            if pre == 0 and int(r["period"]) != period:
                return False
        return json.loads("{" + summary)["samples"] == GT_SURVEY_SAMPLES

    return Op("survey:spn-kpa", run, check)


def ground_truth(m, rng) -> list[Op]:
    ops = [_c1_op(m, rng, w) for _ in range(GT_ROUNDS) for w in GT_WIDTHS]
    raw = _raw(m, "spn-kpa")[1]
    ops += [_survey_op(m, raw, rng.randrange(1 << 31)) for _ in range(GT_SURVEYS)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- long-cycle

def _cycle_op(m, rng, width: int, period: int) -> Op:
    values = set()
    while len(values) < period:
        values.add(rng.getrandbits(width))
    cycle = list(values)
    rng.shuffle(cycle)
    succ = {cycle[i - 1]: cycle[i] for i in range(period)}
    BitVec = m.BitVec

    def fn(x):
        return BitVec(succ.get(x.value, x.value), width)

    y, pred = cycle[0], cycle[-1]

    def run():
        F = m.engine.BlackBoxMap(fn, width)
        report = m.engine.local_inversion(F, BitVec(y, width), 2 * period + 2)
        return report.solved, F.evals, report.x.value if report.solved else None

    def check(x):
        return x == pred and succ[x] == y

    return Op(f"cycle:n{width}", run, check, (fn, width, y, 2 * period + 2))


def long_cycle(m, rng) -> list[Op]:
    # One fixed log-uniform grid of cycle lengths, the same for every seed,
    # so that a pass costs the same whatever the seed; the seed draws the
    # cycles.
    ops = [_cycle_op(m, rng, n, round(16 * 64 ** (i / (k - 1))))
           for n, k in LC_PERIODS.items() for i in range(k)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- linear

def _linear_op(m, rng, width: int) -> Op:
    while True:  # columns of a random invertible matrix
        cols = [rng.getrandbits(width) for _ in range(width)]
        basis: dict[int, int] = {}
        for c in cols:
            while c and c.bit_length() in basis:
                c ^= basis[c.bit_length()]
            if not c:
                break
            basis[c.bit_length()] = c
        if len(basis) == width:
            break

    def apply(v: int) -> int:
        acc = 0
        for c in cols:
            if v & 1:
                acc ^= c
            v >>= 1
        return acc

    BitVec = m.BitVec
    y = rng.getrandbits(width)

    def run():
        F = m.engine.BlackBoxMap(lambda x: BitVec(apply(x.value), width), width)
        report = m.engine.local_inversion(F, BitVec(y, width))
        return report.solved, F.evals, report.x.value if report.solved else None

    def check(x):
        return x is not None and apply(x) == y

    return Op(f"linear:n{width}", run, check)


def linear(m, rng) -> list[Op]:
    ops = [_linear_op(m, rng, n) for n in LIN_WIDTHS for _ in range(LIN_PER_WIDTH)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "zoo": zoo,
    "ground-truth": ground_truth,
    "long-cycle": long_cycle,
    "linear": linear,
}
