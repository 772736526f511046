"""Command-line front end: invert shipped or user-supplied targets, survey
seeds for linear complexity, run the end-to-end demos, and query the
brute-force oracle.

Exit codes: 0 verified success, 1 usage or config error, 2 insufficient
data (no verified solution, or an evaluation budget ran dry).  The
BBI_SEED environment variable overrides --seed wherever sampling
happens, so golden outputs stay reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import sys
from collections import Counter
from functools import cache, partial
from itertools import cycle, islice

from .embedding import composed_map, invert_embedding, project
from .engine import (BlackBoxMap, EvalBudgetExceeded, InversionReport,
                     local_inversion)
from .gf2 import BitVec
from .oracle import brute_force_invert, orbit_profile
from .targets import TargetInstance, _as_int, load_target
from .targets.arith import reduce_exponent
from .targets.ec import ec_scalar_mul, encode_point

DEFAULT_MAX_EVALS = 10_000_000
SURVEY_COLUMNS = ["seed", "periodic", "LC", "period", "inverted", "evals"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    insufficient data, so usage problems surface as CliError -> exit 1."""

    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}")


def _parse_bits(text: str, width: int) -> BitVec:
    try:
        value = int(text, 0)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {text} does not fit {width} bits")
    return BitVec(value, width)


def _budget_map(target: TargetInstance, max_evals: int) -> BlackBoxMap:
    F = target.fresh_map()
    F.max_evals = max_evals
    return F


def _rng_seed(args) -> int:
    env = os.environ.get("BBI_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ValueError(f"BBI_SEED must be an integer, got {env!r}") from None
    return getattr(args, "seed", 0)


def _report_doc(report: InversionReport) -> dict:
    return {
        "outcome": report.outcome,
        "x": report.x.hex() if report.x is not None else None,
        "minpoly": str(report.minpoly) if report.minpoly is not None else None,
        "linear_complexity": report.linear_complexity,
        "period_estimate": report.period_estimate,
        "terms_consumed": report.terms_consumed,
        "map_evals": report.map_evals,
    }


def _solve(F: BlackBoxMap, y: BitVec,
           M: int | None) -> tuple[InversionReport, int | None]:
    """Invert F at y from a window of M terms.  A map wider on output than
    on input goes through its projection windows, and window is the one
    that won (None if none did); for a regular map window is None."""
    if F.out_width > F.in_width:
        return invert_embedding(F, y, M)
    return local_inversion(F, y, M), None


def cmd_invert(args) -> int:
    target = load_target(args.target)
    F = _budget_map(target, args.max_evals)
    y = _parse_bits(args.y, F.out_width)
    report, window = _solve(F, y, args.M)
    doc = {"target": F.label, **_report_doc(report)}
    if F.out_width > F.in_width:  # an embedding names its window, null if none won
        doc["window"] = window
    print(json.dumps(doc, indent=2))
    return 0 if report.solved else 2


def cmd_survey(args) -> int:
    target = load_target(args.target)
    probe = _budget_map(target, args.max_evals)
    if probe.in_width != probe.out_width:
        raise ValueError("survey needs a regular map; this target is an embedding")
    n = probe.in_width
    if args.exhaustive:
        if n > 16:
            raise ValueError("exhaustive survey is limited to widths <= 16")
        values = range(1 << n)
    else:
        if args.samples < 1:
            raise ValueError("--samples must be >= 1")
        if n > 62:  # random.sample cannot index a range of 2^63 or more
            raise ValueError("sampled survey is limited to widths <= 62")
        rng = random.Random(_rng_seed(args))
        count = min(args.samples, 1 << n)
        values = sorted(rng.sample(range(1 << n), count))
    if args.M is not None and args.M < 2:
        raise ValueError("window length M must be >= 2")

    rows = []
    with (open(args.csv_out, "w", newline="") if args.csv_out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.DictWriter(out, fieldnames=SURVEY_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for v in values:
            y = BitVec(v, n)
            prof = orbit_profile(_budget_map(target, args.max_evals), y)
            periodic = prof.preperiod == 0
            report = local_inversion(_budget_map(target, args.max_evals), y, args.M)
            lc = report.linear_complexity
            rows.append({
                "seed": y.hex(),
                "periodic": str(periodic).lower(),
                "LC": lc if lc is not None else "saturated",
                "period": prof.period if periodic else "unknown",
                "inverted": str(report.solved).lower(),
                "evals": report.map_evals,
            })
            writer.writerow(rows[-1])

    threshold = args.lc_threshold if args.lc_threshold is not None else n
    int_lcs = [r["LC"] for r in rows if isinstance(r["LC"], int)]
    summary = {
        "target": probe.label,
        "samples": len(rows),
        "M": report.terms_consumed,
        "lc_threshold": threshold,
        "lc_histogram": Counter(str(r["LC"]) for r in rows),
        "mean_lc": round(sum(int_lcs) / len(int_lcs), 4) if int_lcs else None,
        "fraction_lc_le_threshold": round(
            sum(1 for lc in int_lcs if lc <= threshold) / len(rows), 4),
        "periodic": sum(1 for r in rows if r["periodic"] == "true"),
        "inverted": sum(1 for r in rows if r["inverted"] == "true"),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _key_note(x: int, key: int) -> str:
    return "the secret key itself" if x == key else "a key-equivalent preimage"


def _orbit_windows(new_map, y: BitVec, name: str = "y", shown: int = 4):
    """Walk the orbit of y once, print its shape and first `shown` terms,
    and yield the inversion (map, y, M = 2N+2) when y is purely periodic."""
    prof = orbit_profile(new_map(), y, store=shown > 0)
    print(f"  orbit of {name}: preperiod {prof.preperiod}, period {prof.period}")
    if prof.preperiod != 0:
        print(f"  {name} is not purely periodic; no inverse on its orbit")
        return
    if shown:
        terms = islice(cycle(prof.cycle), shown)
        print(f"  window starts: {', '.join(t.hex() for t in terms)}, ...")
    yield new_map(), y, 2 * prof.period + 2


# Each demo prints its header and returns (the inversions (map, y, M) to
# try, verify).  new_map hands out a fresh map of the demo's target under
# --max-evals.  verify(report, window, M) runs the demo's own domain check
# on a solved report, prints the result lines and returns the verdict.

def _demo_spn(target: TargetInstance, new_map, args):
    cipher, cfg = target.params, target.config
    key, p0 = _as_int(cfg["demo_key"]), _as_int(cfg["plaintext"])
    y = BitVec(cipher.encrypt(key, p0), 16)
    print(f"SPN known-plaintext demo: P0 = {p0:#06x}, rounds = {cipher.rounds}")
    print(f"  secret key {key:#06x} produced the observed y = E(K, P0) = {y.hex()}")

    def verify(report, window, M):
        x = report.x
        ok = cipher.encrypt(x.value, p0) == y.value
        print(f"  M = {M}, LC = {report.linear_complexity}, "
              f"minpoly degree {report.minpoly.degree}, evals = {report.map_evals}")
        print(f"  recovered x = {x.hex()} ({_key_note(x.value, key)}); "
              f"E(x, P0) == y: {ok}")
        return ok
    return _orbit_windows(new_map, y, shown=6), verify


def _demo_stream(target: TargetInstance, new_map, args):
    lfsr, cfg = target.params, target.config
    key, count = _as_int(cfg["demo_key"]), _as_int(cfg["count"])
    y = BitVec(lfsr.keystream(key, count), count)
    n = lfsr.key_width
    print(f"filtered-LFSR demo: degree {lfsr.degree} register, "
          f"{n}-bit key, iv = {lfsr.iv:#x}, {count} keystream bits")
    print(f"  secret key {key:#06x} produced keystream y = {y.hex()}")

    def windows():  # each window's square map, at its projected seed
        for i in range(1, count - n + 2):
            yield from _orbit_windows(lambda i=i: composed_map(new_map(), i),
                                      project(y, n, i), f"y[window {i}]", shown=0)

    def verify(report, window, M):
        x = report.x
        ok = lfsr.keystream(x.value, count) == y.value
        print(f"  M = {M}, LC = {report.linear_complexity}, "
              f"evals = {report.map_evals}")
        print(f"  recovered x = {x.hex()} ({_key_note(x.value, key)}); "
              f"keystream re-synthesis matches: {ok}")
        return ok
    return windows(), verify


def _demo_rsa_decrypt(target: TargetInstance, new_map, args):
    n, e = target.params.n, target.params.e
    y = _parse_bits(target.config["demo_y"], target.params.width)
    print(f"RSA decryption demo: n = {n}, e = {e}, ciphertext y = {y.hex()}")

    def verify(report, window, M):
        m = report.x.value
        ok = pow(m, e, n) == y.value
        print(f"  M = {M}, minpoly = {report.minpoly}, LC = {report.linear_complexity}")
        print(f"  recovered plaintext m = {m}; m^e mod n == y: {ok}")
        return ok
    return _orbit_windows(new_map, y), verify


def _demo_rsa_cca(target: TargetInstance, new_map, args):
    rng = random.Random(_rng_seed(args))
    n, e = target.params.n, target.params.e
    c = _as_int(target.config["c"])
    m = pow(c, target.params.private_exponent(), n)
    print(f"RSA chosen-ciphertext demo: n = {n}, e = {e}, c = {c}")
    print(f"  decryption oracle (not the attack) supplied m = c^d mod n = {m}")
    print(f"  attack: invert x -> c^x mod n at y = (m), giving a private-key"
          f" equivalent exponent")
    y = BitVec(m, target.params.width)

    def verify(report, window, M):
        x = report.x.value
        print(f"  M = {M}, LC = {report.linear_complexity}, recovered exponent x = {x}")
        passed = total = 0
        while total < 20:
            t = rng.randrange(2, n)
            if math.gcd(t, n) == 1:
                total += 1
                passed += pow(pow(t, x, n), e, n) == t
        print(f"  key-equivalence check (t^x)^e == t mod n: {passed}/20 random t")
        return passed == 20
    return _orbit_windows(new_map, y, shown=0), verify


def _demo_dlp(target: TargetInstance, new_map, args):
    p, a = target.params.p, target.params.base
    y = _parse_bits(target.config["demo_b"], target.params.width)
    print(f"DLP demo: p = {p}, base a = {a}, target b = {y.value}")

    def verify(report, window, M):
        x = report.x.value
        ok = pow(a, reduce_exponent(x, p), p) == y.value
        print(f"  M = {M}, minpoly = {report.minpoly}, LC = {report.linear_complexity}")
        print(f"  recovered x = {x}; a^x mod p == b: {ok}")
        return ok
    return _orbit_windows(new_map, y, name="b"), verify


def _demo_ecdlp(target: TargetInstance, new_map, args):
    curve = target.params
    n_p = curve.subgroup_order
    k = _as_int(target.config["demo_k"])
    Q = ec_scalar_mul(curve, k, curve.base)
    y = encode_point(curve, Q)
    print(f"ECDLP demo: curve y^2 = x^3 + {curve.a}x + {curve.b} over F_{curve.q}, "
          f"base P = {curve.base}, order n_P = {n_p}")
    print(f"  secret multiplier {k} produced Q = [k]P = {Q}, encoded y = {y.hex()}")

    def verify(report, window, M):
        mult = reduce_exponent(report.x.value, n_p)
        ok = ec_scalar_mul(curve, mult, curve.base) == Q
        print(f"  winning window {window}: M = {M}, LC = {report.linear_complexity}, "
              f"minpoly = {report.minpoly}")
        print(f"  recovered multiplier {mult} (raw x = {report.x.hex()}); "
              f"[{mult}]P == Q: {ok}")
        return ok
    return [(new_map(), y, 2 * n_p + 2)], verify


DEMOS = {  # demo name -> (shipped target, demo)
    "spn-kpa": ("spn-kpa", _demo_spn),
    "stream": ("stream", _demo_stream),
    "rsa-decrypt": ("rsa-demo", _demo_rsa_decrypt),
    "rsa-cca": ("rsa-cca", _demo_rsa_cca),
    "dlp": ("dlp-p11", _demo_dlp),
    "ecdlp": ("ecdlp-f17", _demo_ecdlp),
}


def cmd_demo(args) -> int:
    """The first verified inversion ends the run; the demo's check judges it."""
    name, demo = DEMOS[args.name]
    target = load_target(name)
    attempts, verify = demo(target, partial(_budget_map, target, args.max_evals),
                            args)
    for F, y, M in attempts:
        report, window = _solve(F, y, M)
        if report.solved:
            return 0 if verify(report, window, M) else 2
    print("  no window length yielded a verified x: insufficient data")
    return 2


def cmd_oracle(args) -> int:
    target = load_target(args.target)
    F = _budget_map(target, args.max_evals)
    y = _parse_bits(args.y, F.out_width)
    if args.op == "invert":
        preimages = brute_force_invert(F, y)
        print(json.dumps({"target": F.label, "y": y.hex(),
                          "preimages": [x.hex() for x in preimages]}, indent=2))
        return 0
    if F.in_width != F.out_width:
        raise ValueError("orbit profiling needs a regular map")
    prof = orbit_profile(F, y)
    print(json.dumps({"target": F.label, "y": y.hex(),
                      "preperiod": prof.preperiod, "period": prof.period},
                     indent=2))
    return 0


def _max_evals(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_max_evals(p) -> None:
    p.add_argument("--max-evals", type=_max_evals, default=DEFAULT_MAX_EVALS,
                   help="abort after this many map evaluations per phase")


@cache  # parsing leaves the parser as it was, so every main() shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bbi",
                     description="black-box local inversion toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    inv = sub.add_parser("invert", help="invert a target map at one point")
    inv.add_argument("--target", required=True,
                     help="shipped target name or path to a JSON config")
    inv.add_argument("--y", required=True, help="target point, e.g. 0x8")
    inv.add_argument("--M", type=int, default=None,
                     help="window length (default 4 * input width)")
    _add_max_evals(inv)
    inv.set_defaults(func=cmd_invert)

    sur = sub.add_parser("survey", help="linear-complexity survey over seeds")
    sur.add_argument("--target", required=True)
    sur.add_argument("--samples", type=int, default=256,
                     help="number of random seeds (default 256)")
    sur.add_argument("--exhaustive", action="store_true",
                     help="visit every point of the domain instead of sampling")
    sur.add_argument("--M", type=int, default=None)
    sur.add_argument("--seed", type=int, default=0,
                     help="RNG seed for sampling (BBI_SEED overrides)")
    sur.add_argument("--lc-threshold", type=int, default=None,
                     help="LC cutoff for the summary fraction (default width)")
    sur.add_argument("--csv-out", default=None,
                     help="write rows here instead of standard output")
    _add_max_evals(sur)
    sur.set_defaults(func=cmd_survey)

    dem = sub.add_parser("demo", help="run an end-to-end scenario")
    dem.add_argument("name", choices=sorted(DEMOS))
    dem.add_argument("--seed", type=int, default=0,
                     help="RNG seed for in-demo sampling (BBI_SEED overrides)")
    _add_max_evals(dem)
    dem.set_defaults(func=cmd_demo)

    orc = sub.add_parser("oracle", help="brute-force ground truth")
    orc.add_argument("op", choices=["invert", "orbit"])
    orc.add_argument("--target", required=True)
    orc.add_argument("--y", required=True)
    _add_max_evals(orc)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except EvalBudgetExceeded as err:
        print(f"insufficient data: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
