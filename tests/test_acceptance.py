"""Acceptance gate: one test per criterion of the package contract.

Each test prints a PASS line with its measured numbers, so a verbose run
doubles as the acceptance report.  Randomness is seeded; every check is
exact (no tolerances) except the criterion-1 wall-clock budget.
"""

import random
import subprocess
import sys
import time
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

from bbi.embedding import composed_map, invert_embedding, project
from bbi.engine import (UNIQUE, EvalBudgetExceeded,
                        GrowingWindow, bm_crosscheck, generate,
                        invert_from_minpoly, local_inversion,
                        minimal_polynomial)
from bbi.gf2 import BitVec, Gf2Poly, order
from bbi.oracle import brute_force_invert, orbit_profile
from bbi.targets.arith import (is_prime, is_primitive_root, prime_factors,
                               reduce_exponent)
from bbi.targets.dlp import DlpParams, dlp_map
from bbi.targets.ec import (CurveParams, ECPoint, ec_scalar_mul, ecdlp_map,
                            encode_point)
from bbi.targets.rsa import RsaParams, cca_map, enc_map

from helpers import (count_points, full_period_minpoly,
                     minimal_polynomial_lowbit, stored_orbit, table_map)

GOLDEN = Path(__file__).parent / "golden"

CASE_COUNT = 1000
CYCLE_CAP = 256  # keeps windows small enough for the 60 s budget


# ------------------------------------------------------------ criteria 1 + 2

@pytest.fixture(scope="module")
def periodic_suite():
    """>= 1000 random (map, seed) pairs, widths 4..16, seed on its cycle.

    Seeds are made purely periodic by walking a random start onto its
    cycle; the oracle then re-certifies preperiod 0 independently.
    Draws whose cycle exceeds CYCLE_CAP are redrawn.
    """
    tables = np.random.default_rng(0xC0FFEE)
    pick = random.Random(0xC1)
    cases = []
    t0 = time.perf_counter()
    draws = 0
    while len(cases) < CASE_COUNT:
        draws += 1
        assert draws < 20 * CASE_COUNT, "rejection sampling is stuck"
        width = pick.choice(range(4, 17))
        size = 1 << width
        table = tables.integers(0, size, size).tolist()
        start = BitVec(pick.randrange(size), width)
        r, period, terms = stored_orbit(table_map(table, width), start)
        if period > CYCLE_CAP:
            continue
        cycle = terms[r:]
        seed = cycle[0]
        predecessor = cycle[-1]

        cert = orbit_profile(table_map(table, width), seed)
        assert cert.preperiod == 0  # oracle-certified purely periodic
        N = cert.period

        seq = generate(table_map(table, width), seed, 2 * N + 2)
        res = minimal_polynomial(seq)
        assert res.status == UNIQUE
        mp = res.minpoly
        assert mp.constant_term == 1                     # (a)
        assert order(mp, 4096) == N                      # (b)

        x = invert_from_minpoly(seq, mp)
        preimages = brute_force_invert(table_map(table, width), seed)
        cycle_values = {t.value for t in cycle}
        on_orbit = [v for v in preimages if v.value in cycle_values]
        assert on_orbit == [predecessor]                 # unique on the orbit
        assert x == predecessor                          # (c)
        cases.append((seq, res))
    return {"cases": cases, "elapsed": time.perf_counter() - t0}


def test_c1_periodic_orbit_inversion(periodic_suite):
    n, elapsed = len(periodic_suite["cases"]), periodic_suite["elapsed"]
    assert n >= 1000
    assert elapsed < 60.0
    print(f"C1 PASS: {n} periodic (map, seed) pairs at M = 2N+2: minpoly(0)=1, "
          f"poly order = N, unique orbit preimage matches brute force "
          f"({elapsed:.1f}s)")


def test_c2_hankel_bm_agreement(periodic_suite):
    # The minimality certificate is the tests' own Hankel scan, which
    # shares no code with the engine's solver or its rank: rank H(d) = d
    # means no nonzero polynomial of degree < d annihilates the window,
    # so nothing below mp does.  bm_crosscheck shares the kernel
    # _bm_steps with the solver, so its equality is no independent check.
    cases = periodic_suite["cases"]
    for seq, res in cases:
        mp = res.minpoly
        assert bm_crosscheck(seq) == mp
        lowbit, _, profile = minimal_polynomial_lowbit(seq)
        assert lowbit == mp
        if any(seq.terms):
            assert profile[-1] == (mp.degree, mp.degree)
        else:  # the all-zero window: X + 1 by convention, rank 0
            assert mp == Gf2Poly(0b11) and profile == ((1, 0),)
    print(f"C2 PASS: per-bit Berlekamp-Massey lcm and the lowbit Hankel "
          f"scan equal the projected minpoly, and the Hankel rank at its "
          f"degree is full, on all {len(cases)} criterion-1 cases")


# --------------------------------------------------------------- criterion 3

def test_c3_truncation_soundness():
    rng = random.Random(0xC3)
    tested = solved = 0
    while tested < 500:
        width = rng.choice(range(4, 13))
        size = 1 << width
        table = [rng.randrange(size) for _ in range(size)]
        start = BitVec(rng.randrange(size), width)
        r, period, terms = stored_orbit(table_map(table, width), start)
        if period > 128:
            continue
        seed = terms[r]
        full = local_inversion(table_map(table, width), seed, 2 * period + 2)
        if not full.solved or full.linear_complexity < 2:
            continue  # LC < 2 leaves no room below 2*LC
        M = rng.randrange(2, 2 * full.linear_complexity)
        report = local_inversion(table_map(table, width), seed, M)
        tested += 1
        if report.solved:
            solved += 1
            assert table[report.x.value] == seed.value  # never wrong
        else:
            assert report.x is None                     # never unverified
    print(f"C3 PASS: 500 truncated windows (M uniform in [2, 2*LC)): "
          f"{solved} still solved, every solution verified, none wrong")


# --------------------------------------------------------------- criterion 4

def test_c4_rsa_decrypt():
    demo = local_inversion(enc_map(RsaParams(3, 5, 3)), BitVec(8, 4), 6)
    assert demo.solved and demo.x.value == 2
    assert pow(2, 3, 15) == 8

    rng = random.Random(0xC4)
    primes = [p for p in range(250, 4100) if is_prime(p)]
    done = attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 2000, "instance sampling is stuck"
        p, q = rng.sample(primes, 2)
        phi = (p - 1) * (q - 1)
        e = next((c for c in (3, 5, 7, 11, 13, 17) if gcd(c, phi) == 1), None)
        if e is None:
            continue
        params = RsaParams(p, q, e)
        n, lam = params.n, lcm(p - 1, q - 1)
        assert 16 <= n.bit_length() <= 24
        # pick a ciphertext of small multiplicative order so the orbit is
        # short: c = r^(lambda/s) has order dividing s
        s = rng.choice([s for s in range(2, 65) if lam % s == 0])
        r = rng.randrange(2, n)
        if gcd(r, n) != 1:
            continue
        c = pow(r, lam // s, n)
        if c == 1:
            continue
        y = BitVec(c, params.width)
        prof = orbit_profile(enc_map(params), y)
        assert prof.preperiod == 0  # units under x^e are purely periodic
        report = local_inversion(enc_map(params), y, 2 * prof.period + 2)
        assert report.solved
        assert pow(report.x.value, e, n) == c
        done += 1
    print("C4 PASS: n=15 demo recovered m=2; 50 random 16-24 bit semiprimes, "
          "each recovered m satisfies m^e = c (mod n)")


# --------------------------------------------------------------- criterion 5

def test_c5_rsa_cca_break_equivalence():
    rng = random.Random(0xC5)
    primes = [p for p in range(17, 120) if is_prime(p)]
    done = outer = 0
    while done < 20:
        outer += 1
        assert outer < 400, "instance sampling is stuck"
        p, q = rng.sample(primes, 2)
        phi = (p - 1) * (q - 1)
        e = next((c for c in (3, 5, 7, 11, 13, 17, 19, 23)
                  if gcd(c, phi) == 1), None)
        if e is None:
            continue
        params = RsaParams(p, q, e)
        n, lam = params.n, lcm(p - 1, q - 1)
        d = params.private_exponent()
        lam_primes = prime_factors(lam)
        for _ in range(200):
            c = rng.randrange(2, n)
            if gcd(c, n) != 1:
                continue
            # maximal order makes x = d (mod lambda) the only solution
            if any(pow(c, lam // r, n) == 1 for r in lam_primes):
                continue
            m = pow(c, d, n)
            F = cca_map(params, c)
            F.max_evals = 100_000
            try:
                prof = orbit_profile(F, BitVec(m, params.width))
            except EvalBudgetExceeded:
                continue
            if prof.preperiod != 0 or prof.period > 300:
                continue
            report = local_inversion(cca_map(params, c),
                                     BitVec(m, params.width),
                                     2 * prof.period + 2)
            assert report.solved
            x = report.x.value
            assert x % lam == d % lam
            checked = 0
            while checked < 20:
                t = rng.randrange(2, n)
                if gcd(t, n) != 1:
                    continue
                assert pow(pow(t, x, n), e, n) == t
                checked += 1
            done += 1
            break
    print("C5 PASS: 20 instances; each recovered exponent satisfies "
          "(t^x)^e = t (mod n) for 20 fresh random units t")


# --------------------------------------------------------------- criterion 6

def test_c6_dlp_exhaustive_orbits():
    demo = local_inversion(dlp_map(DlpParams(11, 2)), BitVec(9, 4), 6)
    assert demo.solved and demo.x.value == 6
    assert pow(2, 6, 11) == 9

    rng = random.Random(0xC6)
    primes = [p for p in range(257, 1024) if is_prime(p)]
    orbits = points = 0
    for p in rng.sample(primes, 10):
        a = next(g for g in range(2, p) if is_primitive_root(g, p))
        assert is_primitive_root(a, p)
        params = DlpParams(p, a)
        w = params.width

        # cycle decomposition of x -> a^x on [1, p-1] (a bijection there)
        remaining = set(range(1, p))
        cycles = []
        while remaining:
            v0 = min(remaining)
            cyc, v = [], v0
            while True:
                cyc.append(v)
                remaining.discard(v)
                v = pow(a, v, p)
                if v == v0:
                    break
            cycles.append(cyc)
        assert sum(len(c) for c in cycles) == p - 1

        for cyc in cycles:
            N = len(cyc)
            mp, period = full_period_minpoly(dlp_map(params), BitVec(cyc[0], w))
            assert period == N
            assert mp.constant_term == 1
            assert order(mp, 2048) == N
            # every rotation of the cycle shares one minimal polynomial
            for j in rng.sample(range(N), min(3, N)):
                mp_j, _ = full_period_minpoly(dlp_map(params), BitVec(cyc[j], w))
                assert mp_j == mp

            deg = mp.degree
            taps = [i for i in range(1, deg) if (mp.bits >> i) & 1]
            for j, b in enumerate(cyc):
                x = cyc[(j + deg - 1) % N]
                for i in taps:
                    x ^= cyc[(j + i - 1) % N]
                assert x == cyc[j - 1]
                assert pow(a, reduce_exponent(x, p), p) == b
                points += 1
            # the engine formula agrees with the raw sweep
            for j in rng.sample(range(N), min(5, N)):
                terms = tuple(cyc[(j + t) % N] for t in range(deg))
                got = invert_from_minpoly(GrowingWindow(terms, w), mp)
                assert got.value == cyc[j - 1]
            # full pipeline on a representative of manageable cycles
            if N <= 200:
                rep = local_inversion(dlp_map(params), BitVec(cyc[0], w),
                                      2 * N + 2)
                assert rep.solved and rep.x.value == cyc[-1]
                assert rep.minpoly == mp
            orbits += 1
    print(f"C6 PASS: p=11 demo gave x=6; 10 random primes, {orbits} orbits, "
          f"a^x = b verified for all {points} periodic points")


# --------------------------------------------------------------- criterion 7

def first_toy_curve(q: int) -> CurveParams:
    """Smallest (a, b, base) in lexicographic order whose base point has
    order at least 5."""
    for a in range(q):
        for b in range(q):
            if (4 * a ** 3 + 27 * b ** 2) % q == 0:
                continue
            for x in range(q):
                for y in range(q):
                    if (y * y - (x ** 3 + a * x + b)) % q:
                        continue
                    curve = CurveParams(q, a, b, ECPoint(x, y))
                    if curve.subgroup_order >= 5:
                        return curve
    raise AssertionError(f"no usable curve over F_{q}")


def test_c7_ecdlp_toy_curves():
    solved = cases = 0
    for q in (5, 7, 11, 13, 17):
        curve = first_toy_curve(q)
        n_p = curve.subgroup_order
        group = count_points(curve)  # exhaustive census
        assert (group - q - 1) ** 2 <= 4 * q  # Hasse window
        assert group % n_p == 0
        assert ec_scalar_mul(curve, n_p, curve.base).is_infinity
        for d in range(1, n_p):
            if n_p % d == 0:
                assert not ec_scalar_mul(curve, d, curve.base).is_infinity

        M = 2 * n_p + 2
        probe = ecdlp_map(curve)
        r, l = probe.in_width, probe.out_width
        for k in range(1, n_p):
            Q = ec_scalar_mul(curve, k, curve.base)
            y = encode_point(curve, Q)
            report, _, _ = invert_embedding(ecdlp_map(curve), y, M)
            cases += 1
            if report.solved:
                solved += 1
                mult = reduce_exponent(report.x.value, n_p)
                assert mult == k
                assert ec_scalar_mul(curve, mult, curve.base) == Q
                continue
            # unsolved is only acceptable when no window meets the
            # periodic low-LC premise with a verifying candidate
            for i in range(1, l - r + 2):
                seed_i = project(y, r, i)
                prof = orbit_profile(composed_map(ecdlp_map(curve), i), seed_i)
                if prof.preperiod != 0:
                    continue
                mp_i, _ = full_period_minpoly(composed_map(ecdlp_map(curve), i),
                                              seed_i)
                if mp_i.degree > M // 2:
                    continue
                assert mp_i.constant_term == 1
                wrep = local_inversion(composed_map(ecdlp_map(curve), i),
                                       seed_i, M)
                assert wrep.solved
                assert ecdlp_map(curve)(wrep.x) != y
    assert solved > 0
    print(f"C7 PASS: 5 toy curves, {solved}/{cases} multipliers recovered; "
          f"every failure falls outside the periodic low-LC premise")


# --------------------------------------------------------------- criterion 8

def test_c8_eval_count_contract():
    rng = random.Random(0xC8)
    for _ in range(100):
        width = rng.choice(range(4, 11))
        size = 1 << width
        table = [rng.randrange(size) for _ in range(size)]
        F = table_map(table, width)
        y = BitVec(rng.randrange(size), width)
        M = rng.randrange(2, 40)
        before = F.evals
        report = local_inversion(F, y, M)
        used = F.evals - before
        assert used == report.map_evals
        assert used <= M + 1
    print("C8 PASS: local_inversion used at most M+1 evaluations on 100 "
          "instrumented cases")


# --------------------------------------------------------------- criterion 9

def run_cli(args):
    return subprocess.run([sys.executable, "-m", "bbi.cli", *args],
                          capture_output=True, text=True)


def test_c9_survey_golden_csv(tmp_path):
    out = tmp_path / "identity16.csv"
    res = run_cli(["survey", "--target", "identity16", "--samples", "64",
                   "--csv-out", str(out)])
    assert res.returncode == 0
    assert out.read_bytes() == (GOLDEN / "identity16_survey.csv").read_bytes()

    out2 = tmp_path / "dlp.csv"
    res2 = run_cli(["survey", "--target", "dlp-p11", "--exhaustive",
                    "--csv-out", str(out2)])
    assert res2.returncode == 0
    assert out2.read_bytes() == (GOLDEN / "dlp_p11_survey.csv").read_bytes()

    # 31 seeds with a tail and one periodic seed (period 234)
    out3 = tmp_path / "spn.csv"
    res3 = run_cli(["survey", "--target", "spn-kpa", "--samples", "32",
                    "--csv-out", str(out3)])
    assert res3.returncode == 0
    assert out3.read_bytes() == (GOLDEN / "spn_kpa_survey.csv").read_bytes()
    print("C9 PASS: identity16, dlp-p11 and spn-kpa surveys reproduce the "
          "golden CSVs byte-exactly at the default --seed 0")
