"""Ground-truth oracle: exhaustive preimages, orbit shapes, closed-form
minimal polynomials."""

import copy
import functools
import pickle
import random
from dataclasses import FrozenInstanceError, astuple, fields

import pytest
from hypothesis import given, strategies as st

from bbi.engine import (BlackBoxMap, EvalBudgetExceeded, generate,
                        minimal_polynomial)
from bbi.gf2 import BitVec, Gf2Poly, order
from bbi.oracle import (OrbitProfile, brute_force_invert, cycle_walk,
                        orbit_profile)
from bbi.targets.spn import ToySpn

from helpers import (concat, full_period_minpoly, per_call_brute_force_invert,
                     rotl, stored_orbit, table_map)


def identity(width: int) -> BlackBoxMap:
    return BlackBoxMap(lambda x: x, width)


def rsa15() -> BlackBoxMap:
    return BlackBoxMap(lambda x: BitVec(pow(x.value, 3, 15), 4), 4)


def or_one() -> BlackBoxMap:
    # 10 -> 11 -> 11: every orbit ends on the fixed point 11
    return BlackBoxMap(lambda x: BitVec(x.value | 1, 2), 2)


def test_brute_force_identity():
    assert brute_force_invert(identity(4), BitVec(5, 4)) == [BitVec(5, 4)]


def test_brute_force_constant_map():
    F = BlackBoxMap(lambda x: BitVec(0, 3), 3)
    assert brute_force_invert(F, BitVec(0, 3)) == [BitVec(v, 3) for v in range(8)]
    F2 = BlackBoxMap(lambda x: BitVec(0, 3), 3)
    assert brute_force_invert(F2, BitVec(1, 3)) == []


def test_brute_force_guards():
    wide = BlackBoxMap(lambda x: x, 25)
    with pytest.raises(ValueError):
        brute_force_invert(wide, BitVec(0, 25))
    with pytest.raises(ValueError):
        brute_force_invert(identity(4), BitVec(0, 5))


def test_brute_force_width_limit_is_24():
    """Width 24 is scanned (here it stops at once on an empty budget);
    width 25 is refused before any evaluation."""
    F = identity(24)
    F.max_evals = 0
    with pytest.raises(EvalBudgetExceeded):
        brute_force_invert(F, BitVec(0, 24))
    G = identity(25)
    with pytest.raises(ValueError, match="exceeds the exhaustive scan limit 24"):
        brute_force_invert(G, BitVec(0, 25))
    assert F.evals == G.evals == 0


def test_brute_force_finds_spn_key():
    cipher = ToySpn()
    key, p0 = 0x0073, 0x5678
    y = BitVec(cipher.encrypt(key, p0), 16)
    preimages = brute_force_invert(cipher.kpa_map(p0), y)
    assert BitVec(key, 16) in preimages


def test_orbit_profile_fixed_point():
    prof = orbit_profile(identity(4), BitVec(9, 4))
    assert (prof.preperiod, prof.period) == (0, 1)


def test_orbit_profile_two_cycle():
    prof = orbit_profile(rsa15(), BitVec(8, 4))
    assert (prof.preperiod, prof.period) == (0, 2)
    assert stored_orbit(rsa15(), BitVec(8, 4)) == (0, 2, (BitVec(8, 4), BitVec(2, 4)))


def test_orbit_profile_with_tail():
    prof = orbit_profile(or_one(), BitVec(0b00, 2))
    assert (prof.preperiod, prof.period) == (1, 1)
    r, _, terms = stored_orbit(or_one(), BitVec(0b00, 2))
    assert terms == (BitVec(0, 2), BitVec(1, 2))
    assert terms[r:] == (BitVec(1, 2),)
    prof2 = orbit_profile(or_one(), BitVec(0b10, 2))
    assert (prof2.preperiod, prof2.period) == (1, 1)


def test_orbit_profile_is_only_its_shape():
    """The oracle keeps no orbit terms; tests that need them take
    stored_orbit from the helpers."""
    prof = orbit_profile(rsa15(), BitVec(8, 4))
    assert [f.name for f in fields(prof)] == ["preperiod", "period"]
    assert prof == OrbitProfile(0, 2)


def test_orbit_profile_budget():
    rot = BlackBoxMap(lambda x: rotl(x, 1), 8)
    rot.max_evals = 3
    with pytest.raises(EvalBudgetExceeded):
        orbit_profile(rot, BitVec(1, 8))
    assert rot.evals == 3


def test_orbit_profile_rejects_embeddings():
    for walk in (orbit_profile, cycle_walk):
        wide = BlackBoxMap(lambda x: concat(x, x), 3, 6)
        with pytest.raises(ValueError):
            walk(wide, BitVec(1, 3))
        assert wide.evals == 0


def test_orbit_profile_matches_direct_walk():
    rng = random.Random(2)
    for _ in range(25):
        table = [rng.randrange(32) for _ in range(32)]
        F = BlackBoxMap(lambda x, t=table: BitVec(t[x.value], 5), 5)
        start = rng.randrange(32)
        # reference walk with full memory
        seen, v, path = {}, start, []
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = table[v]
        r, n = seen[v], len(path) - seen[v]
        assert stored_orbit(F, BitVec(start, 5)) == (
            r, n, tuple(BitVec(v, 5) for v in path))


def test_full_period_minpoly_fixed_point():
    assert full_period_minpoly(identity(4), BitVec(9, 4)) == (Gf2Poly(0b11), 1)
    # the all-zero orbit keeps the same convention
    assert full_period_minpoly(identity(4), BitVec(0, 4)) == (Gf2Poly(0b11), 1)


def test_full_period_minpoly_two_cycle():
    assert full_period_minpoly(rsa15(), BitVec(8, 4)) == (Gf2Poly(0b101), 2)


def test_full_period_minpoly_three_cycle():
    rot = BlackBoxMap(lambda x: rotl(x, 1), 3)
    mp, period = full_period_minpoly(rot, BitVec(0b110, 3))
    assert period == 3
    assert mp == Gf2Poly(0b111)  # X^2 + X + 1, not the full X^3 + 1


def test_full_period_minpoly_rejects_tails():
    with pytest.raises(ValueError):
        full_period_minpoly(or_one(), BitVec(0b00, 2))


def test_full_period_minpoly_rejects_giant_periods():
    # a 17-bit counter has period 2^17, past the closed-form limit
    count = BlackBoxMap(lambda x: BitVec((x.value + 1) & 0x1FFFF, 17), 17)
    with pytest.raises(ValueError):
        full_period_minpoly(count, BitVec(0, 17))


def test_full_period_minpoly_agrees_with_engine():
    rng = random.Random(9)
    table = list(range(1024))
    rng.shuffle(table)
    def fresh():
        return BlackBoxMap(lambda x: BitVec(table[x.value], 10), 10)
    y = BitVec(333, 10)
    mp, period = full_period_minpoly(fresh(), y)
    assert mp.constant_term == 1
    assert order(mp) == period
    # divides X^N + 1
    assert divmod(Gf2Poly((1 << period) | 1), mp)[1] == Gf2Poly(0)
    seq = generate(fresh(), y, 2 * mp.degree + 2)
    res = minimal_polynomial(seq)
    assert res.status == "unique" and res.minpoly == mp


# ------------------------------------------------------------ property tests
#
# Random tables of width 1..10.  `rho_tables` also builds, on demand, an
# orbit with a chosen tail and cycle, so that long tails are common.

def _floyd_profile(F, y, store=False):
    """Floyd cycle detection (tortoise and hare), as orbit_profile used it
    before Brent's method: the evaluation count to beat, and a second
    opinion on (preperiod, period, terms)."""
    tort = F(y)
    hare = F(F(y))
    while tort != hare:
        tort = F(tort)
        hare = F(F(hare))
    r = 0
    tort = y
    while tort != hare:
        tort = F(tort)
        hare = F(hare)
        r += 1
    n = 1
    probe = F(tort)
    while probe != tort:
        probe = F(probe)
        n += 1
    terms = None
    if store:
        terms = [y]
        for _ in range(r + n - 1):
            terms.append(F(terms[-1]))
        terms = tuple(terms)
    return r, n, terms


def _rho_walk(table, start):
    """(preperiod, period, path) by remembering every point."""
    seen, v, path = {}, start, []
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = table[v]
    return seen[v], len(path) - seen[v], path


@st.composite
def rho_tables(draw):
    """(width, table, start): a random table, or one whose start has a
    drawn tail length and cycle length, the other entries random."""
    width = draw(st.integers(1, 10))
    size = 1 << width
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [rng.randrange(size) for _ in range(size)]
    if draw(st.booleans()):
        cycle = draw(st.integers(1, size))
        tail = draw(st.integers(0, size - cycle))
        path = rng.sample(range(size), tail + cycle)
        for a, b in zip(path, path[1:]):
            table[a] = b
        table[path[-1]] = path[tail]
        return width, table, path[0]
    return width, table, rng.randrange(size)


def _brent_first_phase(F, y):
    """Brent's first phase alone, as orbit_profile ran it before its walk
    compared the hare with y: the period, from the first meeting."""
    tort, hare = y, F(y)
    power = period = 1
    while hare != tort:
        if period == power:
            tort, power, period = hare, 2 * power, 0
        hare = F(hare)
        period += 1
    return period


@given(rho_tables())
def test_cycle_walk_stops_at_the_first_return_or_the_first_meeting(case):
    """On the seed and on its cycle entry: a periodic seed costs exactly
    its period, any other seed exactly Brent's first phase, and
    orbit_profile adds the preperiod walk (period + 2r) only off the
    cycle."""
    width, table, start = case
    r, n, path = _rho_walk(table, start)
    for v, pre in ((start, r), (path[r], 0)):
        y = BitVec(v, width)
        F, G, H = (table_map(table, width) for _ in range(3))
        assert cycle_walk(F, y) == (pre == 0, n)
        assert astuple(orbit_profile(H, y)) == (pre, n)
        if pre == 0:
            assert F.evals == H.evals == n
        else:
            assert _brent_first_phase(G, y) == n
            assert F.evals == G.evals
            assert H.evals == F.evals + n + 2 * pre


# Each walk's result, with the period at index 1.
WALKS = {
    "stored_orbit": stored_orbit,
    "orbit_profile": lambda F, y: astuple(orbit_profile(F, y)),
    "cycle_walk": cycle_walk,
}


def _walk(F, y, store):
    """(preperiod, period, terms): the helpers' stored walk, or
    orbit_profile alone with terms None."""
    if store:
        return stored_orbit(F, y)
    prof = orbit_profile(F, y)
    return prof.preperiod, prof.period, None


@given(rho_tables(), st.booleans())
def test_orbit_profile_agrees_with_rho_walk(case, store):
    width, table, start = case
    r, n, path = _rho_walk(table, start)
    terms = tuple(BitVec(v, width) for v in path) if store else None
    assert _walk(table_map(table, width), BitVec(start, width), store) == (r, n, terms)


@given(rho_tables(), st.booleans())
def test_orbit_profile_never_costs_more_than_floyd(case, store):
    width, table, start = case
    F, G = table_map(table, width), table_map(table, width)
    walk = _walk(F, BitVec(start, width), store)
    assert walk == _floyd_profile(G, BitVec(start, width), store=store)
    assert F.evals <= G.evals


@given(rho_tables(), st.sampled_from(sorted(WALKS)), st.data())
def test_orbit_profile_budget_is_exact(case, name, data):
    width, table, start = case
    walk = WALKS[name]
    y = BitVec(start, width)
    F = table_map(table, width)
    walk(F, y)
    need = F.evals
    for budget in (need - 1, need, data.draw(st.integers(0, 2 * need))):
        G = table_map(table, width)
        G.max_evals = budget
        if budget < need:
            with pytest.raises(EvalBudgetExceeded):
                walk(G, y)
            # the map refuses the first call past its budget
            assert G.evals == budget
        else:
            assert walk(G, y)[1] == _rho_walk(table, start)[1]
            assert G.evals == need


def _scan_outcome(scan, F, y):
    """(preimages or the budget error's type and text, F.evals after)."""
    try:
        result = scan(F, y)
    except EvalBudgetExceeded as err:
        result = (type(err), str(err))
    return result, F.evals


@given(rho_tables(), st.data())
def test_brute_force_budget_matches_per_call_scan(case, data):
    width, table, _ = case
    size = 1 << width
    y = BitVec(data.draw(st.sampled_from(table)), width)
    spent = data.draw(st.integers(0, 2 * size))
    need = spent + size  # the smallest budget the whole scan fits in
    for budget in (need - 1, need, need + 1, 0,
                   data.draw(st.integers(0, 2 * need))):
        outcomes = []
        for scan in (brute_force_invert, per_call_brute_force_invert):
            F = table_map(table, width)
            for v in range(spent):
                F(BitVec(v % size, width))
            F.max_evals = budget
            outcomes.append(_scan_outcome(scan, F, y))
        assert outcomes[0] == outcomes[1]
        result, evals = outcomes[0]
        if budget < need:
            assert result == (EvalBudgetExceeded,
                              f"evaluation budget {budget} exhausted")
            assert evals == max(spent, budget)
        else:
            assert result == [BitVec(x, width) for x in range(size)
                              if table[x] == y.value]
            assert evals == need


class Boom(Exception):
    pass


@pytest.mark.parametrize("fault", ["raises", "wrong-width"])
@given(width=st.integers(1, 8), data=st.data())
def test_brute_force_counts_the_input_that_failed(fault, width, data):
    """A map that raises, or returns the wrong width, at input k leaves
    F.evals at before + k + 1, as calling F once per input does."""
    k = data.draw(st.integers(0, (1 << width) - 1))
    spent = data.draw(st.integers(0, 5))

    def fn(x):
        if x.value != k:
            return x
        if fault == "raises":
            raise Boom(k)
        return BitVec(0, width + 1)

    error = Boom if fault == "raises" else ValueError
    budget = data.draw(st.one_of(st.none(), st.integers(spent + k + 1, 1 << 10)))
    messages = []
    for scan in (brute_force_invert, per_call_brute_force_invert):
        F = BlackBoxMap(fn, width)
        for _ in range(spent):
            F(BitVec(0 if k else 1, width))
        F.max_evals = budget
        with pytest.raises(error) as info:
            scan(F, BitVec(0, width))
        assert F.evals == spent + k + 1
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    if fault == "wrong-width":
        assert messages[0] == f"map produced width {width + 1}, declared {width}"


@given(rho_tables(), st.data())
def test_brute_force_invert_is_exact_scan(case, data):
    width, table, _ = case
    size = 1 << width
    y = data.draw(st.one_of(st.sampled_from(table), st.integers(0, size - 1)))
    F = table_map(table, width)
    found = brute_force_invert(F, BitVec(y, width))
    assert found == [BitVec(x, width) for x in range(size) if table[x] == y]
    assert F.evals == size


@given(rho_tables(), st.data())
def test_scan_inputs_are_real_bitvecs(case, data):
    """The scan builds its inputs without BitVec's checks, and reuses one
    that nothing but the scan holds.  Whatever fn keeps of its inputs
    (every one, every third, a cache's keys, a set), the preimages are
    the per-call scan's, and each input kept, and each preimage, is
    still a BitVec like BitVec(v, n) for the v fn was called with.  An
    fn that keeps only ids receives at most one object more than there
    are preimages."""
    width, table, _ = case
    size = 1 << width
    y = BitVec(data.draw(st.sampled_from(table)), width)

    def image(x):
        return BitVec(table[x.value], width)

    expected = per_call_brute_force_invert(BlackBoxMap(image, width), y)

    def scan(fn):
        F = BlackBoxMap(fn, width)
        found = F.preimages(y)
        assert found == expected and F.evals == size
        return found

    received = []
    found = scan(lambda x: received.append(x) or image(x))
    assert [x.value for x in received] == list(range(size))
    # the preimages are the very inputs fn received
    assert list(map(id, found)) == [id(x) for x in received if image(x) == y]
    for v, x in enumerate(received):
        ref = BitVec(v, width)
        assert type(x) is BitVec
        assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref)
        for twin in (copy.copy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is BitVec and twin == ref
        for name in ("value", "width"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, 0)

    kept = []

    def keep_every_third(x):
        if x.value % 3 == 0:
            kept.append((x.value, x))
        return image(x)

    scan(keep_every_third)
    assert [v for v, _ in kept] == list(range(0, size, 3))
    for v, x in kept:
        assert x == BitVec(v, width) and hash(x) == hash(BitVec(v, width))

    cached = functools.cache(image)
    scan(cached)
    for v in range(size):  # each key still finds its entry by hash and value
        cached(BitVec(v, width))
    assert cached.cache_info()[:2] == (size, size)  # (hits, misses)

    seen = set()
    scan(lambda x: seen.add(x) or image(x))
    assert seen == {BitVec(v, width) for v in range(size)}

    ids = set()
    found = scan(lambda x: ids.add(id(x)) or image(x))
    assert {id(x) for x in found} <= ids
    assert len(ids) <= 1 + len(found)


@pytest.mark.parametrize("budget", [None, 0, 10])
def test_scan_rejects_width_zero_before_any_evaluation(budget):
    """The scan's width check runs once, before its loop: a map whose
    in_width was set to 0 after construction spends nothing."""
    calls = []
    F = BlackBoxMap(lambda x: calls.append(x) or BitVec(0, 3), 2, 3)
    F(BitVec(1, 2))
    F.in_width = 0
    F.max_evals = budget
    with pytest.raises(ValueError, match="^width must be >= 1$"):
        F.preimages(BitVec(0, 3))
    assert F.evals == len(calls) == 1
