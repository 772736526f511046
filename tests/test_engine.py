"""Recurrence windows, minimal polynomials, and verified local inversion."""

import ast
import copy
import math
import pickle
import random
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bbi import engine, gf2
from bbi.embedding import invert_embedding
from bbi.engine import (INSUFFICIENT_DATA, RANK_DEFICIENT, SATURATED,
                        SOLUTION, UNIQUE, BlackBoxMap, EvalBudgetExceeded,
                        GrowingWindow, MinPolyResult, bm_crosscheck,
                        generate, invert_from_minpoly, local_inversion,
                        minimal_polynomial)
from bbi.gf2 import BitVec, Gf2Poly, order

from helpers import (concat, full_period_minpoly, massey_minpoly,
                     minimal_polynomial_lowbit, per_call_generate,
                     per_coefficient_invert, rotl, stored_orbit,
                     structured_terms, table_map, times_x_mod,
                     verify_sequence)


def identity(width: int) -> BlackBoxMap:
    return BlackBoxMap(lambda x: x, width)


def rsa15() -> BlackBoxMap:
    # x -> x^3 mod 15 on 4 bits; 8 -> 2 -> 8 is a 2-cycle
    return BlackBoxMap(lambda x: BitVec(pow(x.value, 3, 15), 4), 4)


def lfsr5() -> BlackBoxMap:
    # Fibonacci register for s_{t+5} = s_{t+2} + s_t; primitive, period 31
    def step(v: BitVec) -> BitVec:
        new = (v.value ^ (v.value >> 2)) & 1
        return BitVec((v.value >> 1) | (new << 4), 5)
    return BlackBoxMap(step, 5)


def seq_of(values, width) -> GrowingWindow:
    return GrowingWindow(tuple(values), width)


def window_of(seq: GrowingWindow) -> GrowingWindow:
    """A fresh window of seq's terms, with no projection read yet."""
    return GrowingWindow(seq.terms, seq.width)


def annihilates(p: Gf2Poly, seq: GrowingWindow) -> bool:
    m = p.degree
    for t in range(len(seq.terms) - m):
        acc = 0
        for i in range(m + 1):
            if (p.bits >> i) & 1:
                acc ^= seq.terms[t + i]
        if acc:
            return False
    return True


def test_blackboxmap_counts_and_checks_widths():
    F = identity(4)
    assert F.evals == 0
    F(BitVec(3, 4))
    F(BitVec(5, 4))
    assert F.evals == 2
    with pytest.raises(ValueError):
        F(BitVec(1, 5))
    bad_out = BlackBoxMap(lambda x: BitVec(0, 3), 4)
    with pytest.raises(ValueError):
        bad_out(BitVec(0, 4))


def test_blackboxmap_eval_budget():
    F = identity(4)
    F.max_evals = 3
    y = BitVec(1, 4)
    for _ in range(3):
        F(y)
    with pytest.raises(EvalBudgetExceeded):
        F(y)
    assert F.evals == 3  # the rejected call is not counted
    F.max_evals = 1  # a budget lowered below the evaluations made
    assert F.iterate(y, 0) == [y.value] and F.evals == 3
    with pytest.raises(EvalBudgetExceeded):
        F.iterate(y, 1)
    assert F.evals == 3


@pytest.mark.parametrize("widths", [(0, None), (-2, None), (0, 3), (3, 0), (4, -1)])
def test_blackboxmap_rejects_widths_below_one(widths):
    """A map of width 0 or less can never be called; it is refused at
    construction, in either width."""
    with pytest.raises(ValueError, match="each must be >= 1"):
        BlackBoxMap(lambda x: x, *widths)


@pytest.mark.parametrize("budget", [None, 0, 5])
def test_iterate_rejects_negative_k_before_any_evaluation(budget):
    F = identity(4)
    F.max_evals = budget
    for k in (-1, -7):
        with pytest.raises(ValueError, match=f"cannot iterate {k} times"):
            F.iterate(BitVec(1, 4), k)
    assert F.evals == 0
    assert F.iterate(BitVec(1, 4), 0) == [1] and F.evals == 0


def test_sequence_validation():
    with pytest.raises(ValueError, match="^empty sequence$"):
        GrowingWindow((), 3)
    with pytest.raises(ValueError, match="^terms do not fit width 3$"):
        GrowingWindow((1, 8), 3)  # 8 needs four bits
    with pytest.raises(ValueError, match="^terms do not fit width 3$"):
        GrowingWindow((1, -1), 3)
    with pytest.raises(ValueError, match="^terms do not fit width 0$"):
        GrowingWindow((0, 0), 0)
    assert GrowingWindow((0, 7), 3).terms == (0, 7)  # both ends of the range


def test_packed_layout():
    # width 3 packs at the least stride, 8 bits a term
    grown = GrowingWindow((0b101, 0b010, 0b111), 3)
    assert grown.packed == 0b101 | (0b010 << 8) | (0b111 << 16)
    assert grown.stride == 8


def strided(terms, n) -> int:
    """terms packed one at a time, at the stride of width n: the least
    of 8, 16, 32, .. bits that holds n."""
    stride = 8
    while stride < n:
        stride *= 2
    return sum(t << (stride * i) for i, t in enumerate(terms))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 130])
def test_every_stride_packs_term_by_term(n):
    """Every stride class, the array routes up to 64 bits and the bytes
    route past them, packs as shifting each term into place would."""
    assert {8, 16, 32, 64} <= engine._TYPECODES.keys()
    rng = random.Random(n)
    terms = [rng.getrandbits(n) for _ in range(37)] + [(1 << n) - 1, 0]
    assert GrowingWindow(tuple(terms), n).packed == strided(terms, n)


class BigEndianArray(array):
    """An array whose tobytes gives each item's bytes most significant
    first, as an array gives them on a big-endian host."""

    def tobytes(self):
        swapped = array(self.typecode, self)
        swapped.byteswap()
        return array.tobytes(swapped)


@pytest.mark.parametrize("n", [1, 9, 17, 33, 64])
def test_array_route_packs_term_0_lowest_on_a_big_endian_host(monkeypatch, n):
    """With the host's byte order and its arrays' item bytes both
    big-endian, the array route still puts term 0 at bit 0."""
    monkeypatch.setattr(engine, "array", BigEndianArray)
    monkeypatch.setattr(engine, "sys", SimpleNamespace(byteorder="big"))
    rng = random.Random(n)
    terms = [rng.getrandbits(n) for _ in range(9)] + [(1 << n) - 1, 0, 1]
    assert GrowingWindow(tuple(terms), n).packed == strided(terms, n)


def test_extend_packs_only_the_terms_it_adds(monkeypatch):
    """Over a window's life each term is packed exactly once: by
    GrowingWindow when it is built, or by the extend that adds it.  The
    int each extend ORs its terms into equals a fresh packing of the
    whole window, and a solve packs none of the window's terms again."""
    pack, packs = engine._pack, []

    def counted(terms, stride):
        packs.append(terms)
        return pack(terms, stride)

    monkeypatch.setattr(engine, "_pack", counted)
    rng = random.Random(26)
    for n in (3, 16, 40, 100):
        terms = [rng.getrandbits(n) for _ in range(80)]
        packs.clear()
        grown = GrowingWindow(tuple(terms[:5]), n)
        assert packs == [tuple(terms[:5])]
        assert grown.packed == strided(terms[:5], n)
        for a, b in ((5, 9), (9, 10), (10, 10), (10, 41), (41, 80)):
            packs.clear()
            grown.extend(terms[a:b])
            assert packs == [tuple(terms[a:b])]
            assert grown.packed == strided(terms[:b], n)
        expected = minimal_polynomial(seq_of(terms, n)).minpoly
        packs.clear()
        assert grown.solve() == expected
        res = minimal_polynomial(grown)
        assert res.minpoly == expected and res.status
        assert tuple(terms) not in packs  # the grown window was not packed again


def test_a_window_keeps_only_its_solver_state():
    """A window holds plain solver state alone: deciding it, reading its
    status (the Hankel rank, when it has no minimal polynomial), growing
    it and deciding it again leave no other entry on it."""
    fields = {"terms", "width", "stride", "packed", "_read"}
    solved = seq_of([8, 2, 8, 2, 8, 2], 4)
    unsolved = generate(lfsr5(), BitVec(1, 5), 3)
    for s, status in ((solved, UNIQUE), (unsolved, SATURATED)):
        res = minimal_polynomial(s)
        assert vars(s).keys() == fields
        assert res.status == status  # the unsolved read measures the rank
        assert vars(s).keys() == fields
    solved.extend([8, 2, 8])
    assert solved.solve() == Gf2Poly(0b101)  # X^2 + 1
    assert vars(solved).keys() == fields


@st.composite
def parity_cases(draw):
    """(width, terms, u, start): 1..40 terms of width 1..130, so every
    stride from 8 to 256 bits occurs, and a term to resume from."""
    n = draw(st.integers(1, 130))
    terms = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    u = draw(st.integers(0, (1 << n) - 1))
    return n, terms, u, draw(st.integers(0, len(terms) - 1))


@settings(max_examples=500)
@given(parity_cases())
def test_parity_fold_matches_the_per_term_parity(case):
    """_parities reads <u, y(t)> from the packed window as the per-term
    parity of v & u does, term `start` highest, from term 0 and resumed
    at a later term."""
    n, terms, u, start = case
    grown = GrowingWindow(tuple(terms), n)
    for read in (0, start):
        expected = int("".join(str((v & u).bit_count() & 1) for v in terms[read:]), 2)
        assert grown._parities(u, read) == expected


def test_generate_counts_and_contents():
    F = rsa15()
    s = generate(F, BitVec(8, 4), 4)
    assert s.terms == (8, 2, 8, 2) and s.width == 4
    assert F.evals == 3  # exactly M - 1
    assert verify_sequence(s, rsa15())
    with pytest.raises(ValueError):
        generate(F, BitVec(8, 4), 1)
    wide = BlackBoxMap(lambda x: concat(x, x), 3, 6)
    with pytest.raises(ValueError):
        generate(wide, BitVec(1, 3), 4)


def _window_outcome(walk, F, y, M):
    """(window terms, or the error's type and text; F.evals after)."""
    try:
        result = walk(F, y, M).terms
    except (EvalBudgetExceeded, ValueError) as err:
        result = (type(err), str(err))
    return result, F.evals


@given(width=st.integers(1, 6), seed=st.integers(0, 2**32),
       M=st.integers(2, 40), spent=st.integers(0, 80))
def test_generate_budget_matches_per_call_window(width, seed, M, spent):
    """Every budget from 0 to one past the window: the same terms or the
    same EvalBudgetExceeded, and the same F.evals, as one call per term."""
    rng = random.Random(seed)
    size = 1 << width
    table = [rng.randrange(size) for _ in range(size)]
    y = BitVec(rng.randrange(size), width)
    need = spent + M - 1  # the smallest budget the whole window fits in
    for budget in [None, *range(need + 2)]:
        outcomes = []
        for walk in (generate, per_call_generate):
            F = table_map(table, width)
            for v in range(spent):
                F(BitVec(v % size, width))
            F.max_evals = budget
            outcomes.append(_window_outcome(walk, F, y, M))
        assert outcomes[0] == outcomes[1]
        result, evals = outcomes[0]
        if budget is not None and budget < need:
            assert result == (EvalBudgetExceeded,
                              f"evaluation budget {budget} exhausted")
            assert evals == max(spent, budget)
        else:
            assert len(result) == M and evals == need


class Boom(Exception):
    pass


@pytest.mark.parametrize("fault", ["raises", "wrong-width"])
@given(width=st.integers(1, 6), data=st.data())
def test_generate_counts_the_call_that_failed(fault, width, data):
    """A map that raises, or returns the wrong width, on its k-th call
    within the window leaves F.evals at before + k, as calling F once
    per term does."""
    M = data.draw(st.integers(2, 30))
    k = data.draw(st.integers(1, M - 1))
    spent = data.draw(st.integers(0, 5))
    budget = data.draw(st.one_of(st.none(), st.integers(spent + k, 1 << 10)))
    messages = []
    for walk in (generate, per_call_generate):
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) - spent != k:
                return BitVec((x.value + 1) % (1 << width), width)
            if fault == "raises":
                raise Boom(k)
            return BitVec(0, width + 1)

        F = BlackBoxMap(fn, width)
        for _ in range(spent):
            F(BitVec(0, width))
        F.max_evals = budget
        with pytest.raises(Boom if fault == "raises" else ValueError) as info:
            walk(F, BitVec(0, width), M)
        assert F.evals == spent + k == len(calls)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    if fault == "wrong-width":
        assert messages[0] == f"map produced width {width + 1}, declared {width}"


def test_generate_checks_the_seed_width_like_a_call():
    for budget in (None, 0):
        outcomes = []
        for walk in (generate, per_call_generate):
            F = identity(4)
            F.max_evals = budget
            outcomes.append(_window_outcome(walk, F, BitVec(1, 5), 4))
        assert outcomes[0] == outcomes[1] == (
            (ValueError, "input width 5, map expects 4"), 0)


def test_only_blackboxmap_evaluates_a_map():
    """Every evaluation goes through BlackBoxMap: no module of bbi but
    engine.py touches a map's fn or the budget helpers, and the class
    keeps those helpers private."""
    src = Path(engine.__file__).parent
    private = {"fn", "_allowance", "_budget_exceeded", "_width_error"}
    uses = [f"{path.relative_to(src)}:{node.lineno} .{node.attr}"
            for path in sorted(src.rglob("*.py")) if path.name != "engine.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert uses == []
    assert not [name for name in ("allowance", "budget_exceeded", "width_error")
                if hasattr(BlackBoxMap, name)]


def test_only_gf2_and_the_scan_build_bitvecs_unchecked():
    """gf2's slot setters build a BitVec without its width and range
    checks.  Outside gf2.py only engine.py, whose exhaustive scan bounds
    every value it stores, may name them."""
    src = Path(engine.__file__).parent
    setters = {"_set_value", "_set_width"}
    assert all(hasattr(gf2, name) for name in setters)
    uses = [f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            if path.name not in ("gf2.py", "engine.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Name) and node.id in setters
                or isinstance(node, ast.Attribute) and node.attr in setters
                or isinstance(node, ast.alias) and node.name in setters)]
    assert uses == []


# Definitions in src that no other src code references, each with what
# calls it: the README's library API and what reaches it from outside.
UNREFERENCED_IN_SRC = {
    "MinPolyResult.status": "README library API; read by bench/tracing.py",
    "bm_crosscheck": "README library API; bench/run.py solver_grid and "
                     "tests/test_acceptance.py criterion 2",
    "_Parser.error": "argparse.ArgumentParser, which it overrides",
}


def test_src_defines_nothing_that_only_tests_call():
    """Every function, class, method and class-body field (an annotated
    name such as a dataclass field) defined in src is named by other src
    code (a call, a reference or an attribute read; a re-export does not
    count), or is on UNREFERENCED_IN_SRC with its caller.  A method or
    field counts as named only by an attribute read, x.name: a bare name
    of the same spelling, such as a loop variable, does not name it.
    Names are matched by spelling alone, so a method that shares its name
    with another class's attribute counts as read wherever that attribute
    is: a property `bits` on BitVec would pass through every read of
    Gf2Poly's field `bits`.  Receivers are not resolved: only a `self.`
    read could be tied to its class, and without types a read like
    `target.params.width` cannot be.  Dunder methods are called by the
    language and are exempt; an operator dunder cannot be checked by its
    spelling, since `%` and `//` on ints are written the same way and
    the AST has no types."""
    src = Path(engine.__file__).parent
    defined, names, attrs = {}, set(), set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                method = isinstance(node, ast.ClassDef)
                defined[f"{scope}{child.name}"] = child.name, method
                walk(child, f"{scope}{child.name}.")
            else:
                if isinstance(child, ast.Name):
                    names.add(child.id)
                elif isinstance(child, ast.Attribute):
                    attrs.add(child.attr)
                elif (isinstance(node, ast.ClassDef) and isinstance(child, ast.AnnAssign)
                        and isinstance(child.target, ast.Name)):
                    defined[f"{scope}{child.target.id}"] = child.target.id, True
                walk(child, scope)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    unreferenced = {qualified for qualified, (name, method) in defined.items()
                    if name not in attrs and (method or name not in names)
                    and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced - set(UNREFERENCED_IN_SRC) == set()
    assert set(UNREFERENCED_IN_SRC) <= unreferenced  # no stale entry


def test_verify_catches_tampering():
    s = seq_of([8, 2, 8, 3], 4)
    assert not verify_sequence(s, rsa15())


def test_minpoly_constant_orbit():
    s = generate(identity(4), BitVec(9, 4), 5)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == Gf2Poly(0b11)  # X + 1
    assert invert_from_minpoly(s, res.minpoly) == BitVec(9, 4)


def test_minpoly_zero_orbit_convention():
    s = generate(identity(3), BitVec(0, 3), 6)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b11)
    report = local_inversion(identity(3), BitVec(0, 3), 4)
    assert report.solved and report.x == BitVec(0, 3)


def test_minpoly_two_cycle():
    s = generate(rsa15(), BitVec(8, 4), 6)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == Gf2Poly(0b101)  # X^2 + 1
    # minimality: no degree-1 polynomial annihilates the window
    assert annihilates(res.minpoly, s)
    assert not annihilates(Gf2Poly(0b11), s)
    assert not annihilates(Gf2Poly(0b10), s)


def test_minpoly_saturates_on_short_window():
    F = lfsr5()
    s = generate(F, BitVec(1, 5), 3)
    res = minimal_polynomial(s)
    assert res.status == SATURATED
    assert res.minpoly is None
    report = local_inversion(lfsr5(), BitVec(1, 5), 3)
    assert report.outcome == INSUFFICIENT_DATA and report.x is None


def test_minpoly_recovers_full_linear_complexity():
    F = lfsr5()
    s = generate(F, BitVec(1, 5), 10)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly.degree == 5 and res.minpoly.constant_term == 1
    assert annihilates(res.minpoly, s)
    # exhaustive minimality: nothing of lower degree annihilates
    for bits in range(2, 1 << 5):
        assert not annihilates(Gf2Poly(bits), s)
    report = local_inversion(lfsr5(), BitVec(1, 5), 12)
    assert report.solved
    assert report.x == BitVec(2, 5)  # the unique state clocking to 00001
    assert report.period_estimate == 31
    assert lfsr5()(report.x) == BitVec(1, 5)


def test_minpoly_rank_deficient_window():
    # not realizable by iteration, but a legal window: rank stalls at 1
    res = minimal_polynomial(seq_of([1, 1, 1, 2], 2))
    assert res.status == RANK_DEFICIENT
    assert res.minpoly is None


def test_minpoly_rank_profile_is_monotone():
    # the reference's profile: rank H(k) never falls and never passes k
    s = generate(lfsr5(), BitVec(7, 5), 12)
    mp, _, profile = minimal_polynomial_lowbit(s)
    assert mp == minimal_polynomial(s).minpoly
    assert [k for k, _ in profile] == list(range(1, mp.degree + 1))
    ranks = [r for _, r in profile]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert all(r <= k for k, r in profile)


def test_invert_from_minpoly_formula():
    # rotate-left-1 on 3 bits: orbit 110 -> 101 -> 011 -> 110
    rot = BlackBoxMap(lambda x: rotl(x, 1), 3)
    s = generate(rot, BitVec(0b110, 3), 7)
    res = minimal_polynomial(s)
    assert res.minpoly == Gf2Poly(0b111)  # X^2 + X + 1
    x = invert_from_minpoly(s, res.minpoly)
    assert x == BitVec(0b011, 3)
    assert rot(x) == BitVec(0b110, 3)


def test_invert_from_minpoly_rejects_bad_inputs():
    s = seq_of([8, 2, 8, 2], 4)
    degree = "annihilator must have degree >= 1"
    constant = "constant term is zero: the window does not certify"
    length = "window shorter than the annihilator degree"
    with pytest.raises(ValueError, match=constant):
        invert_from_minpoly(s, Gf2Poly(0b10))
    with pytest.raises(ValueError, match=constant):
        invert_from_minpoly(s, Gf2Poly(0b110))
    with pytest.raises(ValueError, match=degree):
        invert_from_minpoly(s, Gf2Poly(1))
    with pytest.raises(ValueError, match=degree):
        invert_from_minpoly(s, Gf2Poly(0))
    short = seq_of([8, 2], 4)
    with pytest.raises(ValueError, match=length):
        invert_from_minpoly(short, Gf2Poly(0b10011))
    # the checks run in this order: degree, constant term, length
    with pytest.raises(ValueError, match=constant):
        invert_from_minpoly(short, Gf2Poly(0b10010))


@given(width=st.integers(1, 64), data=st.data())
def test_invert_from_minpoly_matches_per_coefficient_formula(width, data):
    # any mp with mp(0) = 1 and degree 1 .. M, degree M half the time
    M = data.draw(st.integers(1, 200))
    d = M if data.draw(st.booleans()) else data.draw(st.integers(1, M))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    s = seq_of([rng.getrandbits(width) for _ in range(M)], width)
    mp = Gf2Poly(rng.getrandbits(d) | (1 << d) | 1)
    assert invert_from_minpoly(s, mp) == per_coefficient_invert(s, mp)


@st.composite
def annihilator_cases(draw):
    """A window of width 1..64 and M = 2..200 terms, and P of degree
    <= M/2.  Half the windows follow P from random first terms, with at
    most one bit of one term flipped; the rest are arbitrary."""
    n = draw(st.integers(1, 64))
    M = draw(st.integers(2, 200))
    d = draw(st.integers(0, M // 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    P = rng.getrandbits(d) | (1 << d)
    terms = [rng.getrandbits(n) for _ in range(M)]
    if draw(st.booleans()):
        for t in range(d, M):  # y(t) = sum of p_i y(t-d+i), i < d
            terms[t] = 0
            for i in range(d):
                if P >> i & 1:
                    terms[t] ^= terms[t - d + i]
        flip = draw(st.integers(-1, M - 1))
        if flip >= 0:
            terms[flip] ^= 1 << draw(st.integers(0, n - 1))
    return seq_of(terms, n), Gf2Poly(P)


@settings(max_examples=300)
@given(annihilator_cases())
def test_annihilates_matches_per_window_check(case):
    s, P = case
    held = window_of(s)._annihilated(P.bits)
    assert (held == len(s.terms) - P.degree) == annihilates(P, s)


def test_annihilates_needs_every_window_not_only_the_first():
    # 1, 2, 3, 1, 2, 3, 1 follow X^2 + X + 1; the last term breaks it
    P = Gf2Poly(0b111)
    s = seq_of([1, 2, 3, 1, 2, 3, 1, 2 ^ 8], 4)
    assert s.terms[0] ^ s.terms[1] ^ s.terms[2] == 0  # window 0 vanishes
    assert not annihilates(P, s)
    assert window_of(s)._annihilated(P.bits) < len(s.terms) - P.degree
    assert minimal_polynomial(s).minpoly != P


def test_annihilated_counts_a_window_that_fails_in_its_strides_top_bit():
    """At width 8 a term fills its stride, so the last window's sum here,
    bit 7 alone, is the top bit of its stride: the count is still the 5
    windows before it, not all 6."""
    P = Gf2Poly(0b111)
    s = seq_of([1, 2, 3, 1, 2, 3, 1, 2 ^ 128], 8)
    assert window_of(s)._annihilated(P.bits) == 5
    assert not annihilates(P, s)


def test_local_inversion_fixed_point():
    report = local_inversion(identity(4), BitVec(5, 4), 4)
    assert report.solved and report.x == BitVec(5, 4)
    assert report.linear_complexity == 1
    assert report.period_estimate == 1
    assert report.terms_consumed == 4
    assert report.map_evals == 4  # 3 window evals + 1 verification


def test_local_inversion_two_cycle():
    report = local_inversion(rsa15(), BitVec(8, 4), 6)
    assert report.solved and report.x == BitVec(2, 4)
    assert report.linear_complexity == 2
    assert report.period_estimate == 2
    assert report.map_evals == 6
    assert pow(report.x.value, 3, 15) == 8


def test_local_inversion_truncated_window():
    report = local_inversion(rsa15(), BitVec(8, 4), 2)
    assert report.outcome == INSUFFICIENT_DATA
    assert report.x is None and not report.solved


def test_local_inversion_default_window_length():
    report = local_inversion(identity(4), BitVec(5, 4))
    assert report.terms_consumed == 16  # 4 * input width
    assert report.solved


def test_local_inversion_detects_eventually_periodic_seed():
    # x -> x | 1 on 2 bits: 10 -> 11 -> 11, so 10 has no preimage chain
    F = BlackBoxMap(lambda x: BitVec(x.value | 1, 2), 2)
    report = local_inversion(F, BitVec(0b10, 2), 6)
    assert report.outcome == INSUFFICIENT_DATA
    assert report.x is None
    # the window is annihilated, but only by a polynomial with zero
    # constant term, which certifies nothing about a preimage
    assert report.minpoly == Gf2Poly(0b110)


def test_local_inversion_random_maps_is_sound():
    rng = random.Random(11)
    for _ in range(40):
        table = [rng.randrange(64) for _ in range(64)]
        F = BlackBoxMap(lambda x, t=table: BitVec(t[x.value], 6), 6)
        y = BitVec(rng.randrange(64), 6)
        report = local_inversion(F, y)
        assert report.map_evals <= report.terms_consumed + 1
        if report.solved:
            assert table[report.x.value] == y.value
        else:
            assert report.x is None


def test_a_fixed_window_spends_exactly_M_evaluations():
    """Without grow, local_inversion decides the one window of M terms:
    M - 1 evaluations for it and one for the check of its candidate,
    which fails here, as y has a tail, and no more.  With grow the same
    miss extends the window."""
    table = [0, 5, 1, 4, 6, 3, 5, 2]  # 7 -> 2 -> 1 -> 5 -> 3 -> 4 -> 6 -> 5
    F = table_map(table, 3)
    report = local_inversion(F, BitVec(7, 3), 6)
    assert report.minpoly == Gf2Poly(0b1011) and not report.solved
    assert F.evals == report.map_evals == report.terms_consumed == 6
    grown = local_inversion(table_map(table, 3), BitVec(7, 3), 6, grow=True)
    assert grown.terms_consumed > 6 and not grown.solved


def test_growth_stops_at_a_zero_constant_term(monkeypatch):
    """A seed with a tail of 10 into a 6-cycle has LC 16: the window grows
    from 4n = 16 by 4 terms a solve, and the first minimal polynomial,
    X^10 (X^6 + 1) at 32 terms, ends the growth unsolved, with no check
    and no further evaluation."""
    table = list(range(1, 11)) + [11, 12, 13, 14, 15, 10]
    solved_at = []
    solve = GrowingWindow.solve
    monkeypatch.setattr(GrowingWindow, "solve", lambda w: solved_at.append(
        len(w.terms)) or solve(w))
    F = table_map(table, 4)
    report = local_inversion(F, BitVec(0, 4), grow=True)
    assert report.minpoly == Gf2Poly((1 << 16) | (1 << 10)) and not report.solved
    assert solved_at == [16, 20, 24, 28, 32]
    assert F.evals == report.map_evals == report.terms_consumed - 1 == 31


@pytest.mark.parametrize("n", [1, 8])
def test_unsolved_growth_runs_just_past_twice_the_domain(n, monkeypatch):
    """With every solve undecided, the window grows from 4n by max(n,
    ceil(M/16)) terms a solve, evaluating each term once, and stops at
    the first length past 2^(n+1) + 2: no orbit needs more, as LC <=
    period <= 2^n.  At n = 1 the schedule 4, 5, 6, 7 meets that bound,
    6, and stops one term past it; at n = 8 the M/16 steps set in past
    M = 128."""
    solved_at = []
    monkeypatch.setattr(GrowingWindow, "solve", lambda w: solved_at.append(
        len(w.terms)))
    F = identity(n)
    report = local_inversion(F, BitVec(1, n), grow=True)
    schedule = [4 * n]
    while schedule[-1] <= (1 << (n + 1)) + 2:
        schedule.append(schedule[-1] + max(n, math.ceil(schedule[-1] / 16)))
    assert solved_at == schedule
    assert report.minpoly is None and not report.solved
    assert F.evals == report.map_evals == report.terms_consumed - 1 == schedule[-1] - 1


@given(width=st.integers(1, 10), permutation=st.booleans(),
       seed=st.integers(0, 2**32))
def test_growing_window_finds_the_x_of_the_oracle_window(width, permutation,
                                                         seed):
    """On a purely periodic seed of a random table map, local_inversion
    with grow returns the x that it gives at M = 2N+2, with the period N
    from the orbit oracle: it needs no N to find it, and it evaluates no
    term twice."""
    rng = random.Random(seed)
    size = 1 << width
    if permutation:  # long cycles
        table = rng.sample(range(size), size)
    else:
        table = [rng.randrange(size) for _ in range(size)]
    r, N, terms = stored_orbit(table_map(table, width),
                               BitVec(rng.randrange(size), width))
    y = terms[r]
    expected = local_inversion(table_map(table, width), y, 2 * N + 2)
    assert expected.solved
    F = table_map(table, width)
    report = local_inversion(F, y, grow=True)
    assert report.solved and report.x == expected.x
    assert F.evals == report.map_evals == report.terms_consumed


@pytest.fixture
def order_calls(monkeypatch):
    """Route the engine's gf2.order through a call counter."""
    calls = []

    def counting(p, bound=1 << 20):
        calls.append((p, bound))
        return order(p, bound)

    monkeypatch.setattr(engine, "order", counting)
    return calls


Q16 = Gf2Poly(0x1002D)  # X^16 + X^5 + X^3 + X^2 + 1, primitive


@pytest.mark.parametrize("F, y, M, period", [
    (identity(4), BitVec(5, 4), 4, 1),
    (rsa15(), BitVec(8, 4), 6, 2),
    (lfsr5(), BitVec(1, 5), None, 31),
    (times_x_mod(Q16 * Q16 * Q16 * Q16), BitVec(1, 64), None, 262140),
], ids=["fixed-point", "two-cycle", "lfsr5", "degree-64"])
def test_period_estimate_is_computed_once_on_first_read(order_calls, F, y, M,
                                                        period):
    report = local_inversion(F, y, M)
    assert report.solved and order_calls == []
    assert report.period_estimate == period
    bound = min(1 << 20, 1 << report.minpoly.degree)
    assert order_calls == [(report.minpoly, bound)]
    assert period == order(report.minpoly, bound)
    assert report.period_estimate == period
    assert len(order_calls) == 1


def test_invert_embedding_does_not_compute_the_period(order_calls):
    F = BlackBoxMap(lambda x: concat(x, x), 3, 6)
    report, window, _ = invert_embedding(F, concat(BitVec(5, 3), BitVec(5, 3)))
    assert report.solved and window == 1 and order_calls == []
    assert report.period_estimate == 1 and len(order_calls) == 1


def test_unsolved_report_has_no_period_and_no_order_call(order_calls):
    report = local_inversion(rsa15(), BitVec(8, 4), 2)
    assert not report.solved and report.period_estimate is None
    # annihilated only by X^2 + X, which order() would reject
    F = BlackBoxMap(lambda x: BitVec(x.value | 1, 2), 2)
    report = local_inversion(F, BitVec(0b10, 2), 6)
    assert report.minpoly == Gf2Poly(0b110) and report.period_estimate is None
    report, _, _ = invert_embedding(BlackBoxMap(lambda x: BitVec(0, 6), 3, 6),
                                    BitVec(1, 6))
    assert not report.solved and report.period_estimate is None
    assert order_calls == []


def test_report_equality_copy_and_pickle_ignore_the_cached_period():
    read, unread = (local_inversion(lfsr5(), BitVec(1, 5)) for _ in range(2))
    assert read.period_estimate == 31
    assert read == unread and hash(read) == hash(unread)
    for report in (read, unread):
        for clone in (copy.copy(report), copy.deepcopy(report),
                      pickle.loads(pickle.dumps(report))):
            assert clone == read and hash(clone) == hash(read)
            assert clone.period_estimate == 31


def test_bm_crosscheck_matches_engine():
    cases = [
        generate(identity(4), BitVec(9, 4), 6),
        generate(rsa15(), BitVec(8, 4), 6),
        generate(lfsr5(), BitVec(1, 5), 12),
        generate(identity(3), BitVec(0, 3), 6),
    ]
    for s in cases:
        res = minimal_polynomial(s)
        assert res.status == UNIQUE
        assert bm_crosscheck(s) == res.minpoly


def test_bm_crosscheck_on_random_permutation_full_period():
    rng = random.Random(5)
    table = list(range(64))
    rng.shuffle(table)
    def fresh():
        return BlackBoxMap(lambda x: BitVec(table[x.value], 6), 6)
    y = BitVec(17, 6)
    mp_oracle, period = full_period_minpoly(fresh(), y)
    s = generate(fresh(), y, 2 * period + 2)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert res.minpoly == mp_oracle
    assert bm_crosscheck(s) == mp_oracle


def measured(res: MinPolyResult) -> tuple:
    """(minpoly, status) of a result, the pair `reference` returns."""
    return res.minpoly, res.status


def reference(seq: GrowingWindow) -> tuple:
    """(minpoly, status) of the window by `minimal_polynomial_lowbit`."""
    return minimal_polynomial_lowbit(seq)[:2]


@st.composite
def table_maps(draw):
    """(width, table, start): a random table of width 1..8, or one whose
    start runs through a drawn tail into a hidden cycle of length 1..20,
    the other entries random."""
    width = draw(st.integers(1, 8))
    size = 1 << width
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [rng.randrange(size) for _ in range(size)]
    if draw(st.booleans()):
        cycle = draw(st.integers(1, min(size, 20)))
        tail = draw(st.integers(0, min(size - cycle, 3)))
        path = rng.sample(range(size), tail + cycle)
        for a, b in zip(path, path[1:]):
            table[a] = b
        table[path[-1]] = path[tail]
        return width, table, path[0]
    return width, table, rng.randrange(size)


def hidden_vector(n: int, high: int) -> int:
    """The vector of width n > 8 orthogonal to the first eight projections
    whose bits 8 and up are those of `high`: u_i has its lowest set bit
    at i, so bits 7 .. 0 are fixed in turn."""
    v = (high << 8) & ((1 << n) - 1)
    for i, u in reversed(list(enumerate(engine._projections(n)[:8]))):
        v |= ((u & v).bit_count() & 1) << i
    return v


@st.composite
def windows(draw, wide=False):
    """A window of M = 2..40 terms: arbitrary values, or the orbit of a
    table map from `table_maps`.

    A wide window has width 9..64.  Its orbit is spread over that width
    by a random linear map, and a periodic scalar sequence along a
    vector hidden from the first eight projections is XORed in, so only
    the later projections see that sequence's factors."""
    M = draw(st.integers(2, 40))
    widths = st.integers(9, 64) if wide else st.integers(1, 8)
    if draw(st.booleans()):
        n = draw(widths)
        values = draw(st.lists(st.integers(0, (1 << n) - 1),
                               min_size=M, max_size=M))
        return seq_of(values, n)
    width, table, start = draw(table_maps())
    orbit = generate(table_map(table, width), BitVec(start, width), M)
    if not wide:
        return orbit
    n = draw(widths)
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = [rng.getrandbits(n) for _ in range(width)]
    w = hidden_vector(n, rng.getrandbits(n))
    pattern = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    values = []
    for t, term in enumerate(orbit.terms):
        v = w if pattern[t % len(pattern)] else 0
        for i, c in enumerate(columns):
            if term >> i & 1:
                v ^= c
        values.append(v)
    return seq_of(values, n)


@settings(max_examples=500)
@given(windows())
def test_minpoly_matches_lowbit_scan(seq):
    assert measured(minimal_polynomial(seq)) == reference(seq)


@settings(max_examples=300)
@given(windows(wide=True))
def test_minpoly_matches_lowbit_scan_at_widths_9_to_64(seq):
    assert measured(minimal_polynomial(seq)) == reference(seq)


@settings(max_examples=500)
@given(windows())
def test_bm_crosscheck_on_any_window(seq):
    # solved or not, the per-bit lcm annihilates the window, and it is
    # minimal_polynomial's polynomial whenever that one solves; Massey's
    # own form, which shares no code with the engine, gives the same lcm
    mp = bm_crosscheck(seq)
    assert annihilates(mp, seq)
    assert massey_minpoly(seq.terms, seq.width) == mp
    res = minimal_polynomial(seq)
    if res.status == UNIQUE:
        assert mp == res.minpoly


@st.composite
def growing_windows(draw):
    """(width, terms, checkpoints): a window of width 1..4 and 2..64 or
    1,025..1,600 terms, and the window lengths a GrowingWindow is solved
    at when it is fed in chunks of 1..400 terms, the last one M.

    The terms repeat a cycle of up to 12 values, so L stays small, and
    half the windows flip one bit in their last 100 terms: a late jump
    of L to about the flip's position."""
    n = draw(st.integers(1, 4))
    M = draw(st.integers(2, 64) | st.integers(1025, 1600))
    cycle = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    terms = [cycle[t % len(cycle)] for t in range(M)]
    if draw(st.booleans()):
        terms[draw(st.integers(max(0, M - 100), M - 1))] ^= 1 << draw(
            st.integers(0, n - 1))
    checkpoints = [min(M, draw(st.integers(2, 400)))]
    while checkpoints[-1] < M:
        checkpoints.append(min(M, checkpoints[-1] + draw(st.integers(1, 400))))
    return n, terms, checkpoints


@settings(max_examples=100, deadline=None)
@given(growing_windows())
def test_growing_window_matches_one_shot_and_massey_at_every_checkpoint(case):
    """Fed in chunks, a window decides each prefix as minimal_polynomial
    does on the whole prefix, and as Massey's own form, which shares no code
    with the engine: the same polynomial when it solves, and a per-bit
    lcm past M/2 when it does not."""
    n, terms, checkpoints = case
    grown = GrowingWindow(tuple(terms[:checkpoints[0]]), n)
    for M in checkpoints:
        grown.extend(terms[len(grown.terms):M])
        mp = grown.solve()
        prefix = seq_of(terms[:M], n)
        assert grown.terms == prefix.terms
        assert mp == minimal_polynomial(prefix).minpoly
        massey = massey_minpoly(prefix.terms, n)
        if mp is None:
            assert 2 * massey.degree > M
        else:
            assert mp == massey


def test_growing_window_refuses_one_term_and_solves_again_unchanged():
    """A window of one term has no recurrence to read; a window solved
    again without new terms reads no further term and answers the same."""
    with pytest.raises(ValueError, match="need at least 2 terms"):
        GrowingWindow((1,), 1).solve()
    with pytest.raises(ValueError, match="need at least 2 terms"):
        minimal_polynomial(seq_of([5], 3))
    s = hidden_cycle_window(16, 100, seed=0)
    grown = window_of(s)
    first = grown.solve()
    assert grown.solve() == first == massey_minpoly(s.terms, 16)
    assert [read[0] for read in grown._read] == [len(s.terms)]


def test_growing_window_leaves_a_projection_it_no_longer_needs():
    """At 2 terms the first projection of 3, 3 is all zero, so the solve
    reads the second; at 14 terms of the cycle 3, 3, 2 the first alone
    decides, and the second keeps the state of its 2 terms."""
    terms = ([3, 3, 2] * 5)[:14]
    grown = GrowingWindow(tuple(terms[:2]), 2)
    assert grown.solve() == Gf2Poly(0b11)  # X + 1
    assert [read[0] for read in grown._read] == [2, 2]
    grown.extend(terms[2:])
    assert grown.solve() == Gf2Poly(0b1001)  # X^3 + 1
    assert [read[0] for read in grown._read] == [14, 2]
    assert minimal_polynomial(seq_of(terms, 2)).minpoly == Gf2Poly(0b1001)
    assert massey_minpoly(terms, 2) == Gf2Poly(0b1001)


@pytest.fixture
def decisions(monkeypatch):
    """Route GrowingWindow._decide, each residual window's decision,
    through a counter of the residual lengths K it decides."""
    calls = []
    decide = GrowingWindow._decide

    def counting(self, schedule):
        calls.append(len(self.terms))
        return decide(self, schedule)

    monkeypatch.setattr(GrowingWindow, "_decide", counting)
    return calls


def test_a_solve_builds_no_sequence(monkeypatch, decisions):
    """minimal_polynomial decides its caller's window itself: it builds
    no second window of the sequence, so it checks none of its terms
    again.  The only windows it builds are the residual windows of its
    completion, in _complete."""
    s = hidden_cycle_window(16, 100, seed=0)
    built, init = [], GrowingWindow.__init__

    def counted_init(window, terms, width):
        built.append(sys._getframe(1).f_code.co_name)
        init(window, terms, width)

    monkeypatch.setattr(GrowingWindow, "__init__", counted_init)
    res = minimal_polynomial(s)
    assert res.minpoly == massey_minpoly(s.terms, 16) and res.window is s
    assert decisions  # a residual window was decided
    assert built and set(built) == {"_complete"}


@pytest.mark.parametrize("n, N, seed", [(16, 100, 0), (64, 129, 1)])
def test_a_factor_the_first_projection_misses_comes_from_the_residual(
        n, N, seed):
    """The first projection of these hidden cycles lacks only X + 1 of the
    minimal polynomial.  The residual supplies it, so the solve reads one
    projection of the whole window where the lcm of two was needed."""
    s = hidden_cycle_window(n, N, seed)
    expected = massey_minpoly(s.terms, n)
    first = window_of(s)._project(0, engine._projections(n)[0])
    assert first * Gf2Poly(0b11) == expected
    grown = window_of(s)
    assert grown.solve() == expected
    assert len(grown._read) == 1
    assert measured(minimal_polynomial(s)) == reference(s)


def test_a_first_projection_at_half_the_window_that_fails_proves_none(
        decisions):
    """Projection 0 of this window has degree 3 = M/2 and fails it.  Every
    annihilator of degree <= M/2 would be a proper multiple of it, so none
    fits: None after one projection, with no residual to decide."""
    s = seq_of([3, 9, 8, 2, 5, 14], 4)
    first = window_of(s)._project(0, engine._projections(4)[0])
    assert first.degree == 3
    assert window_of(s)._annihilated(first.bits) < 6 - 3
    grown = window_of(s)
    assert grown.solve() is None
    assert len(grown._read) == 1 and decisions == []
    assert 2 * massey_minpoly(s.terms, 4).degree > 6
    assert measured(minimal_polynomial(s)) == reference(s)


@pytest.mark.parametrize("n, cycle, M, flip, bit, reads, residuals", [
    # the first 258 windows hold, past room = 158: no residual is read
    (8, [143, 219, 236, 199, 119, 115, 130, 218], 332, 256, 2, 1, False),
    # a residual Q whose product holds past room before K = 2 room
    (8, [169, 21], 242, 225, 4, 1, True),
    # the residual at K = 2 room: a Q whose product fails, and none
    (3, [3, 4, 3, 5, 1, 6, 2, 5], 58, 22, 0, 1, True),
    (3, [7, 0, 1, 1, 3, 4, 5], 65, 35, 0, 1, True),
    # a residual that grows past K = deg mp = 2: at K = 8 a Q's product
    # holds past room
    (8, [92, 1, 248, 193, 125, 19], 240, 141, 7, 1, True),
], ids=["held-at-start", "held-by-a-product", "product-at-2room",
        "none-at-2room", "held-by-a-product-past-deg-mp"])
def test_late_jump_windows_are_proved_unsolvable(
        decisions, n, cycle, M, flip, bit, reads, residuals):
    """A cycle with one bit flipped at `flip`, which projection 0 does not
    see: its polynomial fails the window, and each way the residual can
    end proves that no annihilator of degree <= M/2 exists."""
    terms = [cycle[t % len(cycle)] for t in range(M)]
    terms[flip] ^= 1 << bit
    s = seq_of(terms, n)
    grown = window_of(s)
    assert grown.solve() is None
    assert len(grown._read) == reads
    assert bool(decisions) == residuals
    assert 2 * massey_minpoly(terms, n).degree > M
    assert measured(minimal_polynomial(s)) == reference(s)


@pytest.mark.parametrize("kind", ["late-jump", "noise"])
def test_a_solve_reads_the_window_only_up_to_its_first_projection_not_zero(
        kind):
    """The whole window's projections are read only up to the first one
    that is not zero on it (L > 0); its residual decides the rest, a None
    included.  So every projection read before the last has L = 0."""
    rng = random.Random(30)
    for _ in range(150):
        n, M, p = rng.randint(2, 16), rng.randint(2, 300), rng.randint(1, 12)
        s = seq_of(structured_terms(kind, n, M, p, rng), n)
        grown = window_of(s)
        assert grown.solve() == reference(s)[0]
        assert [read[4] > 0 for read in grown._read] == (
            [False] * (len(grown._read) - 1) + [True])


@pytest.mark.parametrize("kind", ["late-jump", "noise"])
def test_a_zero_residual_prefix_decides_none(kind, monkeypatch):
    """_decide reads a zero residual window as None: no product of mp
    with any Q can complete a window that mp holds that far.  A zero
    prefix comes up while mp holds at least K windows; on late-jump and
    noise windows that reach one, the solve keeps the lowbit scan's
    answers."""
    for n in (1, 5, 64):
        assert GrowingWindow((0,) * 4, n)._decide(engine._projections(n)) is None
    zero = []
    decide = GrowingWindow._decide

    def spy(window, schedule):
        answer = decide(window, schedule)
        if not window.packed:
            zero.append(answer)
        return answer

    monkeypatch.setattr(GrowingWindow, "_decide", spy)
    rng = random.Random(31)
    for _ in range(200):
        n, M, p = rng.randint(1, 64), rng.randint(2, 300), rng.randint(1, 40)
        s = seq_of(structured_terms(kind, n, M, p, rng), n)
        assert window_of(s).solve() == reference(s)[0]
    assert zero and set(zero) == {None}


@st.composite
def structured_windows(draw):
    """A window of width 1..64 and 2..600 terms: a cycle of up to 40
    random values, the orbit of a random recurrence of order up to 40 on
    random vectors, a late jump, or a cycle with noise that projection 0
    does not see (see structured_terms).  M and the order come from the
    seeded rng, evenly spread, as hypothesis would draw mostly short
    windows."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["cycle", "recurrence", "late-jump", "noise"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    M, p = rng.randint(2, 600), rng.randint(1, 40)
    return seq_of(structured_terms(kind, n, M, p, rng), n)


@settings(max_examples=100, deadline=None)
@given(structured_windows())
def test_minpoly_matches_massey_and_lowbit_on_structured_windows(seq):
    res = minimal_polynomial(seq)
    massey = massey_minpoly(seq.terms, seq.width)
    if res.minpoly is None:
        assert 2 * massey.degree > len(seq.terms)
    else:
        assert res.minpoly == massey
    assert measured(res) == reference(seq)


def test_joins_at_half_the_residual_window_answer_as_the_reference(monkeypatch):
    """Only residual windows join projections, and their lengths K are
    even.  On the residuals of random windows two projections of degree
    about K/2 are common, and late-jump windows (a short cycle with one
    bit flipped in the last 100 terms) take joins of every size.  Some
    join has a larger degree of K/2, so that one degree more would pass
    half the window, and every answer is the reference's."""
    lengths, joins = [], []
    decide = GrowingWindow._decide
    monkeypatch.setattr(GrowingWindow, "_decide", lambda self, schedule: (
        lengths.append(len(self.terms)) or decide(self, schedule)))
    monkeypatch.setattr(engine, "lcm", lambda a, b: joins.append(
        (max(a.degree, b.degree), lengths[-1])) or gf2.lcm(a, b))
    rng = random.Random(7)
    for M in range(4, 200, 3):
        for n in (4, 16):
            s = seq_of([rng.getrandbits(n) for _ in range(M)], n)
            assert minimal_polynomial(s).minpoly == reference(s)[0]
            p = rng.randint(1, 12)
            s = seq_of(structured_terms("late-jump", n, M, p, rng), n)
            assert minimal_polynomial(s).minpoly == reference(s)[0]
    assert all(K % 2 == 0 for _, K in joins)
    assert any(2 * d == K for d, K in joins)


def test_minpoly_long_cycle_matches_lowbit_scan_and_bm():
    # n = 16, a hidden cycle of N = 256 distinct values, M = 2N + 2
    rng = random.Random(256)
    cycle = rng.sample(range(1 << 16), 256)
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    F = BlackBoxMap(lambda x: BitVec(succ.get(x.value, x.value), 16), 16)
    s = generate(F, BitVec(cycle[0], 16), 514)
    res = minimal_polynomial(s)
    assert res.status == UNIQUE
    assert measured(res) == reference(s)
    assert res.minpoly == bm_crosscheck(s) == massey_minpoly(s.terms, 16)
    assert invert_from_minpoly(s, res.minpoly) == BitVec(cycle[-1], 16)


@given(table_maps(), st.data())
def test_local_inversion_is_sound(case, data):
    width, table, y = case
    M = data.draw(st.integers(2, 4 * width + 8))
    budget = data.draw(st.none() | st.integers(1, M + 1))
    F = table_map(table, width)
    F.max_evals = budget
    try:
        report = local_inversion(F, BitVec(y, width), M)
    except EvalBudgetExceeded:
        assert budget is not None and F.evals == budget
        return
    assert report.map_evals <= M
    if report.solved:
        assert table[report.x.value] == y
    else:
        assert report.x is None


@pytest.fixture
def scans(monkeypatch):
    """Route the engine's Hankel rank through a call counter."""
    calls = []
    rank = engine._hankel_rank

    def counting(window, M):
        calls.append(window)
        return rank(window, M)

    monkeypatch.setattr(engine, "_hankel_rank", counting)
    return calls


def hidden_cycle_window(n: int, N: int, seed: int) -> GrowingWindow:
    """M = 2N + 2 terms of a map with one hidden cycle of N distinct
    values and every other point fixed."""
    rng = random.Random(seed)
    cycle = rng.sample(range(1 << n), N) if n <= 16 else list(
        dict.fromkeys(rng.getrandbits(n) for _ in range(2 * N)))[:N]
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    F = BlackBoxMap(lambda x: BitVec(succ.get(x.value, x.value), n), n)
    return generate(F, BitVec(cycle[0], n), 2 * N + 2)


@pytest.mark.parametrize("n, N", [(1, 2), (2, 3), (2, 4), (3, 5), (3, 8),
                                  (16, 16), (16, 100), (16, 256),
                                  (64, 64), (64, 129), (64, 256)])
def test_projected_route_matches_lowbit_scan_on_hidden_cycles(scans, n, N):
    s = hidden_cycle_window(n, N, seed=N)
    res = minimal_polynomial(s)
    assert scans == []  # won by projection, no scan
    assert res.status == UNIQUE
    assert measured(res) == reference(s)
    cycle_sum = 0
    for t in s.terms[:N]:
        cycle_sum ^= t
    if N & (N - 1) == 0 and cycle_sum:
        # X^N - 1 = (X + 1)^N, and the sum over one period is not zero,
        # so no proper divisor annihilates
        assert res.minpoly == Gf2Poly((1 << N) | 1)
    assert invert_from_minpoly(s, res.minpoly) == BitVec(s.terms[N - 1], n)


def test_ninth_projection_wins_a_window_hidden_from_the_first_eight(scans):
    # Width 9 has one nonzero w orthogonal to the first eight projections.
    # The window (1,1,0,1,1,0,...) * e + w has minimal polynomial
    # (X^2 + X + 1)(X + 1), but those eight see X^2 + X + 1 at most, which
    # does not annihilate the constant w.  The ninth sees X + 1, and the
    # lcm wins without the scan.
    us = engine._projections(9)
    assert len(us) == 9
    w = next(v for v in range(1, 512)
             if all((u & v).bit_count() % 2 == 0 for u in us[:8]))
    assert w == hidden_vector(9, 1)
    e = 1 if w != 1 else 2
    s = seq_of([(e if t % 3 != 2 else 0) ^ w for t in range(12)], 9)
    res = minimal_polynomial(s)
    assert scans == []
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b1001)  # X^3 + 1
    assert measured(res) == reference(s)
    # the first eight projections all zero: the window is w alone
    scans.clear()
    s = seq_of([w] * 6, 9)
    res = minimal_polynomial(s)
    assert scans == []
    assert res.status == UNIQUE and res.minpoly == Gf2Poly(0b11)  # X + 1
    assert measured(res) == reference(s)


@pytest.mark.parametrize("s", [
    seq_of([1, 1, 1, 2], 2),                 # rank-deficient
    generate(lfsr5(), BitVec(1, 5), 3),      # saturated
    generate(identity(3), BitVec(0, 3), 6),  # all zero
], ids=["rank-deficient", "saturated", "zero"])
def test_unsolved_and_zero_windows_go_to_the_scan(scans, s):
    # the solve never measures a rank; reading status measures one on a
    # window without a minpoly, and none on the zero window, whose X + 1
    # reads unique
    res = minimal_polynomial(s)
    assert scans == []
    assert measured(res) == reference(s)
    assert scans == ([s] if res.minpoly is None else [])


def test_status_read_scans_only_windows_without_a_minpoly(scans):
    windows = [seq_of([1, 1, 1, 2], 2),                 # rank-deficient
               generate(lfsr5(), BitVec(1, 5), 3),      # saturated
               generate(identity(3), BitVec(0, 3), 6)]  # all zero
    results = [minimal_polynomial(s) for s in windows]
    assert scans == []
    assert [res.status for res in results] == [RANK_DEFICIENT, SATURATED, UNIQUE]
    assert scans == windows[:2]
    for s, res in zip(windows, results):
        assert measured(res) == reference(s)
    assert scans == windows[:2]  # each status is measured once


def test_status_matches_lowbit_scan_on_structured_windows():
    """status against the reference on 2,000 seeded windows of every
    structured_terms kind, widths 1..64 and 2..200 terms.  No bench
    workload reads a rank-deficient window, so this is what checks that
    branch of _hankel_rank; every status must occur."""
    rng = random.Random(25)
    seen = set()
    for k in range(2000):
        n, M, p = rng.randint(1, 64), rng.randint(2, 200), rng.randint(1, 40)
        kind = ("random", "cycle", "recurrence", "late-jump")[k % 4]
        s = seq_of(structured_terms(kind, n, M, p, rng), n)
        res = minimal_polynomial(s)
        assert measured(res) == reference(s), (k, kind, n, M, p)
        seen.add(res.status)
    assert seen == {UNIQUE, SATURATED, RANK_DEFICIENT}


def test_status_reads_the_window_as_it_was_decided():
    """A window grown after minimal_polynomial decided it keeps the
    status of the terms decided: status reads the rank of that prefix,
    not of the grown window, and a later decision reads the grown one."""
    window = seq_of([1, 1, 1, 2], 2)
    res = minimal_polynomial(window)
    window.extend([0, 0])
    assert reference(window)[1] == SATURATED  # the grown window's status
    assert res.status == RANK_DEFICIENT == reference(seq_of([1, 1, 1, 2], 2))[1]
    assert minimal_polynomial(window).status == SATURATED
    rng = random.Random(29)
    for k in range(200):
        n, M = rng.randint(1, 16), rng.randint(2, 80)
        kind = ("random", "cycle", "recurrence", "late-jump")[k % 4]
        terms = structured_terms(kind, n, M + rng.randint(1, 40),
                                 rng.randint(1, 20), rng)
        window = seq_of(terms[:M], n)
        res = minimal_polynomial(window)
        window.extend(terms[M:])
        assert measured(res) == reference(seq_of(terms[:M], n)), (k, kind, n, M)


def test_saturated_window_is_decided_without_a_scan(scans):
    # a random permutation of GF(2)^16 whose cycle through 1 has 44,692
    # points: no annihilator of degree <= M/2 fits M = 4096 of them.  The
    # status would read saturated only after the rank of 2048 columns,
    # about 0.4 s, so it is not read.
    rng = random.Random(7)
    table = list(range(1 << 16))
    rng.shuffle(table)
    s = generate(table_map(table, 16), BitVec(1, 16), 4096)
    assert minimal_polynomial(s).minpoly is None
    assert scans == []


def test_status_is_measured_once_on_first_read(scans):
    """A window without a minpoly measures its rank once, on the first
    read of status; copies keep a status already measured and measure an
    unread one once each.  A solved window reads unique with none."""
    solved = hidden_cycle_window(16, 64, seed=3)
    res = minimal_polynomial(solved)
    assert res.status == UNIQUE and measured(res) == reference(solved)
    assert scans == []
    s = seq_of(structured_terms("late-jump", 6, 80, 9, random.Random(3)), 6)
    read, unread = minimal_polynomial(s), minimal_polynomial(s)
    assert scans == []
    assert read.status == RANK_DEFICIENT
    assert scans == [s]
    assert measured(read) == reference(s) and read.status == RANK_DEFICIENT
    assert scans == [s]
    # equality is identity, and the window stays out of the repr
    assert read == read and read != unread
    assert repr(read) == "MinPolyResult(minpoly=None)"
    scans.clear()
    for clone in (copy.copy(read), copy.deepcopy(read),
                  pickle.loads(pickle.dumps(read))):
        assert clone.status == RANK_DEFICIENT
    assert scans == []
    for clone in (copy.copy(unread), copy.deepcopy(unread),
                  pickle.loads(pickle.dumps(unread))):
        assert clone.status == clone.status == RANK_DEFICIENT
    assert [window.terms for window in scans] == [s.terms] * 3  # deep copies
