"""Window projection and inversion of output-wider-than-input maps."""

import ast
from pathlib import Path

import pytest

from bbi import embedding
from bbi.embedding import composed_map, invert_embedding, project
from bbi.engine import BlackBoxMap, local_inversion
from bbi.gf2 import BitVec
from bbi.targets.arith import reduce_exponent
from bbi.targets.ec import (CurveParams, ECPoint, ec_scalar_mul, ecdlp_map,
                            encode_point)

from helpers import concat, rotl, window_count


def dup_map() -> BlackBoxMap:
    # y = x in the low bits and again in the high bits: 3 -> 6
    return BlackBoxMap(lambda x: concat(x, x), 3, 6)


def test_window_count():
    assert window_count(dup_map()) == 4
    with pytest.raises(ValueError):
        window_count(BlackBoxMap(lambda x: x, 4))


def test_project_windows_are_one_based():
    y = BitVec(0b01101, 5)  # coordinates 0..4, lowest bit first: 1, 0, 1, 1, 0
    assert project(y, 3, 1).value == 0b101  # coordinates 0..2: 1, 0, 1
    assert project(y, 3, 2).value == 0b110  # coordinates 1..3: 0, 1, 1
    assert project(y, 3, 3).value == 0b011  # coordinates 2..4: 1, 1, 0
    with pytest.raises(ValueError):
        project(y, 3, 0)
    with pytest.raises(ValueError):
        project(y, 3, 4)


def test_composed_map_windows():
    F = dup_map()
    G1 = composed_map(F, 1)
    G2 = composed_map(F, 2)
    G4 = composed_map(F, 4)
    x = BitVec(0b011, 3)
    assert G1(x) == x
    assert G4(x) == x
    assert G2(x) == rotl(x, 2)  # bits 1..3 of x||x
    # composed evaluations are charged to the underlying map
    assert F.evals == 3
    with pytest.raises(ValueError):
        composed_map(F, 5)
    with pytest.raises(ValueError):
        composed_map(F, 0)


def test_only_embedding_scans_windows():
    """An embedding's output windows are scanned in one place: no module
    of bbi but embedding.py names composed_map or project, so
    `bbi invert` and the demos reach the scan through invert_embedding."""
    src = Path(embedding.__file__).parent
    scan = {"composed_map", "project"}
    uses = [f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py")) if path.name != "embedding.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Name) and node.id in scan
                or isinstance(node, ast.Attribute) and node.attr in scan
                or isinstance(node, ast.alias) and node.name in scan)]
    assert uses == []


def test_invert_embedding_guards():
    square = BlackBoxMap(lambda x: x, 4)
    with pytest.raises(ValueError):
        invert_embedding(square, BitVec(0, 4))
    with pytest.raises(ValueError):
        invert_embedding(dup_map(), BitVec(0, 5))


def test_invert_embedding_consistent_point():
    v = BitVec(0b101, 3)
    y = concat(v, v)
    F = dup_map()
    report, window, passed = invert_embedding(F, y)
    assert report.solved and report.x == v
    # windows 1 and 4 both verify; the scan must return the first
    assert window == 1 and passed == []
    assert report.map_evals == F.evals
    # window 4 alone would also have solved it
    alt = local_inversion(composed_map(dup_map(), 4), project(y, 3, 4))
    assert alt.solved and alt.x == v


def test_invert_embedding_point_off_image():
    y = concat(BitVec(0b101, 3), BitVec(0b011, 3))  # halves disagree
    report, window, passed = invert_embedding(dup_map(), y)
    assert not report.solved
    assert report.x is None and window is None
    # every window was scanned and passed, window 1 first, each with the
    # label of its window map and its projected seed
    windows = [(composed_map(dup_map(), i), project(y, 3, i)) for i in range(1, 5)]
    assert passed == [(G.label, seed, local_inversion(G, seed)) for G, seed in windows]
    assert [label for label, _, _ in passed] == [
        f"{dup_map().label}[window {i}]" for i in range(1, 5)]
    assert report.outcome == "insufficient-data"


def test_invert_embedding_ecdlp_known_multiplier():
    curve = CurveParams(q=17, a=2, b=2, base=ECPoint(5, 1))
    n_p = curve.subgroup_order
    assert n_p == 19
    Q = ec_scalar_mul(curve, 7, curve.base)
    y = encode_point(curve, Q)
    F = ecdlp_map(curve)
    report, window, _ = invert_embedding(F, y, 2 * n_p + 2)
    assert report.solved and window == 1
    k = reduce_exponent(report.x.value, n_p)
    assert k == 7
    assert ec_scalar_mul(curve, k, curve.base) == Q


def test_a_grown_scan_reports_no_x_that_only_its_window_checks():
    """A 2 -> 3 bit embedding whose window 1 inverts y's window to an x
    with window_1(F(x)) == window_1(y) but F(x) != y: the grown scan
    passes window 1's report back and moves on to window 2, whose x
    passes F(x) == y."""
    table = [0b001, 0b000, 0b101, 0b011]  # window 1: 0 <-> 1 a cycle, 2 -> 1

    def embedding_map():
        return BlackBoxMap(lambda x: BitVec(table[x.value], 3), 2, 3)

    y = BitVec(table[2], 3)
    G, seed = composed_map(embedding_map(), 1), project(y, 2, 1)
    wrong = local_inversion(G, seed, grow=True)
    assert wrong.solved and wrong.x == BitVec(0, 2) and table[0] != y.value
    F = embedding_map()
    report, window, passed = invert_embedding(F, y, grow=True)
    assert report.solved and window == 2 and report.x == BitVec(2, 2)
    assert passed == [(G.label, seed, wrong)] and seed == BitVec(0b01, 2)
    # each window: 7 terms and its own check at M = 8, then one full check
    assert report.map_evals == F.evals == 2 * (7 + 1 + 1)


def test_the_scan_inverts_through_the_module_global(monkeypatch):
    """invert_embedding calls local_inversion through its module global,
    so a wrapper set there, as the benchmark's tracer sets one, sees
    every window, with grow passed on."""
    calls = []
    inner = embedding.local_inversion

    def spy(G, y, M, grow):
        calls.append((G.label, y, M, grow))
        return inner(G, y, M, grow=grow)

    monkeypatch.setattr(embedding, "local_inversion", spy)
    y = concat(BitVec(0b101, 3), BitVec(0b011, 3))
    _, window, passed = invert_embedding(dup_map(), y, 8, grow=True)
    assert window is None
    assert calls == [(f"{dup_map().label}[window {i}]", project(y, 3, i), 8, True)
                     for i in range(1, 5)]
    assert [(label, seed) for label, seed, _ in passed] == [c[:2] for c in calls]
