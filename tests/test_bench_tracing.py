"""The benchmark's tracer names bbi functions by module and attribute; a
rename in src would leave traced runs broken, so the names are checked
here against a fresh import.  bench/tracing.py is only read, never
imported, so this test writes nothing under bench/.  The values the
benchmark reads off those functions' results are checked on small
windows, through src alone."""

import ast
import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bbi import cli, engine
from bbi.embedding import invert_embedding
from bbi.engine import (RANK_DEFICIENT, SATURATED, UNIQUE, BlackBoxMap,
                        GrowingWindow, bm_crosscheck, generate,
                        local_inversion, minimal_polynomial)
from bbi.gf2 import BitVec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

CHECK = """
import importlib, json, sys
from bbi.engine import BlackBoxMap
missing = [f"{mod}.{attr}" for mod, attr in json.loads(sys.argv[1])
           if not callable(getattr(importlib.import_module(mod), attr, None))]
missing += [f"BlackBoxMap.{name}" for name in ("__call__", "__init__")
            if not callable(vars(BlackBoxMap).get(name))]
print(json.dumps(missing))
"""


def traced_table() -> tuple:
    """The TRACED table of bench/tracing.py, read from its source."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


def test_bench_tracer_names_resolve_in_src():
    pairs = [[mod, attr] for mod, attr, *_ in traced_table()]
    assert pairs
    res = subprocess.run([sys.executable, "-c", CHECK, json.dumps(pairs)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def hidden_cycle_map(n: int, cycle: list[int]) -> BlackBoxMap:
    """One hidden cycle, every other point fixed: a long-cycle window."""
    succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
    return BlackBoxMap(lambda x: BitVec(succ.get(x.value, x.value), n), n)


def test_bench_reads_of_engine_results():
    rng = random.Random(3)
    for n, N in ((16, 16), (16, 40), (64, 20)):
        cycle = [rng.getrandbits(n) for _ in range(N)]
        assert len(set(cycle)) == N
        for M in (2 * N + 2, N):  # solved, then too short to solve
            seq = generate(hidden_cycle_map(n, cycle), BitVec(cycle[0], n), M)
            assert len(seq.terms) == M
            res = minimal_polynomial(seq)
            assert res.status in (UNIQUE, SATURATED, RANK_DEFICIENT)
            if M == 2 * N + 2:
                assert res.status == UNIQUE
                assert res.minpoly == bm_crosscheck(seq)
            report = local_inversion(hidden_cycle_map(n, cycle),
                                     BitVec(cycle[0], n), M)
            assert report.solved is (M == 2 * N + 2)


def test_bench_reads_of_the_winning_window():
    # window 1 of x -> (x, x) is the identity, so it wins; a constant map
    # has no preimage of y, so no window does
    dup = BlackBoxMap(lambda x: BitVec(x.value | x.value << 3, 6), 3, 6)
    assert invert_embedding(dup, BitVec(0b101101, 6))[1] == 1
    const = BlackBoxMap(lambda x: BitVec(0, 6), 3, 6)
    assert invert_embedding(const, BitVec(0b101101, 6))[1] is None


@pytest.mark.parametrize("name", sorted(cli.DEMOS))
def test_every_demo_solve_runs_inside_local_inversion(name, monkeypatch):
    """The tracer's span engine.local_inversion sees every solve of a
    demo: with local_inversion swapped for a wrapper in every loaded bbi
    module that holds it, as the tracer's install swaps it, each
    GrowingWindow solve of the demo runs inside that wrapper."""
    assert ("bbi.engine", "local_inversion") in [
        (mod, attr) for mod, attr, *_ in traced_table()]
    depth, solves = [0], []
    inner = engine.local_inversion

    def wrapped(*args, **kwargs):
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    for mod in [m for k, m in list(sys.modules.items())
                if m is not None and (k == "bbi" or k.startswith("bbi."))]:
        for key, val in list(vars(mod).items()):
            if val is inner:
                monkeypatch.setattr(mod, key, wrapped)
    solve = GrowingWindow.solve
    monkeypatch.setattr(GrowingWindow, "solve", lambda window: solves.append(
        depth[0]) or solve(window))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["demo", name]) == 0
    assert solves and 0 not in solves
