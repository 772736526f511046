"""Command-line interface, exercised through subprocesses, or in-process
where a test counts map evaluations or patches the solver."""

import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from bbi import cli, embedding, engine, oracle, targets
from bbi.embedding import composed_map
from bbi.gf2 import BitVec
from bbi.targets import (CONFIG_DIR, TargetInstance, build_target,
                          list_targets, load_target)
from bbi.targets.ec import (CurveParams, ECPoint, ec_scalar_mul, encode_point)
from bbi.targets.stream import FilteredLfsr


def run_cli(*args, module="bbi.cli", **env):
    """`bbi args` in a subprocess, with `env` added to the environment."""
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True,
                          env={**os.environ, **env})


def test_invert_rsa_demo():
    res = run_cli("invert", "--target", "rsa-demo", "--y", "0x8")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["target"] == "rsa-enc(n=15,e=3)"
    assert doc["outcome"] == "solution"
    assert doc["x"] == "0x2"
    assert doc["linear_complexity"] == 2
    assert doc["period_estimate"] == 2
    assert "window" not in doc  # square map: no projection involved


INVERT_GOLDEN = Path(__file__).parent / "golden" / "invert.jsonl"


def invert_golden_lines() -> list[str]:
    """`bbi invert` on every shipped target at three seeded points each.

    Each point is y = F(x) for x drawn by random.Random(target name), so
    most cases solve and carry a period_estimate.  One JSON line per case
    holds the target, y, the exit code and stdout verbatim.  Regenerate
    with `PYTHONPATH=src python tests/test_cli.py`.
    """
    lines = []
    for name in list_targets():
        F = load_target(name).fresh_map()
        rng = random.Random(name)
        for _ in range(3):
            y = F(BitVec(rng.randrange(1 << F.in_width), F.in_width)).hex()
            res = run_cli("invert", "--target", name, "--y", y)
            lines.append(json.dumps({"target": name, "y": y,
                                     "exit": res.returncode,
                                     "stdout": res.stdout}) + "\n")
    return lines


def test_invert_matches_golden_jsonl():
    assert "".join(invert_golden_lines()) == INVERT_GOLDEN.read_text()


DEMO_GOLDEN = Path(__file__).parent / "golden" / "demos.jsonl"
DEMO_SEEDS = (0, 7)
DEMO_BUDGETS = (None, 50, 700)  # None: the default --max-evals


@contextlib.contextmanager
def counted_maps():
    """Collect every map TargetInstance.fresh_map hands out, so their
    evaluation counters can be summed afterwards."""
    made = []
    fresh_map = TargetInstance.fresh_map

    def logged(inst):
        F = fresh_map(inst)
        made.append(F)
        return F

    TargetInstance.fresh_map = logged
    try:
        yield made
    finally:
        TargetInstance.fresh_map = fresh_map


def run_main(*argv: str) -> tuple[int, str, str, list]:
    """`bbi argv` in-process.

    Returns the exit code, stdout, stderr and every map the targets
    handed out during the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with counted_maps() as made, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue(), made


def run_demo(name: str, *args: str) -> tuple[int, str, str, int]:
    """`bbi demo name args` in-process: the exit code, stdout, stderr and
    the evaluations summed over every map handed out during the run."""
    rc, out, err, made = run_main("demo", name, *args)
    return rc, out, err, sum(F.evals for F in made)


def demo_golden_lines() -> list[str]:
    """Every demo at --seed 0 and 7, each with the default budget and
    with --max-evals 50 and 700: one JSON line per run with the exit
    code, stdout, stderr and evaluation count.  Regenerate with
    `PYTHONPATH=src python tests/test_cli.py`.
    """
    lines = []
    for name in sorted(cli.DEMOS):
        for seed in DEMO_SEEDS:
            for budget in DEMO_BUDGETS:
                args = ["--seed", str(seed)]
                if budget is not None:
                    args += ["--max-evals", str(budget)]
                rc, out, err, evals = run_demo(name, *args)
                lines.append(json.dumps({"demo": name, "seed": seed,
                                         "max_evals": budget, "exit": rc,
                                         "evals": evals, "stdout": out,
                                         "stderr": err}) + "\n")
    return lines


def test_demos_match_golden_jsonl():
    assert "".join(demo_golden_lines()) == DEMO_GOLDEN.read_text()


def test_invert_and_demos_run_no_scan(monkeypatch):
    """`bbi invert` on every golden case and every demo, in-process: a
    GrowingWindow solve decides every window, solved or not, and nothing
    on those paths reads status, so no Hankel rank is measured."""
    scans, unsolved = [], []
    solve, rank = engine.GrowingWindow.solve, engine._hankel_rank

    def counted_rank(window, M):
        scans.append(window)
        return rank(window, M)

    def counted_solve(window):
        mp = solve(window)
        unsolved.append(mp is None)
        return mp

    monkeypatch.setattr(engine, "_hankel_rank", counted_rank)
    monkeypatch.setattr(engine.GrowingWindow, "solve", counted_solve)
    for line in INVERT_GOLDEN.read_text().splitlines():
        case = json.loads(line)
        rc, out, _, _ = run_main("invert", "--target", case["target"],
                                 "--y", case["y"])
        assert (rc, out) == (case["exit"], case["stdout"])
    for name in sorted(cli.DEMOS):
        assert run_main("demo", name)[0] == 0
    assert set(unsolved) == {False, True}
    assert scans == []


BUDGET_RUNS = (
    [pytest.param(("demo", name), budget, id=f"demo-{name}-{budget}")
     for name in sorted(cli.DEMOS) for budget in (50, 700)]
    + [pytest.param(argv, 50, id=f"{argv[0]}-50") for argv in (
        ("invert", "--target", "spn-kpa", "--y", "0x3c84"),
        ("survey", "--target", "dlp-p11", "--samples", "4"),
        ("oracle", "orbit", "--target", "spn-kpa", "--y", "0x3c84"))])


@pytest.mark.parametrize("argv,budget", BUDGET_RUNS)
def test_max_evals_bounds_every_map(argv, budget):
    """--max-evals is the one budget: every map a run evaluates carries
    it, and none spends more."""
    _, _, _, made = run_main(*argv, "--max-evals", str(budget))
    assert made
    assert [F.max_evals for F in made] == [budget] * len(made)
    assert all(F.evals <= budget for F in made), [F.evals for F in made]


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def bench_recovered_pattern() -> re.Pattern:
    """The pattern by which bench/workloads.py finds a demo's claimed x,
    read from its source (`_RECOVERED = re.compile(...)`), never imported,
    so this file writes nothing under bench/."""
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_RECOVERED" for t in node.targets):
            return re.compile(ast.literal_eval(node.value.args[0]))
    raise AssertionError("bench/workloads.py defines no _RECOVERED pattern")


RECOVERED = bench_recovered_pattern()
# What each demo recovers at the default budget, as the bench reads it.
DEMO_X = {"dlp": "6", "ecdlp": "0x07", "rsa-cca": "373", "rsa-decrypt": "2",
          "spn-kpa": "0x0073", "stream": "0x0036"}


@pytest.mark.parametrize("name", sorted(cli.DEMOS))
def test_demo_runs_its_shipped_config_and_names_x_in_the_bench_pattern(
        name, tmp_path, monkeypatch):
    """A file in the working directory named like the demo's target does
    not replace its shipped config, and stdout names the recovered value
    once, in the form the benchmark parses."""
    monkeypatch.chdir(tmp_path)
    decoy = {"family": "identity", "width": 4}
    (tmp_path / cli.DEMOS[name][0]).write_text(json.dumps(decoy))
    rc, out, err, _ = run_demo(name)
    assert (rc, err) == (0, "")
    assert RECOVERED.findall(out) == [DEMO_X[name]]


def test_a_shipped_name_beats_a_local_file_and_a_path_reaches_it(
        tmp_path, monkeypatch):
    """--target dlp-p11 loads the shipped config even beside a file named
    dlp-p11, in invert, survey and oracle; ./dlp-p11 reads that file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dlp-p11").write_text(json.dumps({"family": "identity",
                                                  "width": 4}))
    shipped = build_target(json.loads((CONFIG_DIR / "dlp-p11.json").read_text()))
    label = shipped.fresh_map().label
    assert label != "identity4"

    def target_of(*argv):
        rc, out, err, _ = run_main(*argv)
        assert rc in (0, 2) and err == ""
        return json.loads(out[out.index("{"):])["target"]

    for argv in (("invert", "--y", "0x9"), ("oracle", "invert", "--y", "0x9"),
                 ("oracle", "orbit", "--y", "0x9"), ("survey", "--samples", "2")):
        assert target_of(*argv, "--target", "dlp-p11") == label
        assert target_of(*argv, "--target", "./dlp-p11") == "identity4"


def growth_schedule(M0: int, n: int, last: int) -> list[int]:
    """The window lengths a demo solves one square map at, from M0 to
    last: each grows the one before by max(n, ceil(M/16)) terms."""
    Ms = [M0]
    while Ms[-1] < last:
        Ms.append(Ms[-1] + max(n, -(-Ms[-1] // 16)))
    assert Ms[-1] == last
    return Ms


@pytest.mark.parametrize("name, windows", [("spn-kpa", 1), ("stream", 2)])
def test_a_demo_builds_one_sequence_per_window_map(name, windows):
    """The terms of each window map a demo grows are checked once, when
    its generate builds the window: extend and solve check no term of
    the whole window, and the only other windows built are the residual
    windows of a solve's completion."""
    built, generated = [], []
    init, generate = engine.GrowingWindow.__init__, engine.generate

    def counted_init(window, terms, width):
        built.append((sys._getframe(1).f_code.co_name, len(generated), terms))
        init(window, terms, width)

    def counted_generate(*args):
        window = generate(*args)
        generated.append(window.terms)
        return window

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.GrowingWindow, "__init__", counted_init)
        mp.setattr(engine, "generate", counted_generate)
        assert run_main("demo", name)[0] == 0
    assert len(generated) == windows
    assert [(k, terms) for caller, k, terms in built
            if caller == "generate"] == list(enumerate(generated))
    assert {caller for caller, _, _ in built} <= {"generate", "_complete"}


def run_spied(name: str, unsolved: bool = False) -> tuple[int, str, str, list, list]:
    """`bbi demo name` in-process with every GrowingWindow solve spied on:
    the exit code, stdout, stderr, the maps handed out, and per solve
    (window length, evaluations so far of the newest map).  With
    unsolved, each solve reports no minimal polynomial instead of
    deciding."""
    calls = []
    solve = engine.GrowingWindow.solve

    def spy(window):
        calls.append((len(window.terms), made[-1].evals))
        return None if unsolved else solve(window)

    with pytest.MonkeyPatch.context() as mp, counted_maps() as made:
        mp.setattr(engine.GrowingWindow, "solve", spy)
        rc, out, err, _ = run_main("demo", name)
    return rc, out, err, made, calls


@pytest.mark.parametrize("name", sorted(cli.DEMOS))
def test_demo_failure_paths(name, monkeypatch):
    """Neither path is reachable with the shipped configs: an unsolved
    inversion, and a "solved" x that the demo's own check must reject.

    Unsolved, the demo's one map grows each window (its only one, if the
    map is square) on the growth schedule from 4n until it has passed
    2^(n+1) + 2 terms, evaluating every term once."""
    rc, out, err, made, calls = run_spied(name, unsolved=True)
    assert rc == 2 and err == "" and len(made) == 1
    assert len([l for l in out.splitlines() if "insufficient data" in l]) == 1
    assert not RECOVERED.search(out)
    F = made[0]
    n = F.in_width
    windows = F.out_width - n + 1
    assert (windows > 1) == (name in ("ecdlp", "stream"))
    schedule = growth_schedule(4 * n, n, calls[-1][0])
    assert schedule[-2] <= (1 << (n + 1)) + 2 < schedule[-1]
    spent = schedule[-1] - 1  # per window: every term but its seed, no check
    assert calls == [(M, w * spent + M - 1)
                     for w in range(windows) for M in schedule]
    assert F.evals == windows * spent

    flipped = []

    def flip(report):
        if report.solved:
            flipped.append(report.terms_consumed)
            report = replace(report, x=BitVec(report.x.value ^ 1, report.x.width))
        return report

    # The engine's full check F(x) == y rejects a flipped window x, so an
    # embedding's x is flipped after its scan, a square map's after its
    # inversion.
    if windows > 1:
        invert_embedding = cli.invert_embedding
        monkeypatch.setattr(cli, "invert_embedding", lambda *a, **k: (
            lambda report, *rest: (flip(report), *rest))(*invert_embedding(*a, **k)))
    else:
        local_inversion = cli.local_inversion
        monkeypatch.setattr(cli, "local_inversion",
                            lambda *a, **k: flip(local_inversion(*a, **k)))
    rc, out, err, _ = run_demo(name)
    verdict = out.splitlines()[-1]
    assert rc == 2 and err == "" and len(flipped) == 1
    if name == "rsa-cca":
        assert "/20 random t" in verdict and "20/20" not in verdict
    else:
        assert verdict.endswith(": False")


# demo -> (its first window, 4n, and the one that solves)
GROWTH = {"dlp": (16, 16), "rsa-cca": (44, 77), "rsa-decrypt": (16, 16),
          "spn-kpa": (64, 475)}


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_demo_grows_one_window_on_one_map(name):
    """The demo solves at 4n, then at each longer window of the growth
    schedule, all on one budgeted map: each solve sees every term the map
    has evaluated, none twice, and the solved try spends one more for its
    check.  The demo prints all it spent."""
    rc, out, _, made, calls = run_spied(name)
    M0, M = GROWTH[name]
    Ms = growth_schedule(M0, made[0].in_width, M)
    assert rc == 0 and len(made) == 1
    assert calls == [(m, m - 1) for m in Ms]
    assert made[0].evals == M and made[0].max_evals == cli.DEFAULT_MAX_EVALS
    assert f"M = {M}," in out
    if name == "spn-kpa":
        assert f"evals = {M}\n" in out


def test_stream_demo_drops_window_1_and_solves_window_2(monkeypatch):
    """On the demo's one map, window 1 is solved once, at M = 64, and
    dropped on its minimal polynomial's zero constant term; window 2
    grows from 64 to 607, and its x passes the full check F(x) == y;
    windows 3-5 are never built.  The result line counts all
    63 + 607 + 1 evaluations."""
    windows = []
    compose = embedding.composed_map

    def spy(F, i):
        windows.append(i)
        return compose(F, i)

    monkeypatch.setattr(embedding, "composed_map", spy)
    rc, out, _, made, calls = run_spied("stream")
    Ms = growth_schedule(64, 16, 607)
    assert rc == 0 and windows == [1, 2] and len(made) == 1
    assert calls == [(64, 63)] + [(m, 63 + m - 1) for m in Ms]
    assert made[0].evals == 63 + 607 + 1
    dropped = [l for l in out.splitlines() if "not purely periodic" in l]
    assert len(dropped) == 1 and "[window 1]" in dropped[0]
    assert "M = 64" in dropped[0]
    assert "M = 607, LC = 298, evals = 671\n" in out


# `bbi demo` at the budget edge: spn-kpa's 475 evaluations and stream's
# 671, and one fewer each
DEMO_EDGE = {
    474: ("spn-kpa", 2, "insufficient data: evaluation budget 474 exhausted\n"),
    475: ("spn-kpa", 0, ""),
    670: ("stream", 2, "insufficient data: evaluation budget 670 exhausted\n"),
    671: ("stream", 0, ""),
}


@pytest.mark.parametrize("budget", sorted(DEMO_EDGE))
def test_demo_at_the_budget_edge(budget):
    """One budget bounds the demo's one map: the growing windows spend it
    exactly, and only the last evaluation, the check, is cut.  The notes
    of the windows a scan passed print once the scan returns, so at 670
    stream's window 1, dropped at 63 evaluations, gets no line: the
    budget runs out in window 2."""
    name, *expected = DEMO_EDGE[budget]
    rc, out, err, made = run_main("demo", name, "--max-evals", str(budget))
    assert [rc, err] == expected
    assert [F.evals for F in made] == [budget]
    assert bool(RECOVERED.findall(out)) == (rc == 0)
    assert ("not purely periodic" in out) == (budget == 671)


@pytest.mark.parametrize("name", sorted(cli.DEMOS))
def test_demos_call_no_oracle(name, monkeypatch):
    """A demo inverts from forward evaluations alone: neither brute-force
    oracle runs, by any route."""
    calls = []
    for mod in (cli, oracle):
        for fn in ("cycle_walk", "orbit_profile", "brute_force_invert"):
            real = getattr(mod, fn)
            monkeypatch.setattr(mod, fn, lambda *a, real=real, fn=fn:
                                calls.append(fn) or real(*a))
    assert run_main("demo", name)[0] == 0
    assert calls == []


def test_stream_maps_share_one_table_build(monkeypatch):
    """The demo's keystream, its one map (evaluated through two window
    maps) and its re-synthesis check all evaluate through one table
    build, and the five window maps of a second load of the shipped
    target reuse it: one build for the whole process."""
    builds = []
    build = FilteredLfsr._build_evaluator

    def spy(lfsr, count):
        builds.append(count)
        return build(lfsr, count)

    monkeypatch.setattr(FilteredLfsr, "_build_evaluator", spy)
    monkeypatch.setattr(targets, "_SHIPPED", {})
    rc, _, _, made = run_main("demo", "stream")
    assert rc == 0 and len(made) == 1 and builds == [20]

    target = load_target("stream")
    F = target.fresh_map()
    windows = [composed_map(target.fresh_map(), i)
               for i in range(1, F.out_width - F.in_width + 2)]
    for G in windows:
        G(BitVec(0x36, 16))
    assert len(windows) == 5 and builds == [20]


def test_shipped_configs_survive_every_demo_and_invert(monkeypatch):
    """All six demos and one invert per shipped target, in one process,
    share one instance per target, and each instance's config still
    equals its JSON file afterwards."""
    monkeypatch.setattr(targets, "_SHIPPED", {})
    for name in sorted(cli.DEMOS):
        assert run_main("demo", name)[0] == 0
    for name in list_targets():
        F = load_target(name).fresh_map()
        y = F(BitVec(1, F.in_width)).hex()
        assert run_main("invert", "--target", name, "--y", y)[0] in (0, 2)
    assert sorted(targets._SHIPPED) == list_targets()
    for name, target in targets._SHIPPED.items():  # arrays come back as lists
        assert (json.loads(json.dumps(target.config, default=dict))
                == json.loads((CONFIG_DIR / f"{name}.json").read_text()))


def test_demo_rsa_cca_rejects_bad_seed_before_the_attack():
    res = run_cli("demo", "rsa-cca", "--seed", "abc")
    _one_line_error(res, "--seed: invalid int value: 'abc'")
    assert res.stdout == ""


def test_invert_identity():
    res = run_cli("invert", "--target", "identity16", "--y", "0xbeef")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["x"] == "0xbeef" and doc["linear_complexity"] == 1


def test_invert_truncated_window_exits_2():
    res = run_cli("invert", "--target", "rsa-demo", "--y", "0x8", "--M", "2")
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["outcome"] == "insufficient-data" and doc["x"] is None


def test_invert_embedding_reports_window():
    curve = CurveParams(q=17, a=2, b=2, base=ECPoint(5, 1))
    y = encode_point(curve, ec_scalar_mul(curve, 7, curve.base))
    res = run_cli("invert", "--target", "ecdlp-f17", "--y", y.hex())
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["window"] == 1
    assert doc["outcome"] == "solution"


def test_invert_budget_exhaustion_exits_2():
    res = run_cli("invert", "--target", "spn-kpa", "--y", "0x3c84",
                  "--max-evals", "5")
    assert res.returncode == 2
    assert "insufficient data" in res.stderr


# `bbi oracle invert` at the budget edge of a 16-bit scan, as the
# per-call scan printed it: one short of the 2^16 inputs, and exactly them.
ORACLE_EDGE = {
    65535: (2, "", "insufficient data: evaluation budget 65535 exhausted\n"),
    65536: (0, '{\n  "target": "spn-kpa(p0=0x5678)",\n  "y": "0x3c84",\n'
               '  "preimages": [\n    "0x0073"\n  ]\n}\n', ""),
}


@pytest.mark.parametrize("budget", sorted(ORACLE_EDGE))
def test_oracle_invert_at_the_budget_edge(budget):
    rc, out, err, made = run_main("oracle", "invert", "--target", "spn-kpa",
                                  "--y", "0x3c84", "--max-evals", str(budget))
    assert (rc, out, err) == ORACLE_EDGE[budget]
    assert [F.evals for F in made] == [budget]


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("invert", "--target", "rsa-demo").returncode == 1
    res = run_cli("invert", "--target", "does-not-exist", "--y", "0x1")
    assert res.returncode == 1
    assert "shipped targets" in res.stderr
    res = run_cli("invert", "--target", "rsa-demo", "--y", "zzz")
    assert res.returncode == 1
    res = run_cli("invert", "--target", "rsa-demo", "--y", "0x10")
    assert res.returncode == 1  # 16 does not fit 4 bits


def test_survey_rejects_embeddings():
    res = run_cli("survey", "--target", "stream")
    assert res.returncode == 1
    assert "embedding" in res.stderr


def _one_line_error(res, text):
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and text in lines[0], res.stderr


def test_survey_rejects_zero_samples():
    res = run_cli("survey", "--target", "dlp-p11", "--samples", "0")
    _one_line_error(res, "--samples must be >= 1")


def test_invert_rejects_max_evals_below_one():
    for budget in ("-5", "0"):
        res = run_cli("invert", "--target", "rsa-demo", "--y", "0x8",
                      "--max-evals", budget)
        _one_line_error(res, f"--max-evals: must be >= 1, got {int(budget)}")


def test_survey_rejects_max_evals_below_one():
    for budget in ("-5", "0"):
        res = run_cli("survey", "--target", "dlp-p11", "--samples", "2",
                      "--max-evals", budget)
        _one_line_error(res, f"--max-evals: must be >= 1, got {int(budget)}")


def test_survey_rejects_widths_too_large_to_sample(tmp_path):
    cfg = tmp_path / "identity100.json"
    cfg.write_text(json.dumps({"family": "identity", "width": 100}))
    res = run_cli("survey", "--target", str(cfg), "--samples", "2")
    _one_line_error(res, "limited to widths <= 62")


def test_stream_config_rejects_scalar_filter_taps(tmp_path):
    doc = json.loads((CONFIG_DIR / "stream.json").read_text())
    doc["filter_taps"] = 5
    cfg = tmp_path / "stream-int-taps.json"
    cfg.write_text(json.dumps(doc))
    res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
    _one_line_error(res, "filter_taps must be a list")


def test_deeply_nested_config_is_a_one_line_error(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 200_000 + "]" * 200_000)
    res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
    _one_line_error(res, "error: target config is nested too deeply")
    assert res.stdout == "" and "Traceback" not in res.stderr


@pytest.mark.parametrize("depth", [300, 700, 990])
def test_a_config_nested_as_deep_as_json_reads_loads_or_is_refused(depth, tmp_path):
    """Arrays and objects nested in a config are frozen when it loads;
    nesting json reads but freezing cannot is a one-line error too."""
    cfg = tmp_path / "nested.json"
    cfg.write_text('{"family": "identity", "width": 4, "x": ' + "[" * depth
                   + "]" * depth + ', "y": ' + '{"a": ' * depth + "1"
                   + "}" * depth + "}")
    rc, out, err, _ = run_main("invert", "--target", str(cfg), "--y", "0x1")
    if rc == 1:
        assert (out, err) == ("", "error: target config is nested too deeply\n")
    else:
        assert rc == 0 and json.loads(out)["x"] == "0x1"


def test_config_rejects_non_string_family(tmp_path):
    """An array or object where a config wants a string or a number is a
    one-line error, and the builders quote it as the JSON wrote it."""
    cfg = tmp_path / "family.json"
    for shape in (["x"], {}):
        cfg.write_text(json.dumps({"family": shape}))
        res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
        _one_line_error(res, f"unknown family {shape!r}; known families: ")
    for shape in ([], {}):
        cfg.write_text(json.dumps({"family": "rsa", "p": shape, "q": 5, "e": 3}))
        res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
        _one_line_error(res, f"got {json.dumps(shape)}")
        assert res.stderr.endswith(f"got {json.dumps(shape)}\n")


def test_spn_config_rejects_plaintext_outside_16_bits(tmp_path):
    doc = json.loads((CONFIG_DIR / "spn-kpa.json").read_text())
    for plaintext in ("0x1ffff", -1):
        doc["plaintext"] = plaintext
        cfg = tmp_path / "spn-wide-plaintext.json"
        cfg.write_text(json.dumps(doc))
        res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
        _one_line_error(res, "plaintext must fit 16 bits")


@pytest.mark.parametrize("name, key", [("spn-kpa", "rounds"), ("stream", "warmup")])
def test_config_requires_rounds_and_warmup(name, key, tmp_path):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    del doc[key]
    cfg = tmp_path / "missing-key.json"
    cfg.write_text(json.dumps(doc))
    rc, out, err, _ = run_main("invert", "--target", str(cfg), "--y", "0x1")
    assert (rc, out, err) == (
        1, "", f"error: family {doc['family']!r} config lacks key {key!r}\n")


FUZZ_POOL = [-1, 0, 1, 1 << 24, (1 << 61) - 1, "0x10", "zz", "", True, None,
             1.5, [], {}]
FUZZ_EXTRA = {"feedback": ["0x80000000000000000000000000000003"],  # X^127+X+1
              "filter_taps": [[1.5], [99], [1, 1]]}


@pytest.mark.parametrize("name", list_targets())
def test_config_fuzz_one_key_at_a_time(name, tmp_path):
    """Every shipped config with one key replaced by each pool value either
    builds a map or raises ValueError, and `bbi invert` turns a rejection
    into exit 1 with one stderr line.  Accepted configs stay out of the
    CLI: a valid but huge width or round count would start a long
    inversion."""
    base = load_target(name).config
    cfg = tmp_path / "fuzz.json"
    for key in base:
        for value in FUZZ_POOL + FUZZ_EXTRA.get(key, []):
            doc = {**base, key: value}
            try:
                build_target(doc).fresh_map()
            except ValueError:
                cfg.write_text(json.dumps(doc))
                rc, out, err, _ = run_main("invert", "--target", str(cfg),
                                           "--y", "0x1")
                assert (rc, out, len(err.splitlines())) == (1, "", 1), (key, value)


@pytest.mark.parametrize("name, key", [("spn-kpa", "rounds"), ("stream", "warmup"),
                                       ("stream", "count"), ("identity16", "width")])
def test_per_evaluation_work_is_bounded(name, key, tmp_path):
    """One evaluation runs every round or clock, and the default window
    holds 4*width terms of width bits; --max-evals bounds neither, so an
    oversized count is refused before the first evaluation."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc[key] = (1 << 61) - 1
    cfg = tmp_path / "oversized.json"
    cfg.write_text(json.dumps(doc))
    rc, out, err, made = run_main("invert", "--target", str(cfg), "--y", "0x1",
                                  "--max-evals", "2")
    assert (rc, out, len(err.splitlines())) == (1, "", 1), err
    assert f"{key} must stay at most" in err
    assert sum(F.evals for F in made) == 0


def test_back_to_back_main_calls_share_no_parse_state():
    """main() reuses one parser; an option given to one call, or a failed
    parse, must not reach the next call."""
    assert cli._build_parser() is cli._build_parser()
    base = ("invert", "--target", "identity16", "--y", "0x5")
    rc, out, _, _ = run_main(*base, "--M", "8")
    assert rc == 0 and json.loads(out)["terms_consumed"] == 8
    for bad in (("--M", "zz"), ("--M", "8", "--bogus")):
        rc, out, err, _ = run_main(*base, *bad)
        assert (rc, out, len(err.splitlines())) == (1, "", 1), err
    rc, out, _, _ = run_main(*base)
    assert rc == 0 and json.loads(out)["terms_consumed"] == 64


CLI_NUMBERS = {  # command -> (base argv, numeric options fuzzed)
    "invert": (("invert", "--target", "spn-kpa", "--y", "0x3c84"),
               ("--M", "--max-evals")),
    "survey": (("survey", "--target", "dlp-p11", "--samples", "2"),
               ("--M", "--max-evals", "--samples", "--lc-threshold", "--seed")),
    "demo": (("demo", "rsa-cca"), ("--max-evals", "--seed")),
}


@pytest.mark.parametrize("command", sorted(CLI_NUMBERS))
def test_cli_number_fuzz_one_option_at_a_time(command):
    """Each numeric option set to each value of the config fuzzer's pool,
    spelled as on a command line, exits 0, 1 or 2 with at most one stderr
    line.  A command with --M runs under --max-evals 50 unless that is
    the option fuzzed, so a huge --M runs dry at once."""
    base, options = CLI_NUMBERS[command]
    for option in options:
        for value in FUZZ_POOL:
            argv = [*base, option, str(value)]
            if "--M" in options and option != "--max-evals":
                argv += ["--max-evals", "50"]
            rc, _, err, _ = run_main(*argv)
            assert rc in (0, 1, 2) and len(err.splitlines()) <= 1, (argv, err)


def test_python_dash_m_bbi_runs_the_cli():
    res = run_cli("invert", "--target", "rsa-demo", "--y", "0x8", module="bbi")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["x"] == "0x2"
    res = run_cli("invert", "--target", "rsa-demo", "--y", "0x8", "--M", "2",
                  module="bbi")
    assert res.returncode == 2


def test_survey_rejects_window_below_two_before_any_evaluation():
    rc, out, err, made = run_main("survey", "--target", "spn-kpa",
                                  "--samples", "3", "--M", "1")
    assert rc == 1 and out == ""
    assert err.splitlines() == ["error: window length M must be >= 2"]
    assert sum(F.evals for F in made) == 0


def test_survey_csv_out_to_unwritable_path(tmp_path):
    """In-process, so the maps can be counted: the bad path is refused
    before the first evaluation."""
    for path in (tmp_path / "missing-dir" / "x.csv", tmp_path):
        rc, out, err, made = run_main("survey", "--target", "dlp-p11",
                                      "--samples", "2", "--csv-out", str(path))
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert str(path) in lines[0]
        assert sum(F.evals for F in made) == 0


def test_survey_summary_and_determinism(tmp_path):
    out = tmp_path / "rows.csv"
    args = ("survey", "--target", "identity16", "--samples", "8",
            "--csv-out", str(out))
    first = run_cli(*args)
    assert first.returncode == 0
    summary = json.loads(first.stdout)
    assert summary["samples"] == 8
    assert summary["inverted"] == 8 and summary["periodic"] == 8
    assert summary["mean_lc"] == 1.0
    assert summary["lc_histogram"] == {"1": 8}
    assert summary["fraction_lc_le_threshold"] == 1.0
    rows = out.read_text().splitlines()
    assert rows[0] == "seed,periodic,LC,period,inverted,evals"
    assert len(rows) == 9
    again = run_cli(*args)
    assert again.stdout == first.stdout
    assert out.read_text() == "\n".join(rows) + "\n"


def test_survey_keeps_no_rows(capsys):
    """Each row is written as it is computed and only counts are kept, so
    the survey's peak allocation does not grow with --samples."""
    load_target("identity16")  # the family's import is not the survey's
    tracemalloc.start()
    try:
        rc = cli.main(["survey", "--target", "identity16", "--samples", "4096",
                       "--csv-out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and json.loads(capsys.readouterr().out)["samples"] == 4096
    assert peak < 1 << 20


def test_survey_seed_comes_from_the_flag_alone():
    args = ("survey", "--target", "identity16", "--samples", "8", "--seed", "3")
    res = run_cli(*args, BBI_SEED="zzz")
    assert res.returncode == 0
    assert res.stdout == run_cli(*args).stdout


def test_survey_exhaustive_small_domain():
    res = run_cli("survey", "--target", "dlp-p11", "--exhaustive")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "seed,periodic,LC,period,inverted,evals"
    # 16 seed rows, then the summary object
    assert len([l for l in lines[1:] if l and not l.startswith(("{", " ", "}"))]) == 16
    summary = json.loads(res.stdout[res.stdout.index("{"):])
    assert summary["samples"] == 16
    assert summary["inverted"] == 10  # exactly the in-range points 1..10


def test_survey_walks_each_seed_only_as_far_as_its_row():
    """Maps come in order: the probe, then per row one orbit map and one
    inversion map.  A periodic row's orbit map stops at the first return
    to the seed, after exactly the printed period; any other row's skips
    the preperiod walk that orbit_profile adds."""
    rc, out, err, made = run_main("survey", "--target", "dlp-p11", "--exhaustive")
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out[:out.index("{")].splitlines()[1:]]
    assert len(rows) == 16 and len(made) == 1 + 2 * len(rows)
    assert made[0].evals == 0
    target = load_target("dlp-p11")
    for (seed, periodic, _, period, _, evals), orbit_map, inv_map in zip(
            rows, made[1::2], made[2::2]):
        assert inv_map.evals == int(evals)
        F = target.fresh_map()
        prof = oracle.orbit_profile(F, BitVec(int(seed, 16), 4))
        if periodic == "true":
            assert orbit_map.evals == int(period) == prof.period
        else:
            assert prof.preperiod > 0 and period == "unknown"
            assert orbit_map.evals == F.evals - prof.period - 2 * prof.preperiod


def test_oracle_invert():
    res = run_cli("oracle", "invert", "--target", "dlp-p11", "--y", "0x9")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["preimages"] == ["0x6"]


def test_oracle_orbit():
    res = run_cli("oracle", "orbit", "--target", "rsa-demo", "--y", "0x8")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["preperiod"] == 0 and doc["period"] == 2


def test_oracle_orbit_rejects_embeddings():
    res = run_cli("oracle", "orbit", "--target", "stream", "--y", "0x0")
    _one_line_error(res, "orbit iteration needs matching in/out widths")
    assert res.stdout == ""


def test_demo_dlp():
    res = run_cli("demo", "dlp")
    assert res.returncode == 0
    assert "recovered x = 6" in res.stdout
    assert "a^x mod p == b: True" in res.stdout


def test_demo_rsa_cca_equivalence():
    res = run_cli("demo", "rsa-cca")
    assert res.returncode == 0
    assert "20/20" in res.stdout


def test_all_demos_succeed():
    for name in ("spn-kpa", "stream", "rsa-decrypt", "rsa-cca", "dlp", "ecdlp"):
        res = run_cli("demo", name)
        assert res.returncode == 0, f"{name}: {res.stdout}\n{res.stderr}"


if __name__ == "__main__":
    INVERT_GOLDEN.write_text("".join(invert_golden_lines()))
    DEMO_GOLDEN.write_text("".join(demo_golden_lines()))
