"""Command-line interface, exercised through subprocesses, or in-process
where a test counts map evaluations or patches the solver."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bbi import cli, engine
from bbi.engine import INSUFFICIENT_DATA, InversionReport
from bbi.gf2 import BitVec
from bbi.targets import (CONFIG_DIR, TargetInstance, build_target,
                          list_targets, load_target)
from bbi.targets.ec import (CurveParams, ECPoint, ec_scalar_mul, encode_point)
from bbi.targets.stream import FilteredLfsr


def run_cli(*args, seed_env=None, module="bbi.cli"):
    env = os.environ.copy()
    env.pop("BBI_SEED", None)
    if seed_env is not None:
        env["BBI_SEED"] = seed_env
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env)


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
    """`bbi argv` in-process, with BBI_SEED unset.

    Returns the exit code, stdout, stderr and every map the targets
    handed out during the run.
    """
    out, err = io.StringIO(), io.StringIO()
    seed_env = os.environ.pop("BBI_SEED", None)
    try:
        with counted_maps() as made, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        if seed_env is not None:
            os.environ["BBI_SEED"] = seed_env
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
    """`bbi invert` on every golden case and every demo, in-process:
    minimal_polynomial decides every window, solved or not, and nothing
    on those paths reads the rank evidence, so the Hankel scan never
    runs."""
    scans, unsolved = [], []
    solve, scan = engine.minimal_polynomial, engine._hankel_scan

    def counted_scan(seq):
        scans.append(seq)
        return scan(seq)

    def counted_solve(seq):
        res = solve(seq)
        unsolved.append(res.minpoly is None)
        return res

    monkeypatch.setattr(engine, "_hankel_scan", counted_scan)
    monkeypatch.setattr(engine, "minimal_polynomial", counted_solve)
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


# The pattern by which bench/workloads.py finds a demo's claimed x.
RECOVERED = re.compile(r"(?:raw x|recovered x|recovered plaintext m|"
                       r"recovered exponent x) = (0x[0-9a-f]+|\d+)")


@pytest.mark.parametrize("name", sorted(cli.DEMOS))
def test_demo_failure_paths(name, monkeypatch):
    """Neither path is reachable with the shipped configs: an unsolved
    inversion, and a "solved" x that the demo's own check must reject."""
    solve = cli._solve

    def unsolved(F, y, M):
        return InversionReport(INSUFFICIENT_DATA, None, None, M, 0), None

    monkeypatch.setattr(cli, "_solve", unsolved)
    rc, out, err, _ = run_demo(name)
    assert rc == 2 and err == ""
    assert len([l for l in out.splitlines() if "insufficient data" in l]) == 1
    assert not RECOVERED.search(out)

    def wrong_x(F, y, M):
        report, window = solve(F, y, M)
        assert report.solved
        x = BitVec(report.x.value ^ 1, report.x.width)
        return replace(report, x=x), window

    monkeypatch.setattr(cli, "_solve", wrong_x)
    rc, out, err, _ = run_demo(name)
    verdict = out.splitlines()[-1]
    assert rc == 2 and err == ""
    if name == "rsa-cca":
        assert "/20 random t" in verdict and "20/20" not in verdict
    else:
        assert verdict.endswith(": False")


@pytest.mark.parametrize("name", ["dlp", "rsa-cca", "rsa-decrypt", "spn-kpa"])
def test_demo_walks_the_orbit_once(name, monkeypatch):
    """One map walks the orbit, and its window starts cost nothing more;
    one map inverts, spending M-1 window terms and one check."""
    seeds = []
    profile = cli.orbit_profile

    def spy(F, y, store=False):
        seeds.append(y)
        return profile(F, y, store)

    monkeypatch.setattr(cli, "orbit_profile", spy)
    rc, _, _, made = run_main("demo", name)
    assert rc == 0 and len(seeds) == 1
    walk, inversion = made
    G = load_target(cli.DEMOS[name][0]).fresh_map()
    prof = profile(G, seeds[0])
    assert walk.evals == G.evals
    assert inversion.evals == 2 * prof.period + 2


def test_stream_demo_inverts_only_the_periodic_window(monkeypatch):
    """Window 1 is walked and rejected, never inverted; window 2 is
    inverted once, from its own walk's M = 598."""
    windows = []
    compose = cli.composed_map

    def spy(F, i):
        windows.append((i, F))
        return compose(F, i)

    monkeypatch.setattr(cli, "composed_map", spy)
    rc, _, _, made = run_main("demo", "stream")
    assert rc == 0
    assert [i for i, _ in windows] == [1, 2, 2]
    assert [id(F) for _, F in windows] == [id(F) for F in made]
    assert windows[2][1].evals == 598


def test_stream_maps_share_one_table_build(monkeypatch):
    """The demo's keystream, its window maps and its re-synthesis check
    all evaluate through one table build, and so do the five window maps
    of one loaded target."""
    builds = []
    build = FilteredLfsr._build_evaluator

    def spy(lfsr, count):
        builds.append(count)
        return build(lfsr, count)

    monkeypatch.setattr(FilteredLfsr, "_build_evaluator", spy)
    rc, _, _, made = run_main("demo", "stream")
    assert rc == 0 and len(made) == 3 and builds == [20]

    target = load_target("stream")
    F = target.fresh_map()
    windows = [cli.composed_map(target.fresh_map(), i)
               for i in range(1, F.out_width - F.in_width + 2)]
    for G in windows:
        G(BitVec(0x36, 16))
    assert len(windows) == 5 and builds == [20, 20]


def test_demo_rsa_cca_rejects_bad_seed_before_the_attack():
    res = run_cli("demo", "rsa-cca", seed_env="abc")
    _one_line_error(res, "BBI_SEED must be an integer, got 'abc'")
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
    res = run_cli("survey", "--target", "identity16", seed_env="zzz")
    assert res.returncode == 1


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


def test_config_rejects_non_string_family(tmp_path):
    for shape in (["x"], {}):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps({"family": shape}))
        res = run_cli("invert", "--target", str(cfg), "--y", "0x1")
        _one_line_error(res, f"unknown family {shape!r}; known families: ")


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
    first = run_cli(*args, seed_env="0")
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
    again = run_cli(*args, seed_env="0")
    assert again.stdout == first.stdout
    assert out.read_text() == "\n".join(rows) + "\n"


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
    assert res.returncode == 1


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
