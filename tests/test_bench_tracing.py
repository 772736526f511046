"""The benchmark's tracer names bbi functions by module and attribute; a
rename in src would leave traced runs broken, so the names are checked
here against a fresh import.  bench/tracing.py is only read, never
imported, so this test writes nothing under bench/."""

import ast
import json
import subprocess
import sys
from pathlib import Path

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
