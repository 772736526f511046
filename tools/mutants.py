"""Report the one-token mutants of src/bbi/engine.py and src/bbi/oracle.py
that their tests miss.

Each mutant changes one token of the module's syntax tree:
- a comparison operator becomes its negation (`<` and `>=`, `==` and
  `!=`, `is` and `is not`, `in` and `not in`) or its boundary twin
  (`<` and `<=`, `>` and `>=`);
- an integer constant becomes one more or one less;
- `and` becomes `or`, and `or` becomes `and`.

Mutants are numbered through engine.py first, then oracle.py.  The
mutant is written, by `ast.unparse`, into a temporary copy of `src` and
`tests`, and `pytest -x -q` runs there on its module's tests: for
engine.py the engine's tests and the oracle, target and embedding tests,
which drive `BlackBoxMap`; for oracle.py the oracle's tests.  A mutant
that passes every test survives; one that fails a test, or runs past its
time limit, is killed.  Each unmutated module goes through the same
unparse first and must pass, or the sweep stops.  Its tests run three
times, as one run can be slow on a busy machine; the slowest run and
the unmutated differential's set the limits of its mutants: twice
those times, and at least FLOOR seconds.

Each survivor is then run on its module's differential.  An engine
mutant decides a fixed set of windows (random, cycle, recurrence,
late-jump and noise, from the tests' `structured_terms`, widths 1..64,
up to 300 terms) with `minimal_polynomial`, reads each result's
`status` and inverts each solved window with `invert_from_minpoly`.
The windows are drawn once, by the unmutated module, and every run
reads them on stdin: a noise window's vector is drawn orthogonal to the
engine's first projection, which a mutant of the schedule would move.
An oracle mutant walks a fixed set of random table maps (widths 1..10,
half of them with a drawn tail and cycle through the seed) with
`orbit_profile` and `cycle_walk`, and reports each walk's answer and
evaluation count.
`same` means that every line equals the unmutated module's, so the
mutant changes no output there; `DIFFERS` marks a test gap.

`tools/mutant_survivors.txt` lists the known survivors by a key that an
edit elsewhere in the module does not move: the module, the mutated
node's column, the description, and the source text of its line in
backquotes (two identical lines share their keys).  A survivor whose
key the list lacks is marked `NEW`: a gap, or a list gone stale with an
edit of that line.

The script only reports: each module's time limits and a line per
mutant on stderr as it ends (pass, fail or timeout), then one line per
survivor on stdout (number, module and line for reading, then its key),
and exits 0.
It runs JOBS mutants at once.

    python tools/mutants.py          # every mutant
    python tools/mutants.py 17 42    # these mutants
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tools/mutant_survivors.txt"
JOBS = 2
FLOOR = 5  # seconds: the least time limit of a mutant's run

NEGATION = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
            ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}

# Draws the engine differential's windows, one per line: the width,
# then the terms.
ENGINE_WINDOWS = r"""
import random
from helpers import structured_terms
rng = random.Random(2024)
for k in range(3000):
    n, M, p = rng.randint(1, 64), rng.randint(2, 300), rng.randint(1, 40)
    kind = ("random", "cycle", "recurrence", "late-jump", "noise")[k % 5]
    print(n, *structured_terms(kind, n, M, p, rng))
"""

# Decides every window on stdin with minimal_polynomial, reads its status
# and inverts each solved one; prints the answers, so two modules can be
# compared by their output.
ENGINE_DIFFERENTIAL = r"""
import sys
from bbi.engine import GrowingWindow, invert_from_minpoly, minimal_polynomial
for line in sys.stdin:
    n, *terms = map(int, line.split())
    window = GrowingWindow(tuple(terms), n)
    res = minimal_polynomial(window)
    mp, x = res.minpoly, None
    if mp is not None and mp.constant_term:
        x = invert_from_minpoly(window, mp).value
    print(None if mp is None else mp.bits, res.status, x)
"""

# Walks random table maps, half of them with a drawn tail (or none) and
# cycle through the seed; prints each walk's answer and evaluation count.
ORACLE_DIFFERENTIAL = r"""
import random
from bbi.engine import BlackBoxMap
from bbi.gf2 import BitVec
from bbi.oracle import cycle_walk, orbit_profile
rng = random.Random(2024)
for k in range(3000):
    width = rng.randint(1, 10)
    size = 1 << width
    table = [rng.randrange(size) for _ in range(size)]
    start = rng.randrange(size)
    if k % 2:
        cycle = rng.randint(1, size)
        tail = rng.randint(0, size - cycle) if k % 4 == 1 else 0
        path = rng.sample(range(size), tail + cycle)
        for a, b in zip(path, path[1:]):
            table[a] = b
        table[path[-1]] = path[tail]
        start = path[0]
    F, G = (BlackBoxMap(lambda x: BitVec(table[x.value], width), width)
            for _ in range(2))
    prof = orbit_profile(F, BitVec(start, width))
    print(prof.preperiod, prof.period, F.evals,
          *cycle_walk(G, BitVec(start, width)), G.evals)
"""

# (module, the tests its mutants run, its differential, the script that
# draws the differential's stdin or None), in numbering order
MODULES = (
    (Path("src/bbi/engine.py"),
     ("tests/test_engine.py", "tests/test_oracle.py", "tests/test_targets.py",
      "tests/test_embedding.py"),
     ENGINE_DIFFERENTIAL, ENGINE_WINDOWS),
    (Path("src/bbi/oracle.py"), ("tests/test_oracle.py",), ORACLE_DIFFERENTIAL,
     None),
)


def sites(tree: ast.AST) -> list[tuple[int, int | None, object, str]]:
    """(node index in ast.walk order, operator index or None, the new
    operator class or constant, description) of every mutation."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                for table in (NEGATION, BOUNDARY):
                    new = table.get(type(op))
                    if new is not None:
                        found.append((index, k, new, f"op {k}: {SYMBOL[type(op)]}"
                                                     f" -> {SYMBOL[new]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                new = node.value + delta
                found.append((index, None, new, f"{node.value} -> {new}"))
        elif isinstance(node, ast.BoolOp):
            new = ast.Or if isinstance(node.op, ast.And) else ast.And
            found.append((index, None, new,
                          f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}"))
    return found


def mutate(source: str, index: int, k: int | None,
           new: object) -> tuple[str, ast.AST]:
    """The unparsed module with one mutation, and the mutated node."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    if isinstance(node, ast.Compare):
        node.ops[k] = new()
    elif isinstance(node, ast.Constant):
        node.value = new
    else:
        node.op = new()
    return ast.unparse(tree), node


def key(module: Path, source: str, node: ast.AST, description: str) -> str:
    """A mutant's key in SURVIVORS: module, column, description and the
    source text of the mutated line, which no backquote can end early."""
    text = source.splitlines()[node.lineno - 1].strip()
    return f"{module}  col {node.col_offset}  {description}  `{text}`"


def listed_keys() -> set[str]:
    """The keys SURVIVORS lists: each line's text up to its second
    backquote, comments aside."""
    keys = set()
    for line in SURVIVORS.read_text().splitlines():
        if line[:1] != "#" and line.count("`") >= 2:
            keys.add(line[:line.index("`", line.index("`") + 1) + 1])
    return keys


def copy_tree(dest: Path, module: Path, module_text: str) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / module).write_text(module_text)


def run(module: Path, module_text: str, command: list[str],
        timeout: float | None = None,
        stdin: str | None = None) -> tuple[str, str]:
    """('pass' | 'fail' | 'timeout', stdout) of command in a copy of the
    repository whose module is module_text, with src and tests on the
    path, fed `stdin` and stopped after `timeout` seconds."""
    with tempfile.TemporaryDirectory(prefix="bbi-mutant-") as tmp:
        copy_tree(Path(tmp), module, module_text)
        path = os.pathsep.join(str(Path(tmp) / part) for part in ("src", "tests"))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(command, cwd=tmp, env=env, timeout=timeout,
                                  input=stdin, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        return ("pass" if done.returncode == 0 else "fail"), done.stdout


def pytest_command(tests: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *tests]


def main(argv: list[str]) -> int:
    mutants = []  # (module index, node index, operator index, new, description)
    sources = []
    for m, (module, *_) in enumerate(MODULES):
        sources.append((ROOT / module).read_text())
        mutants += [(m, *site) for site in sites(ast.parse(sources[m]))]
    chosen = [int(a) for a in argv] or range(len(mutants))
    listed = listed_keys()

    # per module: the differential's stdin and output; time limits
    inputs, references, limits = {}, {}, {}
    for m in sorted({mutants[number][0] for number in chosen}):
        module, tests, differential, draw = MODULES[m]
        control = ast.unparse(ast.parse(sources[m]))
        slowest = 0.0
        for _ in range(3):
            start = time.perf_counter()
            if run(module, control, pytest_command(tests))[0] != "pass":
                print(f"the unmutated {module} fails its tests after "
                      "unparsing; no mutant was run", file=sys.stderr)
                return 0
            slowest = max(slowest, time.perf_counter() - start)
        if draw:
            inputs[m] = run(module, control, [sys.executable, "-c", draw])[1]
        start = time.perf_counter()
        references[m] = run(module, control, [sys.executable, "-c", differential],
                            stdin=inputs.get(m))[1]
        limits[m] = (max(FLOOR, 2 * slowest),
                     max(FLOOR, 2 * (time.perf_counter() - start)))
        print(f"{module}: time limits {limits[m][0]:.0f} s (tests), "
              f"{limits[m][1]:.0f} s (differential)", file=sys.stderr)

    def one(number: int) -> str | None:
        m, *site, description = mutants[number]
        module, tests, differential, _ = MODULES[m]
        text, node = mutate(sources[m], *site)
        verdict = run(module, text, pytest_command(tests), limits[m][0])[0]
        print(f"mutant {number}: {verdict}", file=sys.stderr, flush=True)
        if verdict != "pass":
            return None
        status, out = run(module, text, [sys.executable, "-c", differential],
                          limits[m][1], inputs.get(m))
        same = "same" if status == "pass" and out == references[m] else "DIFFERS"
        name = key(module, sources[m], node, description)
        new = "" if name in listed else "  NEW"
        return f"{number:4d}  {module}:{node.lineno}  [{same}]{new}  {name}"

    with ThreadPoolExecutor(JOBS) as pool:
        survivors = [line for line in pool.map(one, chosen) if line]
    print(f"{len(survivors)} of {len(chosen)} mutants survive")
    for line in survivors:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
