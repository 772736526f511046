"""Local inversion of maps whose output is wider than the input.

A map F: GF(2)^n -> GF(2)^m with m > n admits no feedback iteration, but
each contiguous n-bit window of its output does: window i (1-based,
i = 1 .. m-n+1) selects output bits i-1 .. i+n-2, and the composed map
x -> window_i(F(x)) is square.  Inverting any one window and checking
the candidate against the full output equation F(x) == y inverts F at y.
Windows are scanned in ascending order, each by engine.local_inversion
(its window grown with grow=True), and the first fully verified
candidate wins.
"""

from __future__ import annotations

from dataclasses import replace

from .engine import (INSUFFICIENT_DATA, BlackBoxMap, InversionReport,
                     local_inversion)
from .gf2 import BitVec


def project(y: BitVec, n: int, i: int) -> BitVec:
    """Window i of y: bits i-1 .. i+n-2 (windows are 1-based)."""
    if not 1 <= i <= y.width - n + 1:
        raise ValueError(f"window {i} out of range for width {y.width}")
    return BitVec((y.value >> (i - 1)) & ((1 << n) - 1), n)


def composed_map(F: BlackBoxMap, i: int) -> BlackBoxMap:
    """The square map x -> window_i(F(x)); evaluations count against F too."""
    n = F.in_width
    if not 1 <= i <= F.out_width - n + 1:
        raise ValueError(f"window {i} out of range")
    # F checks its output width, so each evaluation only shifts and masks
    shift, mask = i - 1, (1 << n) - 1
    return BlackBoxMap(lambda x: BitVec((F(x).value >> shift) & mask, n), n,
                       label=f"{F.label}[window {i}]")


def invert_embedding(F: BlackBoxMap, y: BitVec, M: int | None = None, *,
                     grow: bool = False
                     ) -> tuple[InversionReport, int | None,
                                list[tuple[str, BitVec, InversionReport]]]:
    """Scan the windows of F: (report, winning window index, passed).

    Each window runs local_inversion(window map, projected seed, M,
    grow=grow); a window's candidate is accepted only if the full
    equation F(x) == y holds on a fresh evaluation.  map_evals in the
    report counts every evaluation of F across all windows.  passed
    holds (window map label, projected seed, report) for each window
    scanned before the winner, window 1 first, or for every window when
    none wins (index None).
    """
    if F.out_width <= F.in_width:
        raise ValueError("embedding inversion needs out_width > in_width")
    if y.width != F.out_width:
        raise ValueError("y width does not match the map output")
    n = F.in_width
    before = F.evals
    passed = []
    for i in range(1, F.out_width - n + 2):
        G, seed = composed_map(F, i), project(y, n, i)
        report = local_inversion(G, seed, M, grow=grow)
        if report.solved and F(report.x) == y:
            return replace(report, map_evals=F.evals - before), i, passed
        passed.append((G.label, seed, report))
    return (InversionReport(INSUFFICIENT_DATA, None, None,
                            report.terms_consumed, F.evals - before), None, passed)
