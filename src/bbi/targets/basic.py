"""The identity map, a sanity anchor for the engine and the CLI."""

from __future__ import annotations

from ..engine import BlackBoxMap

# The default window holds 4*width terms of width bits each, memory that
# --max-evals does not bound.
WIDTH_LIMIT = 1024


def identity_map(width: int) -> BlackBoxMap:
    if width < 1:
        raise ValueError("width must be positive")
    if width > WIDTH_LIMIT:
        raise ValueError(f"width must stay at most {WIDTH_LIMIT}")
    return BlackBoxMap(lambda v: v, width, label=f"identity{width}")
