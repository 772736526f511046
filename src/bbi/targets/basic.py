"""The identity map, a sanity anchor for the engine and the CLI."""

from __future__ import annotations

from ..engine import BlackBoxMap


def identity_map(width: int) -> BlackBoxMap:
    if width < 1:
        raise ValueError("width must be positive")
    return BlackBoxMap(lambda v: v, width, label=f"identity{width}")

