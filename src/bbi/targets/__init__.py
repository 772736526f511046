"""Target zoo: concrete map families behind one JSON config schema.

A config is a flat JSON object with a "family" key plus the family's
parameters.  Numeric constants may be JSON integers or strings parsed
with int(s, 0), so hex like "0x2711" reads naturally.  Shipped instances
live in the configs/ directory next to this file; load_target accepts
either a shipped name ("rsa-demo") or a path to a JSON file.

Families and their required keys:
  identity  width
  spn       rounds, plaintext
  stream    feedback, key_width, iv, filter_taps, filter_table, warmup, count
  rsa       p, q, e
  rsa-cca   p, q, e, c
  dlp       p, base
  ecdlp     q, a, b, base_x, base_y

Extra keys (demo_key, demo_k, demo_y, ...) ride along in `config` for
the demos; the builders ignore them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..engine import BlackBoxMap
from ..gf2 import Gf2Poly
from .basic import identity_map
from .dlp import DlpParams, dlp_map
from .ec import CurveParams, ECPoint, ecdlp_map
from .rsa import RsaParams, cca_map, enc_map
from .spn import ToySpn
from .stream import FilteredLfsr

CONFIG_DIR = Path(__file__).parent / "configs"


@dataclass(frozen=True)
class TargetInstance:
    """A built target: family name, raw config, typed params, map factory."""

    family: str
    config: dict
    params: Any
    factory: Callable[[], BlackBoxMap] = field(repr=False)

    def fresh_map(self) -> BlackBoxMap:
        """A new map over the same instance, with its own eval counter."""
        return self.factory()


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"expected an integer or a numeric string, got {v!r}")
    return v if isinstance(v, int) else int(v, 0)


def _build_identity(cfg: dict) -> TargetInstance:
    width = _as_int(cfg["width"])
    return TargetInstance("identity", cfg, None, lambda: identity_map(width))


def _build_spn(cfg: dict) -> TargetInstance:
    cipher = ToySpn(rounds=_as_int(cfg["rounds"]))
    plaintext = _as_int(cfg["plaintext"])
    return TargetInstance("spn", cfg, cipher, lambda: cipher.kpa_map(plaintext))


def _build_stream(cfg: dict) -> TargetInstance:
    taps = cfg["filter_taps"]
    if not isinstance(taps, list):
        raise ValueError(f"filter_taps must be a list of state positions, got {taps!r}")
    lfsr = FilteredLfsr(feedback=Gf2Poly(_as_int(cfg["feedback"])),
                        key_width=_as_int(cfg["key_width"]),
                        iv=_as_int(cfg["iv"]),
                        filter_taps=[_as_int(t) for t in taps],
                        filter_table=_as_int(cfg["filter_table"]),
                        warmup=_as_int(cfg["warmup"]))
    count = _as_int(cfg["count"])
    return TargetInstance("stream", cfg, lfsr, lambda: lfsr.kpa_map(count))


def _build_rsa(cfg: dict) -> TargetInstance:
    params = RsaParams(_as_int(cfg["p"]), _as_int(cfg["q"]), _as_int(cfg["e"]))
    return TargetInstance("rsa", cfg, params, lambda: enc_map(params))


def _build_rsa_cca(cfg: dict) -> TargetInstance:
    params = RsaParams(_as_int(cfg["p"]), _as_int(cfg["q"]), _as_int(cfg["e"]))
    c = _as_int(cfg["c"])
    return TargetInstance("rsa-cca", cfg, params, lambda: cca_map(params, c))


def _build_dlp(cfg: dict) -> TargetInstance:
    params = DlpParams(_as_int(cfg["p"]), _as_int(cfg["base"]))
    return TargetInstance("dlp", cfg, params, lambda: dlp_map(params))


def _build_ecdlp(cfg: dict) -> TargetInstance:
    curve = CurveParams(q=_as_int(cfg["q"]), a=_as_int(cfg["a"]),
                        b=_as_int(cfg["b"]),
                        base=ECPoint(_as_int(cfg["base_x"]),
                                     _as_int(cfg["base_y"])))
    return TargetInstance("ecdlp", cfg, curve, lambda: ecdlp_map(curve))


FAMILIES: dict[str, Callable[[dict], TargetInstance]] = {
    "identity": _build_identity,
    "spn": _build_spn,
    "stream": _build_stream,
    "rsa": _build_rsa,
    "rsa-cca": _build_rsa_cca,
    "dlp": _build_dlp,
    "ecdlp": _build_ecdlp,
}


def build_target(config: dict) -> TargetInstance:
    family = config.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"known families: {', '.join(sorted(FAMILIES))}")
    try:
        return FAMILIES[family](config)
    except KeyError as missing:
        raise ValueError(f"family {family!r} config lacks key {missing}") from None


def list_targets() -> list[str]:
    return sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def load_target(name_or_path: str) -> TargetInstance:
    path = Path(name_or_path)
    if not path.is_file():
        shipped = CONFIG_DIR / f"{name_or_path}.json"
        if not shipped.is_file():
            raise ValueError(f"no target named {name_or_path!r}; "
                             f"shipped targets: {', '.join(list_targets())}")
        path = shipped
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except RecursionError:
            raise ValueError("target config is nested too deeply") from None
    if not isinstance(config, dict):
        raise ValueError("a target config must be a JSON object")
    return build_target(config)
