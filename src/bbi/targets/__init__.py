"""Target zoo: concrete map families behind one JSON config schema.

A config is a flat JSON object with a "family" key plus the family's
parameters.  Numeric constants may be JSON integers or strings parsed
with int(s, 0), so hex like "0x2711" reads naturally.  Shipped instances
live in the configs/ directory next to this file; load_target accepts
either a shipped name ("rsa-demo"), which always loads the shipped
config, or a path to a JSON file.

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
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ..engine import BlackBoxMap
from ..gf2 import Gf2Poly

CONFIG_DIR = Path(__file__).parent / "configs"


@dataclass(frozen=True)
class TargetInstance:
    """A built target: its config as a read-only copy (arrays as tuples,
    since every load of a shipped name shares one instance), typed params
    and a map factory."""

    config: Mapping[str, Any]
    params: Any
    factory: Callable[[], BlackBoxMap] = field(repr=False)

    def fresh_map(self) -> BlackBoxMap:
        """A new map over the same instance, with its own eval counter."""
        return self.factory()


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"expected an integer or a numeric string, got {v!r}")
    return v if isinstance(v, int) else int(v, 0)


# Each builder reads the config as parsed from JSON and returns (params,
# factory); it imports its own family module, so a process loads only the
# families its configs name.

def _build_identity(cfg: dict):
    from .basic import identity_map
    width = _as_int(cfg["width"])
    return None, lambda: identity_map(width)


def _build_spn(cfg: dict):
    from .spn import ToySpn
    cipher = ToySpn(rounds=_as_int(cfg["rounds"]))
    plaintext = _as_int(cfg["plaintext"])
    return cipher, lambda: cipher.kpa_map(plaintext)


def _build_stream(cfg: dict):
    from .stream import FilteredLfsr
    taps = cfg["filter_taps"]
    if not isinstance(taps, (list, tuple)):
        raise ValueError(f"filter_taps must be a list of state positions, got {taps!r}")
    lfsr = FilteredLfsr(feedback=Gf2Poly(_as_int(cfg["feedback"])),
                        key_width=_as_int(cfg["key_width"]),
                        iv=_as_int(cfg["iv"]),
                        filter_taps=[_as_int(t) for t in taps],
                        filter_table=_as_int(cfg["filter_table"]),
                        warmup=_as_int(cfg["warmup"]))
    count = _as_int(cfg["count"])
    return lfsr, lambda: lfsr.kpa_map(count)


def _build_rsa(cfg: dict):
    from .rsa import RsaParams, enc_map
    params = RsaParams(_as_int(cfg["p"]), _as_int(cfg["q"]), _as_int(cfg["e"]))
    return params, lambda: enc_map(params)


def _build_rsa_cca(cfg: dict):
    from .rsa import RsaParams, cca_map
    params = RsaParams(_as_int(cfg["p"]), _as_int(cfg["q"]), _as_int(cfg["e"]))
    c = _as_int(cfg["c"])
    return params, lambda: cca_map(params, c)


def _build_dlp(cfg: dict):
    from .dlp import DlpParams, dlp_map
    params = DlpParams(_as_int(cfg["p"]), _as_int(cfg["base"]))
    return params, lambda: dlp_map(params)


def _build_ecdlp(cfg: dict):
    from .ec import CurveParams, ECPoint, ecdlp_map
    curve = CurveParams(q=_as_int(cfg["q"]), a=_as_int(cfg["a"]),
                        b=_as_int(cfg["b"]),
                        base=ECPoint(_as_int(cfg["base_x"]),
                                     _as_int(cfg["base_y"])))
    return curve, lambda: ecdlp_map(curve)


FAMILIES: dict[str, Callable[[dict], tuple]] = {
    "identity": _build_identity,
    "spn": _build_spn,
    "stream": _build_stream,
    "rsa": _build_rsa,
    "rsa-cca": _build_rsa_cca,
    "dlp": _build_dlp,
    "ecdlp": _build_ecdlp,
}


def _frozen(value):
    """A JSON value made read-only, nested ones included: arrays as tuples."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    return value


def build_target(config: dict) -> TargetInstance:
    family = config.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"known families: {', '.join(sorted(FAMILIES))}")
    try:
        return TargetInstance(_frozen(dict(config)), *FAMILIES[family](config))
    except KeyError as missing:
        raise ValueError(f"family {family!r} config lacks key {missing}") from None
    except RecursionError:
        raise ValueError("target config is nested too deeply") from None


def list_targets() -> list[str]:
    return sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


# Shipped name -> its built instance, filled by load_target on first use.
_SHIPPED: dict[str, TargetInstance] = {}


def load_target(name_or_path: str) -> TargetInstance:
    """A bare name that names a shipped config loads that config, whatever
    the working directory holds; anything else is a path ("./dlp-p11").
    A shipped config is built on its first load and every later load of
    its name returns that instance; a path is read and built on every
    call, and a failed load is never remembered."""
    target = _SHIPPED.get(name_or_path)
    if target is not None:
        return target
    path = CONFIG_DIR / f"{name_or_path}.json"
    shipped = Path(name_or_path).name == name_or_path and path.is_file()
    if not shipped:
        path = Path(name_or_path)
        if not path.is_file():
            raise ValueError(f"no target named {name_or_path!r}; "
                             f"shipped targets: {', '.join(list_targets())}")
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except RecursionError:
            raise ValueError("target config is nested too deeply") from None
    if not isinstance(config, dict):
        raise ValueError("a target config must be a JSON object")
    target = build_target(config)
    return _SHIPPED.setdefault(name_or_path, target) if shipped else target
