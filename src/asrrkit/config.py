"""Flat key-value run configs with unit-suffixed values, and the pixel
one config describes.

One assignment per line, '#' comments, values like `f0 = 200 GHz` or
`lsrr = 54.1 pH`; everything normalizes to SI.  Bare numbers are taken
as already-SI.
"""

from __future__ import annotations

import math
import re
from functools import cached_property

from .active import AsrrState
from .resonator import SrrParams, TransmissionLineSection, optimum_k_for_q, require_positive

# optional config keys -> AsrrState.from_targets keywords; absent keys take
# its defaults
STATE_KEYS = {"k": "k", "c_asrr": "c_asrr", "vdd": "vdd", "vth": "vth", "k_wl": "k_wl",
              "kf": "kf", "gamma": "gamma", "lambda": "lam"}


class ConfigError(ValueError):
    """Malformed config file or missing/invalid key."""


_PREFIXES = {
    "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}

# bare unit names (multiplier 1); compound tails like A/V^2 validate on the
# leading unit only
_UNITS = {"Hz", "H", "F", "Ohm", "ohm", "Ω", "V", "W", "S", "A", "m", "rad", "s", "K"}

# a number and its unit; an empty unit means the number is already SI
_QUANTITY = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*)$")


def _unit_multiplier(token: str) -> float:
    base = token.split("/")[0].split("^")[0]
    if base in _UNITS:
        return 1.0
    if len(base) >= 2 and base[0] in _PREFIXES and base[1:] in _UNITS:
        return _PREFIXES[base[0]]
    raise ConfigError(f"unknown unit {token!r}")


def parse_quantity(text: str) -> float:
    """`"200 GHz"` -> 2e11; `"54.1pH"` -> 5.41e-11; bare numbers pass through.
    A value that overflows to infinity is refused."""
    text = text.strip()
    m = _QUANTITY.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    number, unit = m.groups()
    value = float(number) * (_unit_multiplier(unit) if unit else 1.0)
    if not math.isfinite(value):
        raise ConfigError(f"quantity {text!r} is not finite")
    return value


def parse_config_text(text: str) -> dict:
    """Parse config text into {key: float | str}."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        try:
            cfg[key] = parse_quantity(value)
        except ConfigError:
            cfg[key] = value  # non-numeric values stay as strings
    return cfg


def parse_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def require(cfg: dict, key: str) -> float:
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    value = cfg[key]
    if not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be numeric, got {value!r}")
    return float(value)


def optional(cfg: dict, key: str, default):
    value = cfg.get(key, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be numeric, got {value!r}")
    return float(value)


class Pixel:
    """The pixel a config describes, built this one way by every command
    and by the validation suite: the host line at f0 from z0 and beta_l,
    which keeps the z0 every port is referenced to.  The ring and the active state
    are built when first read, so a command that needs only the line reads
    no pixel keys."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        f0, beta_l, z0 = require(cfg, "f0"), require(cfg, "beta_l"), optional(cfg, "z0", 50.0)
        require_positive(f0=f0, z0=z0, beta_l=beta_l)
        self.line = TransmissionLineSection.from_electrical(z0, beta_l, 2.0 * math.pi * f0)

    @cached_property
    def state(self) -> AsrrState:
        """The active pixel: q_off boosted by gm0 or to q_on."""
        cfg = self.cfg
        boost = {"gm0": require(cfg, "gm0")} if "gm0" in cfg else {"q_on": require(cfg, "q_on")}
        extra = {arg: require(cfg, key) for key, arg in STATE_KEYS.items() if key in cfg}
        return AsrrState.from_targets(require(cfg, "f0"), require(cfg, "lsrr"),
                                      require(cfg, "q_off"), line=self.line, **boost, **extra)

    @cached_property
    def ring(self) -> SrrParams:
        """The ring as the line sees it: state.effective_srr() if boosted by
        q_on or gm0, else the ring at q_off with capacitance c_asrr (by
        default resonant with lsrr at f0) and k by default matched at q_off
        at its own resonance 1/sqrt(lsrr*c_asrr)."""
        cfg = self.cfg
        if "q_on" in cfg or "gm0" in cfg:
            return self.state.effective_srr()
        w0 = 2.0 * math.pi * require(cfg, "f0")
        lsrr, q_off = require(cfg, "lsrr"), require(cfg, "q_off")
        c_asrr = optional(cfg, "c_asrr", 1.0 / (w0 * w0 * lsrr))
        k = optional(cfg, "k", None)
        if k is None:
            k = optimum_k_for_q(q_off, self.line, 1.0 / math.sqrt(lsrr * c_asrr))
        return SrrParams(lsrr=lsrr, csrr=c_asrr, q_off=q_off, k=k)
