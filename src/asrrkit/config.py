"""Flat key-value run configs with unit-suffixed values, the one table of
the keys they may hold, and the pixel one config describes.

One assignment per line, '#' comments, values like `f0 = 200 GHz` or
`lsrr = 54.1 pH`; everything normalizes to SI.  Bare numbers are taken
as already-SI.  Every value a command uses is read through read(), which
applies the key's default and bounds from KEYS.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from functools import cached_property
from typing import NamedTuple

from .active import AsrrState, GmBlockParams
from .resonator import SrrParams, TransmissionLineSection, optimum_k_for_q

REQUIRED = "required"  # a default: the key must be given
CAP = 1e100  # every upper bound but a count's: 2*pi*x and its square stay finite


class Key(NamedTuple):
    """A config key: its default, a value or REQUIRED or None (absent: the
    reader derives the value, or the feature stays off; an int default
    makes the key a count, a positive integer); the least value accepted,
    or None for any positive value; the greatest value accepted; and the
    AsrrState.from_targets keyword it sets, if any."""

    default: float | str | None
    lo: float | None = None
    hi: float = CAP
    state: str | None = None


# nonlin's default drives, in units of the pixel's linear_power_limit: the
# span validate's nonlinear-gm check drives too
DRIVE_SPAN = (0.01, 30.0)

_TARGETS = AsrrState.from_targets.__kwdefaults__  # its vdd and vth defaults

# every key some command reads, so that one config can serve all of them;
# any other key is refused as a likely typo
KEYS = {
    # the line, the ring and its boost (q_on or gm0)
    "f0": Key(REQUIRED, state="f0"), "lsrr": Key(REQUIRED, state="lsrr"),
    "q_off": Key(10.0, state="q_off"), "q_on": Key(None, state="q_on"),
    "gm0": Key(None, state="gm0"), "k": Key(None, lo=0.0, state="k"),
    "c_asrr": Key(None, state="c_asrr"), "z0": Key(50.0), "beta_l": Key(REQUIRED),
    # the active block
    "vdd": Key(_TARGETS["vdd"], state="vdd"), "vth": Key(_TARGETS["vth"], state="vth"),
    "k_wl": Key(None, state="k_wl"), "kf": Key(GmBlockParams.kf, state="kf"),
    "gamma": Key(GmBlockParams.gamma, state="gamma"),
    "lambda": Key(GmBlockParams.lam, lo=0.0, state="lam"),
    # nonlin: absent p_in_min and p_in_max span DRIVE_SPAN
    "p_in_min": Key(None), "p_in_max": Key(None), "p_in_points": Key(41, hi=1e6),
    # noise
    "p_in": Key(10e-6), "temperature": Key(290.0), "delta_f_s": Key(20e6, lo=-CAP),
    "offset_min": Key(100.0), "offset_max": Key(1e8), "supply_psd": Key(None),
    "pm_am_offset": Key(1e6),
    # snr and design: the flicker RMS band and the reference loss shift
    "f_lo": Key(1.0), "f_hi": Key(1e3), "delta_r_ref": Key(1.0),
    # design
    "n_pixels": Key(1), "il_budget": Key(REQUIRED), "snr_dc_target": Key(REQUIRED),
    "snr_dr_target": Key(REQUIRED), "kn": Key(REQUIRED), "kp": Key(REQUIRED),
    "kf_area": Key(REQUIRED), "c_per_area": Key(REQUIRED), "l_srr_max": Key(REQUIRED),
}


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


def read(cfg: dict, key: str):
    """cfg's value of key, else the key's default: a float, an int for a
    count, or None for an absent key.  A missing required key, or a value
    not numeric or outside the key's bounds, is a ConfigError that names
    the key."""
    default, lo, hi, _ = KEYS[key]
    if key not in cfg:
        if default is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    value = cfg[key]
    if not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be numeric, got {value!r}")
    count = isinstance(default, int)
    if value > hi:
        need = f"at most {hi:g}"
    elif count and not (value > 0 and value == int(value)):
        need = "a positive integer"
    elif not (value > 0 if lo is None else value >= lo):  # NaN too
        need = "positive and finite" if lo is None else f"at least {lo:g}"
    else:
        return int(value) if count else float(value)
    raise ConfigError(f"{key} must be {need}, got {value!r}")


class Pixel:
    """The pixel a config describes, built this one way by every command
    and by the validation suite: the host line at f0 from z0 and beta_l,
    which keeps the z0 every port is referenced to.  The ring, the active
    state and the design spec are built when first read, so a command that
    needs only the line reads no pixel keys."""

    def __init__(self, cfg: dict):
        unknown = sorted(set(cfg) - KEYS.keys())
        if unknown:
            raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
        if "q_on" in cfg and "gm0" in cfg:
            raise ConfigError("config gives both 'q_on' and 'gm0': give the boost one way")
        self.cfg = cfg
        f0, beta_l, z0 = read(cfg, "f0"), read(cfg, "beta_l"), read(cfg, "z0")
        self.line = TransmissionLineSection.from_electrical(z0, beta_l, 2.0 * math.pi * f0)

    @cached_property
    def state(self) -> AsrrState:
        """The active pixel: q_off boosted by gm0 or to q_on."""
        targets = {key.state: read(self.cfg, name) for name, key in KEYS.items() if key.state}
        return AsrrState.from_targets(line=self.line, **targets)

    @cached_property
    def spec(self):
        """The design.DesignSpec to synthesize: every field but the line and
        the flicker band (f_lo, f_hi) is the config key of its name."""
        from .design import DesignSpec  # design reads KEYS, so it loads after this module

        cfg = self.cfg
        return DesignSpec(line=self.line, flicker_band=(read(cfg, "f_lo"), read(cfg, "f_hi")),
                          **{f.name: read(cfg, f.name) for f in fields(DesignSpec)
                             if f.name in KEYS})

    @cached_property
    def ring(self) -> SrrParams:
        """The ring as the line sees it: state.effective_srr() if boosted by
        q_on or gm0, else the ring at q_off with capacitance c_asrr (by
        default resonant with lsrr at f0) and k by default matched at q_off
        at its own resonance 1/sqrt(lsrr*c_asrr)."""
        cfg = self.cfg
        if "q_on" in cfg or "gm0" in cfg:
            return self.state.effective_srr()
        w0 = 2.0 * math.pi * read(cfg, "f0")
        lsrr, q_off = read(cfg, "lsrr"), read(cfg, "q_off")
        c_asrr = read(cfg, "c_asrr") or 1.0 / (w0 * w0 * lsrr)
        k = read(cfg, "k")
        if k is None:
            k = optimum_k_for_q(q_off, self.line, 1.0 / math.sqrt(lsrr * c_asrr))
        return SrrParams(lsrr=lsrr, csrr=c_asrr, q_off=q_off, k=k)
