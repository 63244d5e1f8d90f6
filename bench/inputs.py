"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program comes from here: pixel config
files and ``--grid`` arguments.  The same seed gives byte-identical
inputs.  Every draw stays inside the documented model domains:

- the matched locus ``beta_l * k^2 * q_on = 1`` (``k`` is left to the
  CLI's matched default, so the locus holds by construction);
- boost below oscillation, ``gm * R = 1 - q_off/q_on`` in [0.4, 0.9];
- design targets that the synthesizer can meet: the insertion-loss budget
  is the one that puts the coupling cap on the pixel's own ``q_on``, and
  the SNR targets sit within a factor of three of what the
  inductance-ceiling design reaches (both SNRs rise as the ring loss is
  lowered, so the loss search always ends);
- ``--grid`` bounds with ``0 < START < f0 < STOP`` and ``N >= 2``.

Values are written with unit suffixes, and each ``Pixel`` field holds the
float the config parser makes of that text (number times prefix), so the
benchmark's reference computations see the same inputs as the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from asrrkit.design import DesignSpec, synthesize
from asrrkit.resonator import K_GEOMETRIC_LIMIT, TransmissionLineSection

# A seed no change was tuned on; later changes must also pass it.
HELD_OUT_SEED = 7_129_031

EXPORT_POINTS = 100_000
CLI_MIX_PIXELS = 3

# Ranges of validate._random_matched, the suite's own matched draw.
F0_HZ = (50e9, 300e9)
Z0_OHM = (40.0, 75.0)
Q_ON = (20.0, 300.0)
BETA_L_MAX = 0.5
LSRR_H = (20e-12, 200e-12)
# Boost ratio q_off/q_on, so gm*R = 1 - ratio stays in [0.4, 0.9].
Q_OFF_SHARE = (0.1, 0.6)

# Synthesis technology constants of validate.reference_design_spec.
DESIGN_TECH = {"kn": 250e-6, "kp": 250e-6, "vth": 0.3, "vdd": 1.0,
               "kf_area": 3.9e-23, "c_per_area": 0.015}


def _quantity(value: float, unit: str, scale: float):
    """(config text, parsed value) for a number written in `unit`, where
    `scale` is the unit's SI multiplier."""
    text = f"{value / scale:.12g}"
    return f"{text} {unit}", float(text) * scale


@dataclass(frozen=True)
class Pixel:
    """One matched pixel; fields hold the values the config parser yields."""

    f0: float
    lsrr: float
    q_off: float
    q_on: float
    z0: float
    beta_l: float
    text: str  # the config file, pixel keys only

    @property
    def w0(self) -> float:
        return 2.0 * math.pi * self.f0


def draw_pixel(rng: np.random.Generator, k_max: float = 1.0) -> Pixel:
    """A pixel on the matched locus whose matched coupling is at most k_max."""
    q_lo = max(Q_ON[0], 1.0 / (BETA_L_MAX * k_max * k_max) * 1.01)
    q_on = rng.uniform(q_lo, Q_ON[1])
    beta_lo = max(0.08, 2.8 / q_on, 1.0 / (q_on * k_max * k_max))
    fields = {
        "f0": _quantity(rng.uniform(*F0_HZ), "GHz", 1e9),
        "lsrr": _quantity(rng.uniform(*LSRR_H), "pH", 1e-12),
        "q_off": _quantity(q_on * rng.uniform(*Q_OFF_SHARE), "", 1.0),
        "q_on": _quantity(q_on, "", 1.0),
        "z0": _quantity(rng.uniform(*Z0_OHM), "ohm", 1.0),
        "beta_l": _quantity(rng.uniform(beta_lo, BETA_L_MAX), "rad", 1.0),
    }
    text = "".join(f"{key} = {txt.strip()}\n" for key, (txt, _) in fields.items())
    return Pixel(text=text, **{key: val for key, (_, val) in fields.items()})


def design_keys(pixel: Pixel, rng: np.random.Generator) -> str:
    """Synthesis keys for `pixel`: the design lands on its (k, q_on)."""
    line = TransmissionLineSection.from_electrical(pixel.z0, pixel.beta_l, pixel.w0,
                                                   length=30e-6)
    k = 1.0 / math.sqrt(pixel.beta_l * pixel.q_on)
    r_off = pixel.w0 * k * k * pixel.q_off * line.ltl
    il_budget = float(f"{r_off / (r_off + 2.0 * pixel.z0):.12g}")
    spec = DesignSpec(f0=pixel.f0, n_pixels=1, il_budget=il_budget, snr_dc_target=1e-9,
                      snr_dr_target=1e-9, delta_r_ref=1.0, z0=pixel.z0, line=line,
                      l_srr_max=pixel.lsrr, q_off=pixel.q_off, **DESIGN_TECH)
    ceiling = synthesize(spec)  # the design at the inductance ceiling
    snr_dc = float(f"{ceiling.snr_dc * rng.uniform(1 / 3, 3.0):.6g}")
    snr_dr = float(f"{ceiling.snr_dr * rng.uniform(1 / 3, 3.0):.6g}")
    synthesize(replace(spec, snr_dc_target=snr_dc, snr_dr_target=snr_dr))  # raises if infeasible
    keys = {"n_pixels": "1", "il_budget": repr(il_budget),
            "snr_dc_target": repr(snr_dc), "snr_dr_target": repr(snr_dr),
            "delta_r_ref": "1 ohm", "kn": "250 uA/V^2", "kp": "250 uA/V^2",
            "vth": "300 mV", "vdd": "1 V", "kf_area": "3.9e-23", "c_per_area": "0.015",
            "l_srr_max": f"{pixel.lsrr!r}"}
    return "".join(f"{key} = {val}\n" for key, val in keys.items())


@dataclass(frozen=True)
class ExportInput:
    pixel: Pixel
    grid: str  # --grid START:STOP:N in Hz
    f_lo: float
    f_hi: float
    n: int


def export_input(seed: int) -> ExportInput:
    """A matched pixel from validate._random_matched's ranges and a dense
    grid of EXPORT_POINTS points across +-4 bandwidths of its resonance."""
    rng = np.random.default_rng([seed, 1])
    pixel = draw_pixel(rng)
    half = 4.0 * pixel.f0 / pixel.q_on
    f_lo, f_hi = float(f"{pixel.f0 - half:.12g}"), float(f"{pixel.f0 + half:.12g}")
    if not 0.0 < f_lo < pixel.f0 < f_hi:
        raise ValueError(f"grid {f_lo}:{f_hi} does not bracket f0 = {pixel.f0}")
    return ExportInput(pixel, f"{f_lo!r}:{f_hi!r}:{EXPORT_POINTS}", f_lo, f_hi, EXPORT_POINTS)


def cli_mix_pixels(seed: int) -> list[tuple[Pixel, str]]:
    """CLI_MIX_PIXELS matched pixels, each with a config that also carries
    feasible synthesis targets.  `design` needs a realizable coupling, so
    the matched k stays below the geometric limit."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(CLI_MIX_PIXELS):
        pixel = draw_pixel(rng, k_max=K_GEOMETRIC_LIMIT)
        out.append((pixel, pixel.text + design_keys(pixel, rng)))
    return out
