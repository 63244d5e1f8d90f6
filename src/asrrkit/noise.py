"""Noise propagation to the output phase of an actively boosted pixel.

Device white noise reaches the output as an additive voltage density and
splits evenly between amplitude and phase sidebands.  Low-frequency
(flicker, supply) noise instead modulates the block transconductance, which
moves the boosted loss, which moves the output phase slope; off resonance
that slope wobble turns into phase noise.  Source phase noise passes
through essentially unchanged inside the resonator bandwidth, with a
side-effect of PM-to-AM conversion that nulls at resonance.

SSB quantities are in dBc/Hz; sensitivities are plain derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .active import AsrrState, boosted_resistance, q_on
from .resonator import TwoPortSweep, check_positive

BOLTZMANN = 1.380649e-23  # [J/K]

FLICKER_BAND = (1.0, 1e3)  # default flicker RMS integration band [Hz]


def check_flicker_band(band):
    """Raise ValueError unless band = (f_lo, f_hi) [Hz] is finite and ordered."""
    f_lo, f_hi = band
    if not 0 < f_lo < f_hi < math.inf:
        raise ValueError("flicker band needs finite f_hi > f_lo > 0")


def five_point_derivative(y, x):
    """Five-point-stencil dy/dx on a uniform grid.

    End points fall back to numpy's one-sided/central differences; interior
    points use (y[-2] - 8y[-1] + 8y[+1] - y[+2]) / 12h.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    # rounding of grid points at large absolute frequency jitters the steps
    if np.max(np.abs(h - h[0])) > 1e-6 * h[0]:
        raise ValueError("five-point stencil needs a uniform grid")
    h = h[0]
    d = np.gradient(y, x)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    return d


@dataclass(frozen=True)
class NoiseContext:
    """Operating point for the noise budget of one pixel."""

    state: AsrrState
    z0: float  # port impedance [ohm]
    p_in: float  # incident carrier power [W]
    temperature: float = 290.0  # [K]
    delta_omega_s: float = 0.0  # sample-induced resonance offset [rad/s]
    flicker_band: tuple = FLICKER_BAND  # RMS integration band [Hz]

    def __post_init__(self):
        check_positive(self, "temperature", "p_in", "z0")
        if not math.isfinite(self.delta_omega_s):
            raise ValueError("delta_omega_s must be finite")
        check_flicker_band(self.flicker_band)


@dataclass(frozen=True)
class PhaseNoiseResult:
    offset_freq: float  # [Hz]
    ssb_dbchz: float
    contributor: str  # white | flicker | supply | input

    def __post_init__(self):
        if self.contributor not in ("white", "flicker", "supply", "input"):
            raise ValueError(f"unknown contributor {self.contributor!r}")
        if not math.isfinite(self.ssb_dbchz):
            raise ValueError("ssb must be finite")


def white_output_noise_density(ctx: NoiseContext) -> float:
    """Output voltage noise density from device channel noise [V^2/Hz].

    The four devices' differential noise acts like a single device's
    current density 4kT*gamma*gm across the resonator; referring it into
    the line and taking the one-third circulating split at resonance gives
    (1/9) * Q_on * w0 * L * z0 * (4kT*gamma*gm).
    """
    st = ctx.state
    i2 = 4.0 * BOLTZMANN * ctx.temperature * st.gm.gamma * st.gm.gm0
    return (1.0 / 9.0) * q_on(st) * st.w0 * st.srr.lsrr * ctx.z0 * i2


def detected_power(ctx: NoiseContext) -> float:
    """Carrier power reaching the detector, |S21(w0)|^2 * p_in; 4/9 of the
    input (-3.52 dB) for a matched pixel."""
    return (4.0 / 9.0) * ctx.p_in


def white_ssb_phase_noise(ctx: NoiseContext) -> float:
    """SSB phase noise from white noise [dBc/Hz]: half the additive noise
    power (the PM share) over the detected carrier power in z0."""
    v2 = white_output_noise_density(ctx)
    return 10.0 * math.log10(0.5 * v2 / (ctx.z0 * detected_power(ctx)))


def flicker_gate_decomposition(v_fn: float):
    """Gate-source voltages the four devices see when one device carries a
    low-frequency noise voltage v_fn: at low frequency the resonator shorts
    the block into four diode-connected devices, so the internal node takes
    -v_fn/4 and the split is (3/4, -1/4, -1/4, -1/4)*v_fn."""
    v_x = -v_fn / 4.0
    return (v_fn + v_x, v_x, v_x, v_x)


def gm_slope_vgs(state: AsrrState, which: str) -> float:
    """Transconductance sensitivity to gate-source voltage, K(W/L)*(1 +
    lam*(vdd - vth)) with the device biased at vdd/2."""
    p = state.gm
    kwl = p.kn_wl if which == "n" else p.kp_wl
    return kwl * (1.0 + p.lam * (p.vdd - p.vth))


def gm_slope_vdd(state: AsrrState, which: str) -> float:
    """Transconductance sensitivity to the supply, K(W/L)*(1/2 +
    (lam/2)*(vdd - vth)): a supply wiggle moves the internal nodes by
    half."""
    p = state.gm
    kwl = p.kn_wl if which == "n" else p.kp_wl
    return kwl * (0.5 + (p.lam / 2.0) * (p.vdd - p.vth))


def flicker_sres_sensitivity(state: AsrrState) -> float:
    """Phase-slope sensitivity to one device's gate noise voltage
    [s/(rad*V)], matched coupling: (5/36) * L * Q_on^2 * (slope_n + slope_p).

    Chain: gate noise redistributes the block gm by (slope_n + slope_p)/8,
    the boosted loss responds as R^2/(1 - gm*R)^2, and the phase slope
    responds to the boosted loss as (10/9)*C.
    """
    return (
        (5.0 / 36.0)
        * state.srr.lsrr
        * q_on(state) ** 2
        * (gm_slope_vgs(state, "n") + gm_slope_vgs(state, "p"))
    )


def supply_sres_sensitivity(state: AsrrState) -> float:
    """Phase-slope sensitivity to supply noise [s/(rad*V)], matched
    coupling: (5/9) * L * Q_on^2 * (slope_n + slope_p) with the supply
    slopes."""
    return (
        (5.0 / 9.0)
        * state.srr.lsrr
        * q_on(state) ** 2
        * (gm_slope_vdd(state, "n") + gm_slope_vdd(state, "p"))
    )


def supply_phase_noise(ctx: NoiseContext, supply_psd: float) -> float:
    """SSB phase noise from a supply voltage PSD [V^2/Hz] at the block,
    [dBc/Hz]: (dS/dv_dd)^2 * psd * delta_omega_s^2 in the phase domain.

    With a clean external regulator this sits far below the device noise;
    it is not part of any default budget and must be asked for explicitly.
    """
    if supply_psd < 0:
        raise ValueError("supply PSD must be non-negative")
    s_phi = supply_sres_sensitivity(ctx.state) ** 2 * supply_psd * ctx.delta_omega_s**2
    return 10.0 * math.log10(s_phi) if s_phi > 0.0 else -math.inf


def flicker_phase_noise(ctx: NoiseContext, offset_freq: float, floor_at_white=True) -> float:
    """SSB phase noise from the four devices' flicker noise [dBc/Hz].

    S_phi = 4 * (dS/dv)^2 * (kf/offset) * delta_omega_s^2 -- quadratic in
    the sample-induced detuning, so it notches at resonance; the notch
    bottom is reported at the white-noise level rather than -inf.
    """
    if offset_freq <= 0:
        raise ValueError("offset frequency must be positive")
    dsdv = flicker_sres_sensitivity(ctx.state)
    s_phi = 4.0 * dsdv**2 * (ctx.state.gm.kf / offset_freq) * ctx.delta_omega_s**2
    ssb = 10.0 * math.log10(s_phi) if s_phi > 0.0 else -math.inf
    if floor_at_white:
        return max(ssb, white_ssb_phase_noise(ctx))
    return ssb


def input_phase_transfer(q_on_val: float, w0: float, offset) -> float:
    """Power gain from source phase noise to output phase noise,
    |1 + j*offset*2Q/w0|^2: unity in-band, rising past the bandwidth
    corner at w0/(2Q)."""
    x = np.asarray(offset) * 2.0 * q_on_val / w0
    out = 1.0 + x * x
    return float(out) if out.ndim == 0 else out


def pm_to_am_gain(sweep: TwoPortSweep, w_in: float, offset: float) -> float:
    """PM-to-AM conversion gain [dB relative to the input phase noise].

    The two phase sidebands see slightly different transmission magnitudes;
    the residue is amplitude noise: 20*log10(|d|S21|/dw| * offset /
    |S21(w_in)|).  The magnitude slope comes from a five-point stencil on
    the sweep grid (a closed form is impractical), so w_in must sit at
    least two grid points inside the sweep.  Returns -inf where the slope
    vanishes (the null at resonance).
    """
    freqs = sweep.freqs
    if not freqs[2] <= w_in <= freqs[-3]:
        raise ValueError("w_in too close to the sweep edge for the stencil")
    mag = np.abs(sweep.s21)
    dmag = five_point_derivative(mag, freqs)
    slope = float(np.interp(w_in, freqs, dmag))
    carrier = float(np.interp(w_in, freqs, mag))
    ratio = abs(slope) * offset / carrier
    if ratio == 0.0:
        return -math.inf
    return 20.0 * math.log10(ratio)


def flicker_rms(kf: float, band) -> float:
    """RMS of a kf/f voltage noise density over (f_lo, f_hi):
    sqrt(kf * ln(f_hi/f_lo)) [V]."""
    f_lo, f_hi = band
    if not 0 < f_lo <= f_hi:
        raise ValueError("band needs f_hi >= f_lo > 0")
    return math.sqrt(kf * math.log(f_hi / f_lo))


def alpha_flicker(state: AsrrState) -> float:
    """Flicker sensitivity parameter (5/36)*(Kn*(W/L) + Kp*(W/L)), channel
    length modulation neglected."""
    return (5.0 / 36.0) * (state.gm.kn_wl + state.gm.kp_wl)


def snr_delta_c(state: AsrrState, kf: float, band) -> float:
    """Detection SNR for a capacitive sample shift against flicker noise:
    1/(6 * alpha * v_rms * R_boosted).

    The sample detuning cancels between signal and noise, so the result is
    independent of how far the resonance actually moves.
    """
    return 1.0 / (6.0 * alpha_flicker(state) * flicker_rms(kf, band) * boosted_resistance(state))


def snr_delta_r(state: AsrrState, kf: float, band, delta_r: float) -> float:
    """Detection SNR for a loss sample shift delta_r against flicker noise:
    5*delta_r/(18 * alpha * v_rms * R_ring^2).  Detuning-independent, like
    the capacitive case."""
    return (
        5.0
        * delta_r
        / (
            18.0
            * alpha_flicker(state)
            * flicker_rms(kf, band)
            * state.r_srr_parallel() ** 2
        )
    )
