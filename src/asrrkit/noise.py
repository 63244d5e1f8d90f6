"""Noise propagation to the output phase of an actively boosted pixel.

Device white noise reaches the output as an additive voltage density and
splits evenly between amplitude and phase sidebands.  Low-frequency
(flicker, supply) noise instead modulates the block transconductance, which
moves the boosted loss, which moves the output phase slope; off resonance
that slope wobble turns into phase noise.  Source phase noise passes
through essentially unchanged inside the resonator bandwidth, with a
side-effect of PM-to-AM conversion that nulls at the |S21| minimum.

SSB quantities are in dBc/Hz; sensitivities are plain derivatives.  The
closed forms take A, T, P and LS (absorbed and transmitted power
fractions, phase- and loss-slope factors) from resonator at the state's
coupling ratio state.rho, so they hold at any coupling, except the white
output noise density: its domain is the matched locus rho = MATCHED_RHO.
Every law reads the port impedance from the state's line and the device
slope from alpha_flicker, whose channel-length modulation factor
1 + lam*(vdd - vth) therefore enters the phase noise and both SNRs alike.
"""

from __future__ import annotations

import math

import numpy as np

from .active import AsrrState, boosted_resistance, q_on
from .resonator import (MATCHED_RHO, SrrParams, TransmissionLineSection, absorbed_power_fraction,
                        loss_slope_factor, phase_slope_factor, reflected_impedance,
                        require_positive, srr_branch_impedance, transmitted_power_fraction)

BOLTZMANN = 1.380649e-23  # [J/K]

WHITE_LOCUS_TOL = 1e-6  # largest |rho - 1| the white noise density accepts


def check_flicker_band(band):
    """Raise ValueError unless band = (f_lo, f_hi) [Hz] is finite and ordered."""
    f_lo, f_hi = band
    if not 0 < f_lo < f_hi < math.inf:
        raise ValueError(f"flicker band needs finite f_hi > f_lo > 0, got f_lo = {f_lo:g} Hz, "
                         f"f_hi = {f_hi:g} Hz")


def white_output_noise_density(state: AsrrState, temperature: float) -> float:
    """Output voltage noise density from device channel noise [V^2/Hz] at
    the device temperature [K].

    The four devices' differential noise acts like a single device's
    current density 4kT*gamma*gm across the resonator; referring it into
    the line and taking the one-third circulating split at resonance gives
    (A/4) * Q_on * w0 * L * z0 * (4kT*gamma*gm), A/4 = 1/9.  Derived on the
    matched locus only, so a state off it raises ValueError.
    """
    require_positive(temperature=temperature)
    off_locus = abs(state.rho - MATCHED_RHO)
    if not off_locus <= WHITE_LOCUS_TOL:
        raise ValueError(f"k = {state.srr.k:g} is off the matched locus: |beta_l*k^2*q_on - 1| = "
                         f"{off_locus:.3g}; the white noise density assumes matched coupling")
    i2 = 4.0 * BOLTZMANN * temperature * state.gm.gamma * state.gm.gm0
    return ((absorbed_power_fraction(state.rho) / 4.0) * q_on(state) * state.srr.w0
            * state.srr.lsrr * state.line.z0 * i2)


def detected_power(state: AsrrState, p_in: float) -> float:
    """Carrier power reaching the detector from an incident p_in [W],
    |S21(w0)|^2 * p_in = T(rho) * p_in; 4/9 of the input (-3.52 dB) for a
    matched pixel."""
    require_positive(p_in=p_in)
    return transmitted_power_fraction(state.rho) * p_in


def white_ssb_phase_noise(state: AsrrState, p_in: float, temperature: float) -> float:
    """SSB phase noise from white noise [dBc/Hz]: half the additive noise
    power (the PM share) over the detected carrier power in z0."""
    v2 = white_output_noise_density(state, temperature)
    return 10.0 * math.log10(0.5 * v2 / (state.line.z0 * detected_power(state, p_in)))


def flicker_sres_sensitivity(state: AsrrState) -> float:
    """Phase-slope sensitivity to one device's gate noise voltage
    [s/(rad*V)]: alpha_flicker * L * Q_on^2.

    Chain: the resonator shorts the block at low frequency, so the four
    devices split one's gate noise v as (3/4, -1/4, -1/4, -1/4)*v, which
    redistributes the block gm by slope/4 with each device's slope
    k_wl*(1 + lam*(vdd - vth)); the boosted loss responds as
    R^2/(1 - gm*R)^2, and the phase slope to it as LS*C.
    """
    return alpha_flicker(state) * state.srr.lsrr * q_on(state) ** 2


def supply_sres_sensitivity(state: AsrrState) -> float:
    """Phase-slope sensitivity to supply noise [s/(rad*V)]: twice the
    flicker one.  A supply wiggle v moves the internal nodes by v/2, which
    shifts the block gm by slope/2 * v, twice the slope/4 * v of one
    device's gate noise."""
    return 2.0 * flicker_sres_sensitivity(state)


def _detuned_dbc(s_phi_per_dw2: float, delta_omega_s: float) -> float:
    """10*log10(s_phi_per_dw2 * delta_omega_s^2) [dBc/Hz] at a finite
    sample-induced resonance offset [rad/s]; -inf at zero detuning."""
    if not math.isfinite(delta_omega_s):
        raise ValueError("delta_omega_s must be finite")
    s_phi = s_phi_per_dw2 * delta_omega_s**2
    return 10.0 * math.log10(s_phi) if s_phi > 0.0 else -math.inf


def supply_phase_noise(state: AsrrState, delta_omega_s: float, supply_psd: float) -> float:
    """SSB phase noise from a supply voltage PSD [V^2/Hz] at the block,
    [dBc/Hz]: (dS/dv_dd)^2 * psd * delta_omega_s^2 in the phase domain.

    With a clean external regulator this sits far below the device noise;
    it is not part of any default budget and must be asked for explicitly.
    """
    if not 0.0 <= supply_psd < math.inf:
        raise ValueError(f"supply_psd must be non-negative and finite, got {supply_psd!r}")
    return _detuned_dbc(supply_sres_sensitivity(state) ** 2 * supply_psd, delta_omega_s)


def flicker_phase_noise(state: AsrrState, delta_omega_s: float, offset_freq: float) -> float:
    """SSB phase noise from the four devices' flicker noise [dBc/Hz].

    S_phi = 4 * (dS/dv)^2 * (kf/offset) * delta_omega_s^2 -- quadratic in
    the sample-induced detuning, so it notches at resonance: -inf at zero
    detuning.
    """
    require_positive(offset_freq=offset_freq)
    dsdv = flicker_sres_sensitivity(state)
    return _detuned_dbc(4.0 * dsdv**2 * (state.gm.kf / offset_freq), delta_omega_s)


def input_phase_transfer(q_on_val: float, w0: float, offset):
    """Power gain from source phase noise to output phase noise,
    |1 + j*offset*2Q/w0|^2: unity in-band, rising past the bandwidth
    corner at w0/(2Q).  A float offset gives a float, an array an array."""
    x = offset * 2.0 * q_on_val / w0
    return 1.0 + x * x


def pm_to_am_gain(srr: SrrParams, line: TransmissionLineSection, w_in, offset: float):
    """PM-to-AM conversion gain [dB relative to the input phase noise] of
    the ring-loaded section at carrier frequency w_in (a scalar or an array).

    The two phase sidebands see slightly different transmission magnitudes;
    the residue is amplitude noise: 20*log10(|d|S21|/dw| * offset /
    |S21(w_in)|).  S21 = 2*z0/D with z0 the line's, D = Z + 2*z0 and
    Z = (wM)^2/Z_b the reflected impedance is rational in w, so the slope
    is exact:
    d|S21|/dw = -|S21| * Re(conj(D)*Z')/|D|^2, with
    Z' = 2wM^2/Z_b - (wM)^2*Z_b'/Z_b^2 = Z*(2/w - Z_b'/Z_b) and
    Z_b' = jL - jC/yc^2 (yc = jwC).  Returns -inf where the slope vanishes:
    the null at the |S21| extremum, which the (wM)^2 factor puts just off
    the ring's resonance.  The offset [rad/s] must be positive and finite.
    """
    require_positive(offset=offset)
    w = np.asarray(w_in, dtype=float)
    z = reflected_impedance(srr, line, w)
    yc = 1j * w * srr.csrr
    dz = z * (2.0 / w - (1j * srr.lsrr - 1j * srr.csrr / yc / yc) / srr_branch_impedance(srr, w))
    d = z + 2.0 * line.z0
    with np.errstate(divide="ignore"):
        out = 20.0 * np.log10(np.abs(np.real(np.conj(d) * dz)) * offset / np.abs(d) ** 2)
    return float(out) if out.ndim == 0 else out


def flicker_rms(kf: float, band) -> float:
    """RMS of a kf/f voltage noise density over (f_lo, f_hi):
    sqrt(kf * ln(f_hi/f_lo)) [V]."""
    check_flicker_band(band)
    f_lo, f_hi = band
    return math.sqrt(kf * math.log(f_hi / f_lo))


def alpha_flicker(state: AsrrState) -> float:
    """Flicker sensitivity parameter (LS/4)*k_wl*(1 + lam*(vdd - vth)), LS
    at state.rho: LS/8 times the NMOS and PMOS devices' summed gm slope
    2*k_wl*(1 + lam*(vdd - vth)) to their gate voltage, biased at vdd/2,
    with channel-length modulation."""
    p = state.gm
    return (loss_slope_factor(state.rho) / 4.0) * p.k_wl * (1.0 + p.lam * (p.vdd - p.vth))


def snr_delta_c(state: AsrrState, band) -> float:
    """Detection SNR for a capacitive sample shift against flicker noise:
    1/((4/P) * alpha * v_rms * R_boosted), P at state.rho (4/P = 6 matched),
    v_rms from the block's own kf.

    The sample detuning cancels between signal and noise, so the result is
    independent of how far the resonance actually moves.
    """
    return 1.0 / ((4.0 / phase_slope_factor(state.rho)) * alpha_flicker(state)
                  * flicker_rms(state.gm.kf, band) * boosted_resistance(state))


def snr_delta_r(state: AsrrState, band, delta_r: float) -> float:
    """Detection SNR for a loss sample shift delta_r against flicker noise:
    (LS/4)*delta_r/(alpha * v_rms * R_ring^2), LS at state.rho (LS/4 = 5/18
    matched).  Detuning-independent, like the capacitive case."""
    return ((loss_slope_factor(state.rho) / 4.0) * delta_r
            / (alpha_flicker(state) * flicker_rms(state.gm.kf, band)
               * state.srr.r_parallel() ** 2))
