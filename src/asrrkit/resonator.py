"""Passive split-ring resonator on a host transmission line.

Models an SRR magnetically coupled to a section of transmission line:
the impedance the loaded section presents, the coupling ratio rho = R'/z0
of the resistance the ring reflects into the line at resonance,
two-port S-parameters, optimum-coupling and insertion-loss relations, and
the output phase-slope quantities used for phase detection.

Conventions: SI units throughout, angular frequency `w` in rad/s.  All
functions are pure; frequency arguments accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Magnetic coupling achievable by placing a ring next to the line saturates
# around this value; design.synthesize refuses a coupling beyond it.
K_GEOMETRIC_LIMIT = 0.25

# Coupling ratio rho = R'/z0 on the matched locus beta_l*k^2*Q = 1, where the
# reflected resistance R' = beta_l*k^2*Q*z0 equals the line impedance.
MATCHED_RHO = 1.0


def require_positive(**values):
    """Raise ValueError unless each keyword value is positive and finite;
    written so that NaN fails too."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_positive(obj, *names):
    """require_positive for the named attributes of obj."""
    require_positive(**{name: getattr(obj, name) for name in names})


@dataclass(frozen=True)
class TransmissionLineSection:
    """Lumped model of the line segment a single resonator couples to.  z0
    is the impedance the section was built from, kept bit for bit: every
    port, law and mesh reads it, none re-derives it from ltl and ctl."""

    z0: float  # characteristic impedance [ohm], sqrt(ltl/ctl) to rounding
    ltl: float  # segment inductance [H]
    ctl: float  # segment capacitance [F]
    length: float  # physical segment length [m]; no model reads it

    def __post_init__(self):
        check_positive(self, "z0", "ltl", "ctl", "length")
        if not math.isclose(self.z0 * self.z0 * self.ctl, self.ltl, rel_tol=1e-12):
            raise ValueError(f"z0 = {self.z0!r} ohm is not sqrt(ltl/ctl) = "
                             f"{math.sqrt(self.ltl / self.ctl)!r} ohm")

    def beta_l(self, w):
        """Electrical length beta*l [rad] of the segment at w."""
        return w * math.sqrt(self.ltl * self.ctl)

    @classmethod
    def from_electrical(cls, z0, beta_l, w, length=1.0):
        """Build a section from characteristic impedance and electrical
        length at a given angular frequency."""
        if beta_l <= 0 or z0 <= 0 or w <= 0:
            raise ValueError("z0, beta_l and w must be positive")
        section = cls(z0=float(z0), ltl=z0 * beta_l / w, ctl=beta_l / (z0 * w), length=length)
        # ltl*ctl = (beta_l/w)^2 can fall below the doubles while each factor does not
        if not math.isclose(section.beta_l(w), beta_l, rel_tol=1e-12):
            raise ValueError(f"beta_l = {beta_l!r} rad at w = {w:g} rad/s is past what the "
                             f"section holds: its ltl*ctl gives back {section.beta_l(w)!r} rad")
        return section


@dataclass(frozen=True)
class SrrParams:
    """Split-ring resonator: lumped LC with series loss and line coupling.

    Loss is stored as the unloaded quality factor q_off; the series loss
    resistance w0*L/q_off and the parallel form w0*L*q_off are derived on
    demand and never stored.
    """

    lsrr: float  # ring inductance [H]
    csrr: float  # ring capacitance [F]
    q_off: float  # unloaded quality factor
    k: float  # magnetic coupling coefficient to the line

    def __post_init__(self):
        check_positive(self, "lsrr", "csrr", "q_off")
        if not 0.0 <= self.k < 1.0:
            raise ValueError("coupling coefficient k must satisfy 0 <= k < 1")

    @property
    def w0(self) -> float:
        """Resonance frequency 1/sqrt(LC) [rad/s]."""
        return 1.0 / math.sqrt(self.lsrr * self.csrr)

    def r_series(self) -> float:
        """Series loss resistance w0*L/Q [ohm], frequency-independent."""
        return self.w0 * self.lsrr / self.q_off

    def r_parallel(self) -> float:
        """Parallel loss resistance w0*L*Q [ohm] at resonance."""
        return self.w0 * self.lsrr * self.q_off


@dataclass
class TwoPortSweep:
    """Frequency-indexed S-parameter samples of a symmetric two-port."""

    freqs: np.ndarray  # angular frequencies [rad/s], strictly increasing
    s11: np.ndarray
    s21: np.ndarray
    z0_ref: float  # port reference impedance [ohm]

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.s11 = np.asarray(self.s11, dtype=complex)
        self.s21 = np.asarray(self.s21, dtype=complex)
        if self.freqs.ndim != 1 or len(self.freqs) < 2:
            raise ValueError("sweep needs a 1-D grid of at least two frequencies")
        if not np.all(np.isfinite(self.freqs)):
            raise ValueError("sweep frequencies must be finite")
        if not np.all(np.diff(self.freqs) > 0):  # NaN fails too
            raise ValueError("sweep frequencies must be strictly increasing")
        if self.s11.shape != self.freqs.shape or self.s21.shape != self.freqs.shape:
            raise ValueError("s11/s21 must match the frequency grid")

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.freqs / (2.0 * np.pi)

    def s21_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s21))

    def s21_phase(self) -> np.ndarray:
        """Unwrapped transmission phase [rad]."""
        return np.unwrap(np.angle(self.s21))


def mutual_inductance(srr: SrrParams, line: TransmissionLineSection) -> float:
    """M = k*sqrt(L_line * L_ring) [H]."""
    return srr.k * math.sqrt(line.ltl * srr.lsrr)


def coupling_ratio(srr: SrrParams, line: TransmissionLineSection) -> float:
    """rho = R'/z0: the resistance (w0*M)^2/r_series the ring reflects into
    the line at resonance, over the line's z0.  That is beta_l*k^2*Q, so
    MATCHED_RHO on the matched locus and 0 without coupling."""
    return line.beta_l(srr.w0) * srr.k**2 * srr.q_off


# The impedance and two-port laws over plain ring values, which broadcast:
# arrays with one entry per ring evaluate a stack of rings in one call, each
# entry as the object-level functions below evaluate that ring alone.

def branch_impedance(r, lsrr, csrr, w, gm_neg=0.0):
    """The ring branch r + jwL + 1/(jwC - gm_neg): series loss r, inductance
    lsrr and capacitance csrr, with an optional negative conductance gm_neg
    [S] across the capacitor (the small-signal footprint of a cross-coupled
    pair)."""
    yc = 1j * w * csrr - gm_neg
    return r + 1j * w * lsrr + 1.0 / yc


def coupled_impedance(m, w, z_branch):
    """reflected_impedance over values: (wM)^2 over the branch impedance."""
    return (w * m) ** 2 / z_branch


def series_s(z, z0):
    """(S11, S21) of a series impedance z between z0 ports:
    Z/(Z + 2*z0) and 2*z0/(Z + 2*z0)."""
    denom = z + 2.0 * z0
    return z / denom, 2.0 * z0 / denom


def reflected_impedance(srr: SrrParams, line: TransmissionLineSection, w):
    """Impedance the resonator reflects into the line: (wM)^2 / Z_branch.

    Exact at every frequency; at resonance it is the real
    R' = coupling_ratio(srr, line) * z0.
    """
    return coupled_impedance(mutual_inductance(srr, line), w,
                             branch_impedance(srr.r_series(), srr.lsrr, srr.csrr, w))


def s_parameters(srr: SrrParams, line: TransmissionLineSection, freqs, z0_ref=None) -> TwoPortSweep:
    """Two-port S-parameters of the loaded section inserted in a z0 system.

    The inserted series impedance is the reflected resonator impedance
    alone, which is what matching and phase-slope relations are written
    against: S21 = 2*z0/(Z + 2*z0), S11 = Z/(Z + 2*z0).  The segment's own
    jwL_line, a gm_neg across the capacitor (branch_impedance) and its
    shunt capacitance (the mesh's include_ctl) are not part of it.
    """
    freqs = np.asarray(freqs, dtype=float)
    if z0_ref is None:
        z0_ref = line.z0
    s11, s21 = series_s(reflected_impedance(srr, line, freqs), z0_ref)
    return TwoPortSweep(freqs=freqs, s11=s11, s21=s21, z0_ref=z0_ref)


def auto_grid(w0: float, q: float, points_per_bandwidth: float = 100.0) -> np.ndarray:
    """The automatic grid: three bandwidths w0/q either side of w0 in
    2*round(3*points_per_bandwidth) + 1 points, so its spacing is
    w0/(points_per_bandwidth * q) when 3*points_per_bandwidth is whole: 601
    points by default.  A q whose step falls below the spacing of doubles
    across the grid is refused: its points would not stay distinct."""
    require_positive(w0=w0, q=q)
    span = 3.0 * w0 / q
    step = w0 / (points_per_bandwidth * q)
    if not step >= math.ulp(w0 + span):
        raise ValueError(f"Q = {q:g} is too high for an automatic grid: its step "
                         f"w0/({points_per_bandwidth:g}*Q) = {step:.3g} rad/s is below the "
                         f"spacing of doubles at w0, {math.ulp(w0 + span):.3g} rad/s")
    return np.linspace(w0 - span, w0 + span, 2 * round(3.0 * points_per_bandwidth) + 1)


def optimum_q_for_k(k: float, line: TransmissionLineSection, w0: float) -> float:
    """Boosted quality factor that produces an input match (|S11| = 1/3) for
    the given coupling: beta_l * k^2 * Q = 1."""
    if not 0.0 < k < 1.0:
        raise ValueError("k must lie in (0, 1)")
    require_positive(w0=w0)
    return 1.0 / (line.beta_l(w0) * k * k)


def optimum_k_for_q(q_on: float, line: TransmissionLineSection, w0: float) -> float:
    """Coupling coefficient that matches the given boosted quality factor."""
    require_positive(q_on=q_on, w0=w0)
    k = 1.0 / math.sqrt(line.beta_l(w0) * q_on)
    if k >= 1.0:
        raise ValueError(f"coupling unrealizable: matching Q={q_on:g} needs k={k:.3f} >= 1")
    return k


def array_insertion_loss(n: int, srr: SrrParams, line: TransmissionLineSection) -> float:
    """Fractional amplitude loss at resonance from n identical disabled
    pixels loading the line: n * R'/(R' + 2*z0) with R' from q_off, that
    is n * reflected_amplitude(rho).

    Linear superposition of single-pixel losses; cascading effects between
    pixels are not modeled.
    """
    if not n >= 0:
        raise ValueError("pixel count must be non-negative")
    return n * reflected_amplitude(coupling_ratio(srr, line))


def k_max_for_il(
    il_budget: float, n: int, line: TransmissionLineSection, q_off: float, w0: float
) -> float:
    """Largest coupling coefficient that keeps the n-pixel resonant
    insertion loss within the budget (amplitude fraction)."""
    if not 0.0 < il_budget < 1.0:
        raise ValueError("il_budget must lie in (0, 1)")
    if not n >= 1:
        raise ValueError("need at least one pixel")
    require_positive(q_off=q_off, w0=w0)
    per_pixel = il_budget / n
    r_off = 2.0 * line.z0 * per_pixel / (1.0 - per_pixel)
    return math.sqrt(r_off / (w0 * q_off * line.ltl))


# The line-coupling laws: at resonance the reflected R' sits in series with
# the ports' 2*z0, so each depends on the coupling ratio rho = R'/z0 alone.

def reflected_amplitude(rho):
    """|S11(w0)|: 1/3 matched."""
    return rho / (rho + 2.0)


def absorbed_power_fraction(rho):
    """Share of the incident power the resonator dissipates: 4/9 matched."""
    return 4.0 * rho / (rho + 2.0) ** 2


def transmitted_power_fraction(rho):
    """|S21(w0)|^2: 4/9 matched."""
    return 4.0 / (rho + 2.0) ** 2


def phase_slope_factor(rho):
    """Output phase slope in units of Q/w0: 2/3 matched, a third of the bare
    resonator's."""
    return 2.0 * rho / (rho + 2.0)


def loss_slope_factor(rho):
    """Output phase-slope sensitivity to the ring's parallel loss in units
    of the ring capacitance: 10/9 matched."""
    return 2.0 * rho * (rho + 4.0) / (rho + 2.0) ** 2


def output_phase_slope(srr: SrrParams, line: TransmissionLineSection) -> float:
    """Transmission phase slope d(phase)/dw at resonance [s/rad]."""
    return phase_slope_factor(coupling_ratio(srr, line)) * srr.q_off / srr.w0


def phase_slope_vs_resistance(srr: SrrParams, line: TransmissionLineSection) -> float:
    """Sensitivity of the output phase slope to the ring's parallel loss
    resistance [s/(rad*ohm)]: the mixed derivative of the transmission
    phase in R', referred to the ring through the (M/L)^2 impedance ratio,
    leaves the ring capacitance C as the only circuit value.
    """
    return loss_slope_factor(coupling_ratio(srr, line)) * srr.csrr


def detection_band(w0: float, q_on: float):
    """Usable detection band (w_lo, w_hi, bandwidth) around resonance.

    Band edges are where the slope of the linearized output phase changes
    sign; closed form of the quartic in w:
    w = w0*sqrt((2 + 1/Q^2 +/- (1/Q)*sqrt(4 + 1/Q^2))/2).  The edges'
    product is w0^2, so (w_hi - w_lo)^2 = w0^2*(2 + 1/Q^2) - 2*w0^2 and
    the bandwidth is exactly w0/Q.  It is formed as
    (w_hi^2 - w_lo^2)/(w_hi + w_lo), not as the difference of two edges
    near w0, which would cancel about log10(Q) digits.
    """
    if not q_on > 1.0:
        raise ValueError("detection band needs q_on > 1")
    require_positive(w0=w0)
    a = 1.0 / (q_on * q_on)
    half = (1.0 / q_on) * math.sqrt(4.0 + a)
    w_hi = w0 * math.sqrt((2.0 + a + half) / 2.0)
    w_lo = w0 * math.sqrt((2.0 + a - half) / 2.0)
    return w_lo, w_hi, w0 * w0 * half / (w_hi + w_lo)


def detection_phase(srr: SrrParams, line: TransmissionLineSection, w):
    """Linearized output phase -Im(Z')/(R' + 2*z0) [rad], with Z' the
    fixed-value parallel RLC R'/(1 + jQ(w/w0 - w0/w)) and R' = rho*z0.

    Small-angle transmission phase with the off-resonance real part held at
    its resonance value; this is the quantity whose slope zeroes define the
    closed-form detection band, so it is what the numeric band-edge
    cross-check differentiates.
    """
    rho, w0 = coupling_ratio(srr, line), srr.w0
    return -np.imag(rho / (1.0 + 1j * srr.q_off * (w / w0 - w0 / w))) / (rho + 2.0)
