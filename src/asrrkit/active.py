"""Actively Q-boosted resonator: negative-transconductance loading,
sample-induced response, large-signal compression and the nonlinear
quality factor.

The cross-coupled block partially cancels the ring loss: the parallel loss
R becomes R/(1 - gm*R), boosting the quality factor by the same ratio.
The block must stay below unity loop gain (gm*R < 1) or it oscillates and
none of this applies; every operation guards that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .resonator import (SrrParams, TransmissionLineSection, check_positive, optimum_k_for_q,
                        require_positive)


@dataclass(frozen=True)
class GmBlockParams:
    """Cross-coupled negative-gm block, symmetric NMOS/PMOS design."""

    gm0: float  # small-signal transconductance per device [S]
    kn_wl: float  # NMOS gain factor K*(W/L) [A/V^2]
    kp_wl: float  # PMOS gain factor K*(W/L) [A/V^2]
    vdd: float  # supply voltage [V]
    vth: float  # threshold voltage [V]
    c_gm: float  # total parasitic capacitance loading the ring [F]
    kf: float = 1e-10  # flicker noise coefficient [V^2]; placeholder until calibrated
    gamma: float = 1.0  # channel white-noise factor; placeholder until calibrated
    lam: float = 0.0  # channel-length modulation [1/V]

    def __post_init__(self):
        check_positive(self, "gm0", "kn_wl", "kp_wl", "vdd", "vth", "c_gm", "kf", "gamma")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be non-negative and finite")

    def block_gm(self) -> float:
        """Total small-signal transconductance of the block, (gm_n + gm_p)/2
        with the symmetric design giving gm_n = gm_p = gm0."""
        return self.gm0


def gm_parasitic_capacitance(cgs_n, cgs_p, cdb_n, cdb_p, cgd_n, cgd_p) -> float:
    """Capacitance the block hangs on the ring, from per-device values:
    (Cgs + Cdb sums)/2 plus twice the gate-drain sums."""
    return (cgs_n + cgs_p + cdb_n + cdb_p) / 2.0 + 2.0 * (cgd_n + cgd_p)


def gm_for_boost(q_off: float, q_on_target: float, r_parallel: float) -> float:
    """Block transconductance that boosts q_off to q_on_target across the
    parallel ring loss r_parallel: (1 - Q_off/Q_on)/R [S]."""
    return (1.0 - q_off / q_on_target) / r_parallel


@dataclass(frozen=True)
class AsrrState:
    """A ring resonator plus its enabled negative-gm block."""

    srr: SrrParams
    gm: GmBlockParams

    def __post_init__(self):
        if self.gm.block_gm() * self.r_srr_parallel() >= 1.0:
            raise ValueError("oscillation: loop gain >= 1 (gm * R >= 1)")

    @classmethod
    def from_targets(cls, f0, lsrr, q_off, *, q_on=None, gm0=None, k=None,
                     line: TransmissionLineSection | None = None, c_asrr=None, c_gm=None,
                     vdd=1.0, vth=0.3, kn_wl=None, kp_wl=None, **device) -> AsrrState:
        """The operating point of an active pixel at f0 [Hz].

        Give the boost either as a target q_on or as the block's gm0.  The
        total capacitance defaults to resonance with lsrr at f0 and the block
        takes 0.3 of it (c_gm); the device slopes default to
        gm0/(vdd/2 - vth), or 1e-3 A/V^2 without overdrive.  k defaults to
        the matched coupling beta_l*k^2*Q_on = 1 for the realized Q_on,
        which needs the line.  Extra keywords (kf, gamma, lam) go to
        GmBlockParams.
        """
        if (q_on is None) == (gm0 is None):
            raise ValueError("give exactly one of q_on and gm0")
        if k is None and line is None:
            raise ValueError("the matched coupling needs the line")
        require_positive(f0=f0, lsrr=lsrr, q_off=q_off)
        if q_on is not None:
            require_positive(q_on=q_on)
        w0 = 2.0 * math.pi * f0
        if c_asrr is None:
            c_asrr = 1.0 / (w0 * w0 * lsrr)
        if c_gm is None:
            c_gm = 0.3 * c_asrr
        csrr = c_asrr - c_gm
        if not csrr > 0:
            raise ValueError("c_gm must stay below the total resonating capacitance")
        if gm0 is None:
            gm0 = gm_for_boost(q_off, q_on, w0 * lsrr * q_off)
        kwl = gm0 / (vdd / 2.0 - vth) if vdd / 2.0 > vth else 1e-3
        gm = GmBlockParams(gm0=gm0, kn_wl=kwl if kn_wl is None else kn_wl,
                           kp_wl=kwl if kp_wl is None else kp_wl,
                           vdd=vdd, vth=vth, c_gm=c_gm, **device)
        srr = SrrParams(lsrr=lsrr, csrr=csrr, q_off=q_off, k=0.0 if k is None else k)
        state = cls(srr=srr, gm=gm)
        if k is None:  # the boost does not depend on k; effective_srr() carries Q_on
            k = optimum_k_for_q(state.effective_srr().q_off, line, state.w0)
            state = cls(srr=replace(srr, k=k), gm=gm)
        return state

    @property
    def c_asrr(self) -> float:
        """Total resonating capacitance: ring plus block parasitics [F]."""
        return self.srr.csrr + self.gm.c_gm

    @property
    def w0(self) -> float:
        """Loaded resonance frequency [rad/s]."""
        return 1.0 / math.sqrt(self.srr.lsrr * self.c_asrr)

    def r_srr_parallel(self) -> float:
        """Unboosted parallel loss at the loaded resonance [ohm]."""
        return self.w0 * self.srr.lsrr * self.srr.q_off

    def effective_srr(self, q=None) -> SrrParams:
        """The resonator as the line sees it with the block enabled: total
        capacitance and boosted quality factor (pass q to override, e.g. a
        compressed value)."""
        return SrrParams(
            lsrr=self.srr.lsrr,
            csrr=self.c_asrr,
            q_off=q_on(self) if q is None else q,
            k=self.srr.k,
        )


def boosted_resistance(state: AsrrState, gm_total=None) -> float:
    """Boosted parallel resistance R/(1 - gm*R) [ohm]."""
    r = state.r_srr_parallel()
    g = state.gm.block_gm() if gm_total is None else gm_total
    loop_gain = g * r
    if loop_gain >= 1.0:
        raise ValueError("oscillation: loop gain >= 1 (gm * R >= 1)")
    return r / (1.0 - loop_gain)


def q_on(state: AsrrState, gm_total=None) -> float:
    """Boosted quality factor Q_off/(1 - gm*R)."""
    r = state.r_srr_parallel()
    g = state.gm.block_gm() if gm_total is None else gm_total
    if g * r >= 1.0:
        raise ValueError("oscillation: loop gain >= 1 (gm * R >= 1)")
    return state.srr.q_off / (1.0 - g * r)


def loss_amplification(state: AsrrState, delta_r: float) -> float:
    """Boosted-resistance shift for a ring-loss shift delta_r: the Q-boost
    ratio squared amplifies it."""
    return (q_on(state) / state.srr.q_off) ** 2 * delta_r


@dataclass(frozen=True)
class SampleDelta:
    """Shift a sample induces in the ring: capacitance and parallel loss."""

    delta_c: float  # [F], either sign
    delta_r: float  # [ohm], either sign

    def __post_init__(self):
        if not (math.isfinite(self.delta_c) and math.isfinite(self.delta_r)):
            raise ValueError("sample shifts must be finite")


@dataclass(frozen=True)
class SampleResponse:
    d_w0: float  # resonance shift [rad/s]
    d_phase_slope: float  # phase-slope shift [s/rad]
    d_phase_freq: float  # output phase shift via the resonance move [rad]
    d_phase_slope_term: float  # output phase shift via the slope change [rad]


def sample_response(state: AsrrState, delta: SampleDelta) -> SampleResponse:
    """First-order pixel response to a sample under matched coupling.

    d_w0 = -dC/(2C) * w0; the slope shift is (10/9)*C*(Q_on/Q_off)^2*dR;
    the two output-phase terms are (Q_on/3)*(dC/C) and
    (5/9)*(Q_on/Q_off)^2*w0*dR*dC.  Valid for |dC| << C.
    """
    c = state.c_asrr
    w0 = state.w0
    boost2 = (q_on(state) / state.srr.q_off) ** 2
    d_w0 = -delta.delta_c / (2.0 * c) * w0
    d_slope = (10.0 / 9.0) * c * boost2 * delta.delta_r
    d_phase_freq = (q_on(state) / 3.0) * (delta.delta_c / c)
    d_phase_slope_term = (5.0 / 9.0) * boost2 * w0 * delta.delta_r * delta.delta_c
    return SampleResponse(d_w0, d_slope, d_phase_freq, d_phase_slope_term)


def absorbed_power_fraction(r_eq: float, z0: float) -> float:
    """Fraction of incident power the inserted resonator dissipates:
    4*R'*z0/(R' + 2*z0)^2, equal to 4/9 at the matched point."""
    return 4.0 * r_eq * z0 / (r_eq + 2.0 * z0) ** 2


def asrr_voltage_swing(state: AsrrState, p_in: float, q=None,
                       line: TransmissionLineSection | None = None, z0=None) -> float:
    """Peak differential swing across the resonator for input power p_in [V].

    Matched coupling by default: the resonator takes 4/9 of the incident
    power, so V = sqrt((8/9) * w0 * L * Q * p_in).  Pass line and z0 for the
    general-coupling form, which uses the reflected resistance to split the
    power.  q overrides the boosted quality factor (compressed operation).
    """
    if p_in < 0:
        raise ValueError("p_in must be non-negative")
    q_val = q_on(state) if q is None else q
    r_asrr = state.w0 * state.srr.lsrr * q_val
    if line is None:
        p_srr = (4.0 / 9.0) * p_in
    else:
        if z0 is None:
            z0 = line.z0
        r_eq = state.w0 * state.srr.k**2 * line.ltl * q_val
        p_srr = absorbed_power_fraction(r_eq, z0) * p_in
    return math.sqrt(2.0 * r_asrr * p_srr)


def linear_power_limit(state: AsrrState) -> float:
    """Input power at which the swing reaches vth and compression starts:
    (9/8) * vth^2 / (w0 * L * Q_on) [W]."""
    return (9.0 / 8.0) * state.gm.vth**2 / (state.w0 * state.srr.lsrr * q_on(state))


def conduction_angle(v_asrr: float, vth: float) -> float:
    """Half-angle of the triode excursion per half cycle [rad]: zero until
    the swing exceeds vth, then arccos(vth/v)."""
    if v_asrr < 0:
        raise ValueError("v_asrr must be non-negative")
    if v_asrr <= vth:
        return 0.0
    return math.acos(vth / v_asrr)


def gm_avg_exact(v_asrr: float, p: GmBlockParams, kwl=None) -> float:
    """Cycle-averaged device transconductance under a swing v_asrr [S].

    Integrates the segmented square-law transconductance (saturation,
    triode, cutoff) over one cycle:
    (1/pi) * [gm0*(pi - 2*thc) + K(W/L)*((vdd/2)*thc - (v/2)*sin(thc))].
    Valid up to swings around 3*vth, beyond which the segmented device
    model itself loses meaning.
    """
    if kwl is None:
        kwl = p.kn_wl
    thc = conduction_angle(v_asrr, p.vth)
    if thc == 0.0:
        return p.gm0
    return (
        p.gm0 * (math.pi - 2.0 * thc)
        + kwl * ((p.vdd / 2.0) * thc - (v_asrr / 2.0) * math.sin(thc))
    ) / math.pi


def gm_avg_approx(v_asrr: float, p: GmBlockParams, kwl=None) -> float:
    """Two-segment large-swing approximation of the cycle average: gm0 up
    to vth, then (1/pi)*K(W/L)*(vdd*pi/4 - v/2)."""
    if kwl is None:
        kwl = p.kn_wl
    if v_asrr <= p.vth:
        return p.gm0
    return kwl * (p.vdd * math.pi / 4.0 - v_asrr / 2.0) / math.pi


def block_gm_avg(v_asrr: float, p: GmBlockParams) -> float:
    """Compressed transconductance of the whole block: mean of the NMOS and
    PMOS cycle averages."""
    return 0.5 * (gm_avg_exact(v_asrr, p, p.kn_wl) + gm_avg_exact(v_asrr, p, p.kp_wl))


def q_on_nonlinear(state: AsrrState, p_in: float, rtol=1e-9, max_iter=200,
                   line: TransmissionLineSection | None = None, z0=None):
    """Self-consistent (quality factor, swing) under gm compression.

    Solves V = swing(Q(V), p_in) with Q(V) = Q_off/(1 - gm_avg(V)*R) by a
    damped fixed point (damping 0.5); if the iteration fails to settle it
    falls back to bisection on V - swing(Q(V)), which brackets the unique
    fixed point because the swing is non-increasing in V.  Power split uses
    the matched-coupling fraction unless line/z0 are given.

    Returns (q_nonlin, v_asrr).  Raises RuntimeError with the last iterate
    if neither scheme converges.
    """
    if p_in <= 0:
        raise ValueError("p_in must be positive")
    r = state.r_srr_parallel()

    def q_of_v(v):
        return state.srr.q_off / (1.0 - block_gm_avg(v, state.gm) * r)

    def swing(v):
        return asrr_voltage_swing(state, p_in, q=q_of_v(v), line=line, z0=z0)

    v = asrr_voltage_swing(state, p_in, line=line, z0=z0)  # linear-theory start
    damping = 0.5
    for _ in range(max_iter):
        v_next = (1.0 - damping) * v + damping * swing(v)
        if abs(v_next - v) <= rtol * max(v_next, 1e-30):
            return q_of_v(v_next), v_next
        v = v_next

    # fixed point not reached; bisect h(v) = v - swing(v), increasing in v
    lo, hi = 0.0, swing(0.0)
    if hi - lo > 0:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - swing(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= rtol * max(hi, 1e-30):
                v = 0.5 * (lo + hi)
                return q_of_v(v), v
    raise RuntimeError(f"nonlinear solve did not converge; last swing iterate {v:.6e} V")
