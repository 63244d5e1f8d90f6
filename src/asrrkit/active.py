"""Actively Q-boosted resonator: negative-transconductance loading,
sample-induced resonance shift, large-signal compression and the nonlinear
quality factor.

The cross-coupled block partially cancels the ring loss: the parallel loss
R becomes R/(1 - gm*R), boosting the quality factor by the same ratio.
The block must stay below unity loop gain (gm*R < 1) or it oscillates and
none of this applies; AsrrState refuses such a block, and a boost beyond
MAX_BOOST, so every operation on a state can rely on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .resonator import (SrrParams, TransmissionLineSection, absorbed_power_fraction,
                        check_positive, coupling_ratio, optimum_k_for_q, require_positive)

# Largest boost Q_on/Q_off a state accepts: the boost is carried as
# 1 - gm*R, which keeps too few digits beyond this.
MAX_BOOST = 1e8


@dataclass(frozen=True)
class GmBlockParams:
    """Cross-coupled negative-gm block, symmetric NMOS/PMOS design: both
    flavours share one slope and are self-biased at vdd/2."""

    gm0: float  # small-signal transconductance per device, and the block's [S]
    k_wl: float  # each device's gain factor K*(W/L), NMOS and PMOS alike [A/V^2]
    vdd: float  # supply voltage [V]
    vth: float  # threshold voltage [V]
    kf: float = 1e-10  # flicker noise coefficient [V^2]; placeholder until calibrated
    gamma: float = 1.0  # channel white-noise factor; placeholder until calibrated
    lam: float = 0.0  # channel-length modulation [1/V]

    def __post_init__(self):
        check_positive(self, "gm0", "k_wl", "vdd", "vth", "kf", "gamma")
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be non-negative and finite")


class OscillationError(ValueError):
    """The block's loop gain reaches one (gm*R >= 1): the pixel oscillates."""


def gm_for_boost(q_off: float, q_on_target: float, r_parallel: float) -> float:
    """Block transconductance that boosts q_off to q_on_target across the
    parallel ring loss r_parallel: (1 - Q_off/Q_on)/R [S]."""
    return (1.0 - q_off / q_on_target) / r_parallel


@dataclass(frozen=True)
class AsrrState:
    """A ring resonator, its enabled negative-gm block and its line.  srr is
    the ring as the line sees it: its capacitance is the total resonating
    one, ring plus block parasitics, and its quality factor q_off."""

    srr: SrrParams
    gm: GmBlockParams
    line: TransmissionLineSection

    def __post_init__(self):
        loop_gain = self.gm.gm0 * self.srr.r_parallel()
        if loop_gain >= 1.0:
            raise OscillationError("oscillation: loop gain >= 1 (gm * R >= 1)")
        boost = 1.0 / (1.0 - loop_gain)
        if boost > MAX_BOOST:
            raise ValueError(f"boost Q_on/Q_off = {boost:.3g} exceeds {MAX_BOOST:g}")

    @classmethod
    def from_targets(cls, f0, lsrr, q_off, *, line: TransmissionLineSection, q_on=None,
                     gm0=None, k=None, c_asrr=None, vdd=1.0, vth=0.3, k_wl=None,
                     **device) -> AsrrState:
        """The operating point of an active pixel at f0 [Hz] on line.

        Give the boost either as a target q_on above q_off or as the block's
        gm0.  The total capacitance c_asrr defaults to resonance with lsrr
        at f0; a q_on target holds at the ring's own resonance
        1/sqrt(lsrr*c_asrr).  The device slope k_wl defaults to
        gm0/(vdd/2 - vth), or 1e-3 A/V^2 without overdrive.  k defaults to
        the matched coupling beta_l*k^2*Q_on = 1 for the realized Q_on.
        Extra keywords (kf, gamma, lam) go to GmBlockParams.
        """
        if (q_on is None) == (gm0 is None):
            raise ValueError("give exactly one of q_on and gm0")
        require_positive(f0=f0, lsrr=lsrr, q_off=q_off)
        if q_on is not None:
            require_positive(q_on=q_on)
            if not q_on > q_off:
                raise ValueError(f"q_on ({q_on:g}) must exceed q_off ({q_off:g})")
        w0 = 2.0 * math.pi * f0
        if c_asrr is None:
            c_asrr = 1.0 / (w0 * w0 * lsrr)
        srr = SrrParams(lsrr=lsrr, csrr=c_asrr, q_off=q_off, k=0.0 if k is None else k)
        if gm0 is None:
            gm0 = gm_for_boost(q_off, q_on, srr.r_parallel())
        if k_wl is None:
            k_wl = gm0 / (vdd / 2.0 - vth) if vdd / 2.0 > vth else 1e-3
        gm = GmBlockParams(gm0=gm0, k_wl=k_wl, vdd=vdd, vth=vth, **device)
        state = cls(srr=srr, gm=gm, line=line)
        if k is None:  # the boost does not depend on k; effective_srr() carries Q_on
            k = optimum_k_for_q(state.effective_srr().q_off, line, srr.w0)
            state = replace(state, srr=replace(srr, k=k))
        return state

    @cached_property
    def rho(self) -> float:
        """Coupling ratio R'/z0 of the boosted ring: what every law reads."""
        return coupling_ratio(self.effective_srr(), self.line)

    def effective_srr(self) -> SrrParams:
        """The resonator as the line sees it with the block enabled: the
        boosted quality factor."""
        return replace(self.srr, q_off=q_on(self))


def boosted_resistance(state: AsrrState) -> float:
    """Boosted parallel resistance R/(1 - gm*R) [ohm]."""
    r = state.srr.r_parallel()
    return r / (1.0 - state.gm.gm0 * r)


def q_on(state: AsrrState) -> float:
    """Boosted quality factor Q_off/(1 - gm*R)."""
    return state.srr.q_off / (1.0 - state.gm.gm0 * state.srr.r_parallel())


def resonance_shift(state: AsrrState, delta_c: float) -> float:
    """First-order resonance shift -dC/(2C) * w0 [rad/s] for a sample that
    shifts the ring's capacitance by delta_c [F], either sign; a non-finite
    shift raises ValueError.  Valid for |dC| << C."""
    if not math.isfinite(delta_c):
        raise ValueError(f"delta_c must be finite, got {delta_c!r}")
    return -delta_c / (2.0 * state.srr.csrr) * state.srr.w0


def asrr_voltage_swing(state: AsrrState, p_in: float, q=None) -> float:
    """Peak differential swing across the resonator for input power p_in [V].

    The resonator absorbs A = absorbed_power_fraction(state.rho) of the
    incident power, 4/9 matched, so V = sqrt(2 * A * w0 * L * Q * p_in).
    q overrides the boosted quality factor (compressed operation).
    """
    if not p_in >= 0:
        raise ValueError("p_in must be non-negative")
    q_val = q_on(state) if q is None else q
    r_asrr = state.srr.w0 * state.srr.lsrr * q_val
    p_srr = absorbed_power_fraction(state.rho) * p_in
    return math.sqrt(2.0 * r_asrr * p_srr)


def linear_power_limit(state: AsrrState) -> float:
    """Input power at which the swing reaches vth and compression starts:
    (1/(2A)) * vth^2 / (w0 * L * Q_on) [W], A at state.rho, 4/9 matched.
    A decoupled ring (rho = 0) absorbs no power and has no such limit, and
    a limit that is not a finite number is refused."""
    if state.rho == 0:
        raise ValueError(f"k = {state.srr.k:g} decouples the ring from the line: no input "
                         f"power reaches it, so it has no linear power limit")
    p_lin = ((1.0 / (2.0 * absorbed_power_fraction(state.rho))) * state.gm.vth**2
             / (state.srr.w0 * state.srr.lsrr * q_on(state)))
    if not math.isfinite(p_lin):
        raise ValueError(f"the linear power limit is {p_lin:g} W: it must be finite, and "
                         f"this config overflows it")
    return p_lin


def conduction_angle(v_asrr: float, vth: float) -> float:
    """Half-angle of the triode excursion per half cycle [rad]: zero until
    the swing exceeds vth, then arccos(vth/v)."""
    if not v_asrr >= 0:
        raise ValueError("v_asrr must be non-negative")
    require_positive(vth=vth)
    if v_asrr <= vth:
        return 0.0
    return math.acos(vth / v_asrr)


def gm_avg_exact(v_asrr: float, p: GmBlockParams) -> float:
    """Cycle-averaged transconductance of each device, and so of the
    symmetric block, under a swing v_asrr [S].

    Integrates the segmented square-law transconductance (saturation,
    triode, cutoff) over one cycle:
    (1/pi) * [gm0*(pi - 2*thc) + K(W/L)*((vdd/2)*thc - (v/2)*sin(thc))].
    Valid up to swings around 3*vth, beyond which the segmented device
    model itself loses meaning.
    """
    thc = conduction_angle(v_asrr, p.vth)
    if thc == 0.0:
        return p.gm0
    return (
        p.gm0 * (math.pi - 2.0 * thc)
        + p.k_wl * ((p.vdd / 2.0) * thc - (v_asrr / 2.0) * math.sin(thc))
    ) / math.pi


def check_compression_domain(p: GmBlockParams):
    """Raise ValueError unless the block's averaged gm never rises above gm0:
    k_wl*(vdd - vth) <= 4*gm0, the domain q_on_nonlinear derives."""
    k_swing = p.k_wl * (p.vdd - p.vth)
    if k_swing > 4.0 * p.gm0 * (1.0 + 1e-15):  # at vth = vdd/3 it can round one eps over
        raise ValueError(f"compression needs k_wl*(vdd - vth) <= 4*gm0, or the "
                         f"averaged gm rises above gm0 (vth <= vdd/3 with the default slope); "
                         f"this block has {k_swing:.6g} S > {4.0 * p.gm0:.6g} S")


def q_on_nonlinear(state: AsrrState, p_in: float):
    """(q_nonlin, v_asrr): the self-consistent quality factor and swing
    under gm compression.

    The swing V is the root of h(V) = V - swing(Q(V), p_in), with
    Q(V) = Q_off/(1 - gm_avg(V)*R) and gm_avg the block's cycle average
    gm_avg_exact; the absorbed fraction stays at the linear state's
    coupling ratio.
    A linear swing V_lin <= vth is the answer as it stands.  Otherwise
    h(vth) = vth - V_lin < 0 and, while gm_avg(V_lin) <= gm0,
    h(V_lin) >= 0: bisection on [vth, V_lin] runs until the midpoint
    equals an end, so V is the root to rounding.

    The domain.  With theta = acos(vth/V),
    gm_avg(V) - gm0 = (theta/pi)*(k_wl*(vdd - vth*tan(theta)/theta)/2 - 2*gm0),
    whose second factor falls from its theta -> 0 limit
    k_wl*(vdd - vth)/2 - 2*gm0.  So gm_avg never rises above gm0, and is
    non-increasing in V (h increasing, one root), exactly when
    k_wl*(vdd - vth) <= 4*gm0: vth <= vdd/3 with the default slope
    gm0/(vdd/2 - vth).  check_compression_domain raises ValueError
    for other blocks.

    Past the swing where gm_avg turns negative (about 1.56 V, near
    p_in = 27*(Q_on/Q_off)*linear_power_limit, with the default vdd and
    vth), Q falls below Q_off, which the block cannot do: ValueError.
    """
    if not p_in > 0:
        raise ValueError("p_in must be positive")
    p = state.gm
    check_compression_domain(p)
    r = state.srr.r_parallel()

    def q_of_v(v):
        return state.srr.q_off / (1.0 - gm_avg_exact(v, p) * r)

    v_lin = asrr_voltage_swing(state, p_in)
    lo, hi = min(p.vth, v_lin), v_lin
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid < asrr_voltage_swing(state, p_in, q=q_of_v(mid)):
            lo = mid
        else:
            hi = mid
    q = q_of_v(hi)
    if q < state.srr.q_off:
        raise ValueError(f"p_in = {p_in:g} W drives the swing to {hi:g} V, where the "
                         f"compressed Q {q:.12g} falls below q_off = {state.srr.q_off:g}: "
                         f"the block's averaged gm would be negative")
    return q, hi
