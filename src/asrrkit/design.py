"""Pixel synthesis: from targets to component and device values.

Follows the coupling-first procedure: the insertion-loss budget caps the
coupling, the coupling cap floors the boosted quality factor, and the SNR
targets then set how far the ring loss (and with it the inductance, the
required transconductance, and the device geometry) must be pushed.  The
synthesized design is required to round-trip through the analysis modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .resonator import (
    K_GEOMETRIC_LIMIT,
    TransmissionLineSection,
    check_positive,
    k_max_for_il,
    optimum_k_for_q,
    optimum_q_for_k,
)
from .active import MAX_BOOST, AsrrState, gm_for_boost, linear_power_limit
from .config import KEYS
from .noise import alpha_flicker, check_flicker_band, flicker_rms, snr_delta_c, snr_delta_r

# the deepest accepted loss reduction: 200 quarterings of the ceiling value
_SHRINK_FLOOR = 4.0**-200

# vanishing intrinsic share kept so downstream models see a finite ring
# capacitance; the device loading is assumed to dominate
_RING_CAP_SHARE = 1e-6


class InfeasibleDesignError(Exception):
    """Raised when a spec cannot be met; names the single binding constraint."""

    def __init__(self, constraint: str, detail: str):
        self.constraint = constraint
        self.detail = detail
        super().__init__(f"infeasible design [{constraint}]: {detail}")


@dataclass(frozen=True)
class DesignSpec:
    """Targets and technology constants for one pixel."""

    f0: float  # resonance target [Hz]
    n_pixels: int  # pixels sharing the line
    il_budget: float  # array insertion-loss budget, amplitude fraction
    snr_dc_target: float  # SNR target for capacitive shifts
    snr_dr_target: float  # SNR target for loss shifts
    delta_r_ref: float  # reference loss shift for the SNR target [ohm]
    z0: float  # line impedance [ohm]
    line: TransmissionLineSection
    kn: float  # NMOS gain factor K [A/V^2] at unit W/L
    kp: float  # PMOS gain factor K [A/V^2] at unit W/L
    vth: float  # [V]
    vdd: float  # [V]
    kf_area: float  # flicker coefficient scaling, kf = kf_area/(W*L) [V^2*m^2]
    c_per_area: float  # effective ring-loading capacitance per gate area [F/m^2]
    l_srr_max: float  # resolution-driven inductance ceiling [H]
    q_off: float  # technology-given unloaded quality factor
    flicker_band: tuple = (KEYS["f_lo"].default, KEYS["f_hi"].default)  # [Hz]

    def __post_init__(self):
        if not 0.0 < self.il_budget < 1.0:
            raise ValueError("il_budget must lie in (0, 1)")
        check_positive(self, "f0", "snr_dc_target", "snr_dr_target", "delta_r_ref", "z0",
                       "kn", "kp", "vth", "vdd", "kf_area", "c_per_area", "l_srr_max", "q_off")
        check_flicker_band(self.flicker_band)
        if not self.n_pixels >= 1:  # NaN fails too
            raise ValueError("n_pixels must be at least 1")


@dataclass(frozen=True)
class DesignResult:
    k: float
    q_on: float
    r_srr: float  # parallel ring loss [ohm]
    l_srr: float  # [H]
    c_asrr: float  # total resonating capacitance [F]
    c_gm: float  # device share of the capacitance [F]
    c_srr: float  # intrinsic ring share [F]
    gm_required: float  # block transconductance [S]
    wl_ratio_n: float  # NMOS W/L
    wl_ratio_p: float  # PMOS W/L
    w_n: float  # [m]
    l_n: float  # [m]
    w_p: float  # [m]
    l_p: float  # [m]
    gate_area: float  # per-device W*L [m^2]
    alpha_1_over_f: float
    kf_device: float  # [V^2]
    v_fn_rms: float  # [V]
    snr_dc: float
    snr_dr: float
    p_in_lin: float  # [W]
    power_estimate: float  # [W], square-law supply power
    notes: tuple = field(default_factory=tuple)


def _design_at(spec: DesignSpec, r_srr: float, q_on: float, k: float, w0: float,
               notes) -> DesignResult:
    """The pixel at ring loss r_srr, analysed through AsrrState and the noise
    laws; the devices take all but a vanishing share of the capacitance that
    resonates the ring at f0.  Without boost (q_on = q_off) there is no block:
    no flicker noise (both SNRs infinite) and nothing to compress."""
    l_srr = r_srr / (w0 * spec.q_off)
    c_asrr = 1.0 / (w0 * w0 * l_srr)
    c_gm = (1.0 - _RING_CAP_SHARE) * c_asrr
    # two devices of each flavor load the ring; one effective area coefficient
    gate_area = c_gm / (2.0 * spec.c_per_area)
    kf_dev = spec.kf_area / gate_area
    band = spec.flicker_band
    if q_on > spec.q_off:
        gm = gm_for_boost(spec.q_off, q_on, r_srr)
        state = AsrrState.from_targets(spec.f0, l_srr, spec.q_off, line=spec.line, gm0=gm, k=k,
                                       c_asrr=c_asrr, vdd=spec.vdd, vth=spec.vth, kf=kf_dev)
        alpha = alpha_flicker(state)
        snr_dc = snr_delta_c(state, band)
        snr_dr = snr_delta_r(state, band, spec.delta_r_ref)
        p_in_lin = linear_power_limit(state)
    else:
        gm, alpha, snr_dc, snr_dr, p_in_lin = 0.0, 0.0, math.inf, math.inf, math.inf
    overdrive = spec.vdd / 2.0 - spec.vth
    wl_n = gm / (spec.kn * overdrive)
    wl_p = gm / (spec.kp * overdrive)
    return DesignResult(
        k=k,
        q_on=q_on,
        r_srr=r_srr,
        l_srr=l_srr,
        c_asrr=c_asrr,
        c_gm=c_gm,
        c_srr=c_asrr - c_gm,
        gm_required=gm,
        wl_ratio_n=wl_n,
        wl_ratio_p=wl_p,
        w_n=math.sqrt(wl_n * gate_area),
        l_n=math.sqrt(gate_area / wl_n) if wl_n > 0 else 0.0,
        w_p=math.sqrt(wl_p * gate_area),
        l_p=math.sqrt(gate_area / wl_p) if wl_p > 0 else 0.0,
        gate_area=gate_area,
        alpha_1_over_f=alpha,
        kf_device=kf_dev,
        v_fn_rms=flicker_rms(kf_dev, band),
        snr_dc=snr_dc,
        snr_dr=snr_dr,
        p_in_lin=p_in_lin,
        power_estimate=power_from_gm_slope(gm, spec.vdd, spec.vth),
        notes=tuple(notes),
    )


def synthesize(spec: DesignSpec) -> DesignResult:
    """Size one pixel to its targets.

    1. cap the coupling from the array insertion-loss budget;
    2. floor the boosted quality factor from that coupling (matched input);
    3. lower the ring loss from its inductance-ceiling value just as far as
       the SNR targets need (smaller loss costs bias power), in closed form;
    4. required block transconductance from the boost ratio;
    5. device aspect ratio from that transconductance;
    6. gate area from the resonance condition with the device capacitance
       dominating the ring loading;
    7. W and L from the two.

    Raises InfeasibleDesignError naming the binding constraint.
    """
    w0 = 2.0 * math.pi * spec.f0
    k_max = k_max_for_il(spec.il_budget, spec.n_pixels, spec.line, spec.q_off, w0)
    notes = []
    # a cap at k_max >= 1 cannot bind: no realizable coupling reaches it
    q_floor = optimum_q_for_k(k_max, spec.line, w0) if k_max < 1.0 else 0.0
    if q_floor >= spec.q_off:
        k = k_max
        q_on = q_floor
    else:
        # budget so loose that no boosting is needed; stay on the matched locus
        q_on = spec.q_off
        try:
            k = optimum_k_for_q(q_on, spec.line, w0)
        except ValueError as exc:  # matching q_off needs k >= 1
            raise InfeasibleDesignError("coupling limit", str(exc)) from None
        notes.append("loss budget loose: matched at the unboosted quality factor")
    if k > K_GEOMETRIC_LIMIT:
        raise InfeasibleDesignError(
            "coupling limit",
            f"matched coupling needs k = {k:.3f} > {K_GEOMETRIC_LIMIT} achievable",
        )
    overdrive = spec.vdd / 2.0 - spec.vth
    if overdrive <= 0:
        raise InfeasibleDesignError(
            "bias headroom", f"vdd/2 - vth = {overdrive:.3g} V leaves no overdrive"
        )
    # below the state's boost bound the loop gain gm*R = 1 - Q_off/Q_on
    # stays clear of 1, so the pixel cannot oscillate
    if q_on / spec.q_off > MAX_BOOST:
        raise InfeasibleDesignError(
            "boost limit", f"Q_on/Q_off = {q_on / spec.q_off:.3g} exceeds {MAX_BOOST:g}"
        )

    r_cap = w0 * spec.q_off * spec.l_srr_max  # inductance ceiling in loss terms
    ceiling = _design_at(spec, r_cap, q_on, k, w0, notes)
    # At fixed Q_on and k the gate area scales as 1/r, kf as r, alpha as 1/r
    # and R_boost as r, so SNR_dC ~ r^-1/2 and SNR_dR ~ r^-3/2: the loss
    # that puts the short SNR on its target follows from the ceiling design.
    shrink = min(min(1.0, ceiling.snr_dc / spec.snr_dc_target) ** 2,
                 min(1.0, ceiling.snr_dr / spec.snr_dr_target) ** (2.0 / 3.0))
    if shrink < _SHRINK_FLOOR:
        raise InfeasibleDesignError(
            "snr targets", f"SNR targets need the ring loss scaled by {shrink:.3g}, "
            f"below the reach {_SHRINK_FLOOR:.3g}"
        )
    if shrink == 1.0:
        return ceiling  # the ceiling design meets the targets at least power
    notes.append("ring loss lowered to meet the SNR targets")
    return _design_at(spec, r_cap * shrink, q_on, k, w0, notes)


def power_from_gm_slope(gm: float, vdd: float, vth: float) -> float:
    """Square-law supply power for a block of transconductance gm [W].

    Each branch conducts (1/2)*K*(W/L)*(vdd/2 - vth)^2 at the self-biased
    point and gm = K*(W/L)*(vdd/2 - vth), so P = vdd * gm * (vdd/2 - vth).
    An estimate: short-channel effects and switching overhead are ignored.
    """
    overdrive = vdd / 2.0 - vth
    if overdrive <= 0 or gm <= 0:
        return 0.0
    return vdd * gm * overdrive

