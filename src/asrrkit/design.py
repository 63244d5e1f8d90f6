"""Pixel synthesis: from targets to component and device values.

Follows the coupling-first procedure: the insertion-loss budget caps the
coupling, the coupling cap floors the boosted quality factor, and the SNR
targets then set how far the ring loss (and with it the inductance, the
required transconductance, and the device geometry) must be pushed.  The
synthesized design is required to round-trip through the analysis modules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .resonator import (
    K_GEOMETRIC_LIMIT,
    TransmissionLineSection,
    check_positive,
    k_max_for_il,
    optimum_k_for_q,
    q_on_min,
)
from .active import gm_for_boost
from .noise import FLICKER_BAND, check_flicker_band, flicker_rms

# relative tolerance of the loss-resistance search
_SEARCH_RTOL = 1e-6

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
    c_per_area: float  # device capacitance per gate area [F/m^2]
    l_srr_max: float  # resolution-driven inductance ceiling [H]
    q_off: float = 10.0  # technology-given unloaded quality factor
    cap_weight: float = 1.0  # effective weighting of gate area into ring loading
    flicker_band: tuple = FLICKER_BAND  # [Hz]
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.il_budget < 1.0:
            raise ValueError("il_budget must lie in (0, 1)")
        check_positive(self, "f0", "snr_dc_target", "snr_dr_target", "delta_r_ref", "z0",
                       "kn", "kp", "vth", "vdd", "kf_area", "c_per_area", "l_srr_max", "q_off",
                       "cap_weight")
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


def _evaluate_chain(spec: DesignSpec, r_srr: float, q_on: float, w0: float):
    """Derive every downstream quantity from a candidate ring loss."""
    l_srr = r_srr / (w0 * spec.q_off)
    c_asrr = 1.0 / (w0 * w0 * l_srr)
    c_gm = (1.0 - _RING_CAP_SHARE) * c_asrr
    # two devices of each flavor load the ring; one effective area coefficient
    gate_area = c_gm / (2.0 * spec.cap_weight * spec.c_per_area)
    gm = gm_for_boost(spec.q_off, q_on, r_srr) if q_on > spec.q_off else 0.0
    overdrive = spec.vdd / 2.0 - spec.vth
    if overdrive <= 0:
        raise InfeasibleDesignError(
            "bias headroom", f"vdd/2 - vth = {overdrive:.3g} V leaves no overdrive"
        )
    wl_n = gm / (spec.kn * overdrive)
    wl_p = gm / (spec.kp * overdrive)
    alpha = (5.0 / 36.0) * (spec.kn * wl_n + spec.kp * wl_p)
    kf_dev = spec.kf_area / gate_area
    v_rms = flicker_rms(kf_dev, spec.flicker_band)
    r_asrr = r_srr * q_on / spec.q_off
    snr_dc = 1.0 / (6.0 * alpha * v_rms * r_asrr) if alpha > 0 else math.inf
    snr_dr = 5.0 * spec.delta_r_ref / (18.0 * alpha * v_rms * r_srr**2) if alpha > 0 else math.inf
    return {
        "l_srr": l_srr,
        "c_asrr": c_asrr,
        "c_gm": c_gm,
        "gate_area": gate_area,
        "gm": gm,
        "wl_n": wl_n,
        "wl_p": wl_p,
        "alpha": alpha,
        "kf_dev": kf_dev,
        "v_rms": v_rms,
        "r_asrr": r_asrr,
        "snr_dc": snr_dc,
        "snr_dr": snr_dr,
    }


def synthesize(spec: DesignSpec) -> DesignResult:
    """Size one pixel to its targets.

    1. cap the coupling from the array insertion-loss budget;
    2. floor the boosted quality factor from that coupling (matched input);
    3. search the ring loss down from its inductance-ceiling value until the
       loss-shift SNR target is met (smaller loss costs bias power, so the
       largest passing value is kept);
    4. required block transconductance from the boost ratio;
    5. device aspect ratio from that transconductance;
    6. gate area from the resonance condition with the device capacitance
       dominating the ring loading;
    7. W and L from the two;
    8. if the capacitive-shift SNR is still short, push the search further --
       equivalent to growing the devices and shrinking the ring inductance to
       restore resonance.

    Raises InfeasibleDesignError naming the binding constraint.
    """
    w0 = 2.0 * math.pi * spec.f0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # infeasibility is reported below instead
        k_max = k_max_for_il(spec.il_budget, spec.n_pixels, spec.line, spec.q_off, w0)
    notes = []
    # a cap at k_max >= 1 cannot bind: no realizable coupling reaches it
    q_floor = q_on_min(k_max, spec.line, w0) if k_max < 1.0 else 0.0
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

    r_cap = w0 * spec.q_off * spec.l_srr_max  # inductance ceiling in loss terms

    def deficit(r):
        ch = _evaluate_chain(spec, r, q_on, w0)
        return max(spec.snr_dr_target / ch["snr_dr"], spec.snr_dc_target / ch["snr_dc"])

    if deficit(r_cap) > 1.0:
        # walk the loss down until both SNR targets clear, then bisect back
        r_lo = r_cap
        for _ in range(200):
            r_lo /= 4.0
            if deficit(r_lo) <= 1.0:
                break
        else:
            raise InfeasibleDesignError(
                "snr targets", "SNR targets unreachable within the search range"
            )
        lo, hi = r_lo, r_cap
        while (hi - lo) > _SEARCH_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if deficit(mid) > 1.0:
                hi = mid
            else:
                lo = mid
        r_srr = lo
        notes.append("ring loss lowered to meet the SNR targets")
    else:
        r_srr = r_cap  # ceiling design already meets the targets at least power

    ch = _evaluate_chain(spec, r_srr, q_on, w0)
    if ch["gm"] * r_srr >= 1.0:
        raise InfeasibleDesignError(
            "stability", f"required gm*R = {ch['gm'] * r_srr:.3f} >= 1 would oscillate"
        )
    if ch["l_srr"] > spec.l_srr_max * (1.0 + 1e-9):
        raise InfeasibleDesignError(
            "inductance ceiling", f"l_srr = {ch['l_srr']:.3e} H exceeds {spec.l_srr_max:.3e} H"
        )

    w_n = math.sqrt(ch["wl_n"] * ch["gate_area"])
    l_n = math.sqrt(ch["gate_area"] / ch["wl_n"]) if ch["wl_n"] > 0 else 0.0
    w_p = math.sqrt(ch["wl_p"] * ch["gate_area"])
    l_p = math.sqrt(ch["gate_area"] / ch["wl_p"]) if ch["wl_p"] > 0 else 0.0

    return DesignResult(
        k=k,
        q_on=q_on,
        r_srr=r_srr,
        l_srr=ch["l_srr"],
        c_asrr=ch["c_asrr"],
        c_gm=ch["c_gm"],
        c_srr=ch["c_asrr"] - ch["c_gm"],
        gm_required=ch["gm"],
        wl_ratio_n=ch["wl_n"],
        wl_ratio_p=ch["wl_p"],
        w_n=w_n,
        l_n=l_n,
        w_p=w_p,
        l_p=l_p,
        gate_area=ch["gate_area"],
        alpha_1_over_f=ch["alpha"],
        kf_device=ch["kf_dev"],
        v_fn_rms=ch["v_rms"],
        snr_dc=ch["snr_dc"],
        snr_dr=ch["snr_dr"],
        p_in_lin=(9.0 / 8.0) * spec.vth**2 / (w0 * ch["l_srr"] * q_on),
        power_estimate=power_from_gm_slope(ch["gm"], spec.vdd, spec.vth),
        notes=tuple(notes),
    )


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

