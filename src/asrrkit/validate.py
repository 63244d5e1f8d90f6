"""Cross-verification suite: every closed form against its independent
numerical route, plus the documented anchor values of the reference pixel.

Each check returns a CheckResult; `run_all` executes the lot with a seeded
generator so results are reproducible.  The CLI `validate` subcommand and
the acceptance tests both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import active, noise, oracle, resonator
from .active import AsrrState
from .design import DesignSpec, InfeasibleDesignError, synthesize
from .resonator import SrrParams, TransmissionLineSection

TWO_THIRDS_DB = 20.0 * math.log10(2.0 / 3.0)  # -3.5218 dB matched transmission


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class Fixture:
    """Reconstructed 200 GHz reference pixel used by anchors and sweeps."""

    f0: float = 200e9
    c_asrr: float = 11.7e-15
    q_off: float = 10.0
    q_on: float = 54.0
    z0: float = 50.0
    beta_l: float = 0.35
    vdd: float = 1.0
    vth: float = 0.3
    kf: float = 1e-10
    gamma: float = 1.0
    k: float | None = None  # None -> matched-coupling value

    @property
    def w0(self) -> float:
        return 2.0 * math.pi * self.f0

    @property
    def lsrr(self) -> float:
        return 1.0 / (self.w0**2 * self.c_asrr)

    def k_value(self) -> float:
        if self.k is not None:
            return self.k
        return resonator.optimum_k_for_q(self.q_on, self.line(), self.w0)

    def line(self) -> TransmissionLineSection:
        return TransmissionLineSection.from_electrical(self.z0, self.beta_l, self.w0, length=30e-6)

    def state(self, q_on=None, kwl=None) -> AsrrState:
        """Active pixel boosted to q_on (default the fixture's own), coupling
        kept matched at the fixture's q_on; pass kwl to pin the device slopes
        while the bias (gm0) tunes the quality factor."""
        return AsrrState.from_targets(
            self.f0, self.lsrr, self.q_off, q_on=self.q_on if q_on is None else q_on,
            k=self.k_value(), c_asrr=self.c_asrr, vdd=self.vdd, vth=self.vth,
            kn_wl=kwl, kp_wl=kwl, kf=self.kf, gamma=self.gamma,
        )

    def boosted_srr(self) -> SrrParams:
        """The resonator as the line sees it with the block on."""
        return SrrParams(lsrr=self.lsrr, csrr=self.c_asrr, q_off=self.q_on, k=self.k_value())


def fixture_from_config(cfg: dict | None) -> Fixture:
    fx = Fixture()
    if not cfg:
        return fx
    fields = {}
    for key in ("f0", "c_asrr", "q_off", "q_on", "z0", "beta_l", "vdd", "vth", "kf", "gamma", "k"):
        if key in cfg:
            fields[key] = float(cfg[key])
    return replace(fx, **fields)


def _phase_at(srr, line, w, z0):
    """Transmission phase of the resonator-loaded section at one frequency."""
    z = resonator.reflected_impedance(srr, line, w)
    return -np.angle(z + 2.0 * z0)


def _numeric_resonance(srr, line, z0, w_guess):
    """Frequency where the transmission phase crosses zero."""
    lo, hi = w_guess * 0.99, w_guess * 1.01
    return oracle.brent(lambda w: _phase_at(srr, line, w, z0), lo, hi, xtol=1e-10 * w_guess)


def _random_matched(rng):
    f0 = rng.uniform(50e9, 300e9)
    w0 = 2.0 * math.pi * f0
    z0 = rng.uniform(40.0, 75.0)
    q = rng.uniform(20.0, 300.0)
    beta_l = rng.uniform(max(0.08, 2.8 / q), 0.5)
    line = TransmissionLineSection.from_electrical(z0, beta_l, w0, length=30e-6)
    lsrr = rng.uniform(20e-12, 200e-12)
    srr = SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q,
                    k=resonator.optimum_k_for_q(q, line, w0))
    return srr, line, w0, z0


def check_matched_anchor(rng, fx: Fixture) -> CheckResult:
    """Matched coupling pins |S11(w0)| = 1/3 and |S21(w0)| = -3.52 dB."""
    worst_s11 = 0.0
    worst_s21 = 0.0
    cases = [(fx.boosted_srr(), fx.line(), fx.w0, fx.z0)]
    cases += [_random_matched(rng) for _ in range(100)]
    for srr, line, w0, z0 in cases:
        z = resonator.reflected_impedance(srr, line, w0)
        s11 = abs(z / (z + 2.0 * z0))
        s21_db = 20.0 * math.log10(abs(2.0 * z0 / (z + 2.0 * z0)))
        worst_s11 = max(worst_s11, abs(s11 - 1.0 / 3.0))
        worst_s21 = max(worst_s21, abs(s21_db - TWO_THIRDS_DB))
    passed = worst_s11 <= 1e-3 and worst_s21 <= 0.05
    return CheckResult(
        "matched-anchor", passed,
        f"max ||S11|-1/3| = {worst_s11:.2e} (tol 1e-3), "
        f"max |S21dB+3.52| = {worst_s21:.2e} dB (tol 0.05)",
    )


def check_oracle_equivalence(rng, fx: Fixture) -> CheckResult:
    """Analytic S-parameters against the mesh solver, passive and active."""
    worst = 0.0
    for i in range(200):
        f0 = rng.uniform(50e9, 300e9)
        w0 = 2.0 * math.pi * f0
        z0 = rng.uniform(40.0, 75.0)
        beta_l = rng.uniform(0.05, 0.5)
        lsrr = rng.uniform(20e-12, 200e-12)
        k = rng.uniform(0.02, 0.25)
        active_case = i >= 100
        q_off = rng.uniform(5.0, 30.0) if active_case else rng.uniform(5.0, 200.0)
        srr = SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q_off, k=k)
        line = TransmissionLineSection.from_electrical(z0, beta_l, w0, length=30e-6)
        gm_neg = 0.0
        q_eff = q_off
        if active_case:
            loop = rng.uniform(0.3, 0.9)
            gm_neg = loop / srr.r_parallel()
            q_eff = q_off / (1.0 - loop)
        span = 3.0 * w0 / q_eff
        freqs = np.linspace(w0 - span, w0 + span, 121)
        analytic = resonator.s_parameters(srr, line, freqs, z0_ref=z0,
                                          include_line=True, gm_neg=gm_neg)
        mesh = oracle.sweep_two_port(
            oracle.MeshCircuit.from_parts(srr, line, gm_neg=gm_neg), freqs
        )
        worst = max(
            worst,
            float(np.max(np.abs(analytic.s11 - mesh.s11))),
            float(np.max(np.abs(analytic.s21 - mesh.s21))),
        )
    return CheckResult(
        "oracle-equivalence", worst <= 1e-12,
        f"max complex S11/S21 deviation analytic vs mesh = {worst:.2e} "
        f"(tol 1e-12, 100 passive + 100 active)",
    )


def check_mesh_properties(rng, fx: Fixture) -> CheckResult:
    """Mesh solver reciprocity, passivity, closed-form agreement, and the
    matched 4/9 absorbed-power split."""
    worst_recip = 0.0
    worst_passive = -1.0
    worst_closed = 0.0
    for _ in range(20):
        srr, line, w0, z0 = _random_matched(rng)
        span = 3.0 * w0 / srr.q_off
        w = np.linspace(w0 - span, w0 + span, 21)
        s = oracle.solve_two_port(oracle.MeshCircuit.from_parts(srr, line), w)
        s11, s12, s21 = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0]
        z1 = resonator.series_loading_impedance(srr, line, w)
        s21_closed = 2.0 * z0 / (z1 + 2.0 * z0)
        worst_recip = max(worst_recip, float(np.max(np.abs(s12 - s21))))
        worst_passive = max(
            worst_passive, float(np.max(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0))
        )
        worst_closed = max(
            worst_closed, float(np.max(np.abs(s21 - s21_closed) / np.abs(s21_closed)))
        )
    # energy split at resonance for the matched fixture
    z = resonator.reflected_impedance(fx.boosted_srr(), fx.line(), fx.w0)
    s11 = abs(z / (z + 2 * fx.z0))
    s21 = abs(2 * fx.z0 / (z + 2 * fx.z0))
    split_err = abs((1.0 - s11**2 - s21**2) - 4.0 / 9.0)
    passed = (
        worst_recip <= 1e-12
        and worst_passive <= 1e-9
        and worst_closed <= 1e-10
        and split_err <= 1e-9
    )
    return CheckResult(
        "mesh-properties", passed,
        f"reciprocity {worst_recip:.1e} (1e-12), passivity defect {worst_passive:.1e} (1e-9), "
        f"vs closed form {worst_closed:.1e} (1e-10), matched split err {split_err:.1e} (1e-9)",
    )


def check_transform_identity(rng, fx: Fixture) -> CheckResult:
    """Direct rational impedance versus the transformed-admittance sum, and
    resonance preservation by the parallel-RLC transform."""
    worst = 0.0
    worst_w0 = 0.0
    for _ in range(50):
        srr, line, w0, z0 = _random_matched(rng)
        m2 = resonator.mutual_inductance(srr, line) ** 2
        w = np.linspace(0.9 * w0, 1.1 * w0, 41)
        direct = resonator.series_loading_impedance(srr, line, w)
        w2m2 = w * w * m2
        y = (srr.r_series() / w2m2
             + 1j * w * srr.lsrr / w2m2
             + 1.0 / (1j * w * (w2m2 * srr.csrr)))
        other = 1j * w * line.ltl + 1.0 / y
        worst = max(worst, float(np.max(np.abs(direct - other) / np.abs(direct))))
        res = resonator.equivalent_resonator(srr, line)
        worst_w0 = max(worst_w0, abs(res.w0 / srr.w0 - 1.0))
    passed = worst <= 1e-6 and worst_w0 <= 1e-9
    return CheckResult(
        "impedance-transform", passed,
        f"direct vs transformed {worst:.1e} (tol 1e-6), resonance shift {worst_w0:.1e} (tol 1e-9)",
    )


def check_sensitivity_anchors(rng, fx: Fixture) -> CheckResult:
    """Reference-pixel sensitivities, each cross-checked by finite
    difference on the transmission model."""
    w0, z0, line = fx.w0, fx.z0, fx.line()
    state = fx.state()
    msgs = []
    ok = True

    # resonance shift per unit capacitance, against a numeric phase-zero root
    slope = active.sample_response(state, active.SampleDelta(1e-18, 0.0)).d_w0 / 1e-18
    srr0 = fx.boosted_srr()
    dc = 1e-3 * fx.c_asrr
    srr_p = SrrParams(lsrr=srr0.lsrr, csrr=srr0.csrr + dc, q_off=srr0.q_off, k=srr0.k)
    srr_m = SrrParams(lsrr=srr0.lsrr, csrr=srr0.csrr - dc, q_off=srr0.q_off, k=srr0.k)
    fd = (_numeric_resonance(srr_p, line, z0, w0 * 0.9995)
          - _numeric_resonance(srr_m, line, z0, w0 * 1.0005)) / (2.0 * dc)
    for name, val, ref, tol in [
        ("dw0/dC anchor", slope, -5.35e25, 0.02),
        ("dw0/dC fd", slope, fd, 0.01),
    ]:
        rel = abs(val - ref) / abs(ref)
        ok &= rel <= tol
        msgs.append(f"{name} {rel:.1e}")

    # phase-slope sensitivity to the ring loss: passive (Q=54) and boosted
    def fd_slope_vs_r(srr_q, q_on_of):
        def slope_at(r):
            srr_eff = SrrParams(srr_q.lsrr, srr_q.csrr, q_on_of(r), srr_q.k)
            return oracle.central_difference(lambda w: _phase_at(srr_eff, line, w, z0), w0)
        return oracle.central_difference(slope_at, srr_q.w0 * srr_q.lsrr * srr_q.q_off, 1e-4)

    passive_srr = fx.boosted_srr()  # Q = 54 resonator taken as-is
    anal_passive = resonator.phase_slope_vs_resistance(passive_srr, line, z0)
    fd_passive = fd_slope_vs_r(passive_srr, lambda r: r / (w0 * passive_srr.lsrr))
    gm0 = state.gm.block_gm()
    boost_srr = SrrParams(fx.lsrr, fx.c_asrr, fx.q_off, fx.k_value())
    anal_boost = anal_passive * (fx.q_on / fx.q_off) ** 2
    fd_boost = fd_slope_vs_r(
        boost_srr, lambda r: (r / (1.0 - gm0 * r)) / (w0 * boost_srr.lsrr)
    )
    for name, val, ref, tol in [
        ("dS/dR passive anchor", anal_passive, 13e-15, 0.02),
        ("dS/dR passive fd", fd_passive, anal_passive, 0.01),
        ("dS/dR boosted anchor", anal_boost, 380e-15, 0.02),
        ("dS/dR boosted fd", fd_boost, anal_boost, 0.01),
    ]:
        rel = abs(val - ref) / abs(ref)
        ok &= rel <= tol
        msgs.append(f"{name} {rel:.1e}")
    return CheckResult("sensitivity-anchors", bool(ok), ", ".join(msgs) + " (tol 2% anchors, 1% fd)")


def check_phase_slope_law(rng, fx: Fixture) -> CheckResult:
    """Matched phase slope (2/3)Q/w0 by finite difference, and the
    effective quality factor Q/3."""
    worst_fd = 0.0
    worst_q = 0.0
    for q in (20.0, 50.0, 100.0, 250.0):
        fxq = replace(fx, q_on=q)
        srr, line = fxq.boosted_srr(), fxq.line()
        res = resonator.equivalent_resonator(srr, line)
        expect = (2.0 / 3.0) * q / fxq.w0
        fd = oracle.central_difference(lambda w: _phase_at(srr, line, w, fxq.z0), fxq.w0)
        worst_fd = max(worst_fd, abs(fd - expect) / expect)
        worst_q = max(worst_q, abs(resonator.effective_q_out(res, fxq.z0) / (q / 3.0) - 1.0))
    passed = worst_fd <= 0.01 and worst_q <= 1e-6
    return CheckResult(
        "phase-slope-law", passed,
        f"fd vs (2/3)Q/w0 {worst_fd:.1e} (tol 1%), Q_out/(Q/3)-1 {worst_q:.1e} (tol 1e-6)",
    )


def check_detection_band(rng, fx: Fixture) -> CheckResult:
    """Closed-form band edges against numeric slope-sign roots of the
    linearized detection phase, plus the bandwidth limit law."""
    worst_edge = 0.0
    worst_bw = 0.0
    for q in (20.0, 50.0, 100.0, 250.0):
        fxq = replace(fx, q_on=q)
        w0 = fxq.w0
        res = resonator.equivalent_resonator(fxq.boosted_srr(), fxq.line())
        w_lo, w_hi, bw = resonator.detection_band(w0, q)
        span = 3.0 * w0 / q
        grid = np.linspace(w0 - span, w0 + span, 601)
        phase = resonator.detection_phase(res, fxq.z0, grid)
        roots = oracle.derivative_sign_roots(grid, phase)
        if len(roots) < 2:
            return CheckResult("detection-band", False, f"extrema not bracketed at Q={q}")
        worst_edge = max(worst_edge, abs(roots[0] - w_lo) / w0, abs(roots[-1] - w_hi) / w0)
        worst_bw = max(worst_bw, abs(bw * q / w0 - 1.0) * (8.0 * q * q))
    passed = worst_edge <= 1e-4 and worst_bw <= 1.0
    return CheckResult(
        "detection-band", passed,
        f"edge error {worst_edge:.1e}*w0 (tol 1e-4), bw-law error*8Q^2 {worst_bw:.2f} (tol 1)",
    )


def check_nonlinear_gm(rng, fx: Fixture) -> CheckResult:
    """Cycle-averaged transconductance against the oracle's Gauss-Legendre
    cycle average, the large-swing shortcut, and the compressed quality
    factor."""
    p = fx.state().gm
    worst = 0.0
    for v in np.linspace(0.0, 3.0 * p.vth, 50):
        exact = active.gm_avg_exact(v, p)
        quad = oracle.time_avg_gm(v, p)
        worst = max(worst, abs(exact - quad) / abs(exact))
    v4 = 4.0 * p.vth
    approx_rel = abs(active.gm_avg_exact(v4, p) - active.gm_avg_approx(v4, p)) / abs(
        active.gm_avg_exact(v4, p)
    )

    state = fx.state()
    p_lin = active.linear_power_limit(state)
    q_lin = active.q_on(state)
    worst_lin = 0.0
    qs = []
    for p_in in np.geomspace(0.01 * p_lin, 30.0 * p_lin, 25):
        q_nl, v = active.q_on_nonlinear(state, p_in)
        qs.append(q_nl)
        if p_in <= p_lin:
            worst_lin = max(worst_lin, abs(q_nl - q_lin) / q_lin)
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(qs, qs[1:]))
    passed = worst <= 1e-12 and approx_rel <= 0.05 and worst_lin <= 1e-6 and monotone
    return CheckResult(
        "nonlinear-gm", passed,
        f"exact vs quadrature {worst:.1e} (tol 1e-12), approx@4vth {approx_rel:.3f} (tol 0.05), "
        f"linear regime dev {worst_lin:.1e} (tol 1e-6), monotone={monotone}",
    )


def check_noise_laws(rng, fx: Fixture) -> CheckResult:
    """Quadratic Q scaling of the slope sensitivities and the dB laws of
    the phase-noise transfers."""
    kwl = fx.state().gm.kn_wl  # device geometry fixed, bias tunes the boost
    st1 = fx.state(q_on=50.0, kwl=kwl)
    st2 = fx.state(q_on=100.0, kwl=kwl)
    q1, q2 = active.q_on(st1), active.q_on(st2)
    r_fl = noise.flicker_sres_sensitivity(st2) / noise.flicker_sres_sensitivity(st1)
    r_sp = noise.supply_sres_sensitivity(st2) / noise.supply_sres_sensitivity(st1)
    qq = (q2 / q1) ** 2
    err_fl = abs(r_fl / qq - 1.0)
    err_sp = abs(r_sp / qq - 1.0)

    ctx = noise.NoiseContext(state=st2, z0=fx.z0, p_in=10e-6,
                             delta_omega_s=2.0 * math.pi * 20e6)
    ctx2 = replace(ctx, delta_omega_s=2.0 * ctx.delta_omega_s)
    d_double = noise.flicker_phase_noise(ctx2, 1e3, floor_at_white=False) - \
        noise.flicker_phase_noise(ctx, 1e3, floor_at_white=False)
    err_double = abs(d_double - 10.0 * math.log10(4.0))
    d_decade = noise.flicker_phase_noise(ctx, 1e4, floor_at_white=False) - \
        noise.flicker_phase_noise(ctx, 1e3, floor_at_white=False)
    err_decade = abs(d_decade + 10.0)

    ctx_half = replace(ctx, p_in=ctx.p_in / 2.0)
    err_carrier = abs(
        (noise.white_ssb_phase_noise(ctx_half) - noise.white_ssb_phase_noise(ctx))
        - 10.0 * math.log10(2.0)
    )

    w0 = fx.w0
    err_dc = abs(noise.input_phase_transfer(q2, w0, 0.0) - 1.0)
    err_corner = abs(noise.input_phase_transfer(q2, w0, w0 / (2.0 * q2)) - 2.0)

    worst = max(err_fl, err_sp, err_double, err_decade, err_carrier, err_dc, err_corner)
    return CheckResult(
        "noise-laws", worst <= 1e-9,
        f"Q^2 scaling {max(err_fl, err_sp):.1e}, doubling {err_double:.1e} dB, "
        f"decade {err_decade:.1e} dB, carrier {err_carrier:.1e} dB, "
        f"transfer dc/corner {max(err_dc, err_corner):.1e} (all tol 1e-9)",
    )


def check_pm_to_am(rng, fx: Fixture) -> CheckResult:
    """Conversion null at resonance and peak placement at the magnitude
    inflection."""
    srr, line = fx.boosted_srr(), fx.line()
    w0, q = fx.w0, fx.q_on
    step = w0 / (200.0 * q)
    grid = resonator.auto_grid(w0, q, 3.0, 200.0)
    sweep = resonator.s_parameters(srr, line, grid, z0_ref=fx.z0)
    gain_at_res = noise.pm_to_am_gain(sweep, w0, 2.0 * math.pi * 1e6)

    mag = np.abs(sweep.s21)
    dmag = noise.five_point_derivative(mag, grid)
    upper = grid > w0 + 2 * step
    i_peak = np.argmax(np.abs(dmag[upper]))
    w_peak = grid[upper][i_peak]
    # inflection = first zero of the second derivative on the upper skirt
    w_inflect = next((w for w in oracle.derivative_sign_roots(grid, dmag)
                      if w >= grid[upper][0]), None)
    ok_null = gain_at_res < -60.0
    ok_peak = w_inflect is not None and abs(w_peak - w_inflect) <= (grid[1] - grid[0]) * 1.000001
    return CheckResult(
        "pm-to-am", bool(ok_null and ok_peak),
        f"gain at resonance {gain_at_res:.1f} dB (tol < -60), "
        f"peak-to-inflection {abs(w_peak - (w_inflect or 0)) / (grid[1] - grid[0]):.2f} steps (tol 1)",
    )


def check_snr_invariance(rng, fx: Fixture) -> CheckResult:
    """The sample detuning scales the signal (phase-slope shift times the
    resonance offset) and the flicker noise (slope wobble times the same
    offset) alike, so both SNR formulas hold at every detuning, and the
    flicker phase-noise PSD carries the square of that same offset."""
    state = fx.state()
    band = noise.FLICKER_BAND
    kf = fx.kf
    snr_c = noise.snr_delta_c(state, kf, band)
    snr_r = noise.snr_delta_r(state, kf, band, 1.0)
    # signal slopes: the matched phase slope per unit capacitive detuning,
    # and per ohm of ring loss the boosted-loss sensitivity referred to the
    # ring through dR_boosted/dR = (Q_on/Q_off)^2
    res = resonator.equivalent_resonator(fx.boosted_srr(), fx.line())
    slope_c = resonator.output_phase_slope(res, fx.z0)
    slope_r = resonator.phase_slope_vs_resistance(fx.boosted_srr(), fx.line(), fx.z0) \
        * (fx.q_on / fx.q_off) ** 2
    # four-device flicker-driven slope wobble (amplitude weight 4)
    v_rms = noise.flicker_rms(kf, band)
    wobble = 4.0 * v_rms * noise.flicker_sres_sensitivity(state)
    worst = 0.0
    psd_gaps = []
    for df in (1e6, 10e6, 100e6):
        ctx = noise.NoiseContext(state=state, z0=fx.z0, p_in=10e-6,
                                 delta_omega_s=2.0 * math.pi * df)
        dw = ctx.delta_omega_s
        noise_phase = wobble * dw
        worst = max(worst, abs(slope_c * dw / noise_phase / snr_c - 1.0),
                    abs(slope_r * dw / noise_phase / snr_r - 1.0))
        psd_gaps.append(noise.flicker_phase_noise(ctx, 1e3, floor_at_white=False)
                        - 20.0 * math.log10(noise_phase))
    spread = max(psd_gaps) - min(psd_gaps)
    # and the direct identity 1/(6 a v R)
    ident = 1.0 / (6.0 * noise.alpha_flicker(state) * v_rms * active.boosted_resistance(state))
    err_ident = abs(ident / snr_c - 1.0)
    passed = worst <= 1e-12 and spread <= 1e-12 and err_ident <= 1e-12
    return CheckResult(
        "snr-invariance", bool(passed),
        f"signal/noise vs SNR formulas at 1/10/100 MHz {worst:.1e}, "
        f"flicker PSD vs noise^2 spread {spread:.1e} dB, "
        f"1/(6 a v R) identity {err_ident:.1e} (all tol 1e-12)",
    )


def reference_design_spec() -> DesignSpec:
    """A spec whose synthesis lands on the reference pixel (Q 10 -> 54)."""
    fx = Fixture()
    w0 = fx.w0
    line = fx.line()
    k = fx.k_value()
    r_off = w0 * k * k * fx.q_off * line.ltl
    il = r_off / (r_off + 2.0 * fx.z0)
    return DesignSpec(
        f0=fx.f0,
        n_pixels=1,
        il_budget=il,
        snr_dc_target=500.0,
        snr_dr_target=10.0,
        delta_r_ref=1.0,
        z0=fx.z0,
        line=line,
        kn=250e-6,
        kp=250e-6,
        vth=fx.vth,
        vdd=fx.vdd,
        kf_area=3.9e-23,
        c_per_area=0.015,
        l_srr_max=fx.lsrr,
        q_off=fx.q_off,
    )


def check_design_roundtrip(rng, fx: Fixture) -> CheckResult:
    """Synthesis lands on the reference pixel, re-analysis reproduces its
    own SNRs, the matched locus holds, and infeasible specs fail by name."""
    spec = reference_design_spec()
    result = synthesize(spec)
    state = AsrrState.from_targets(
        spec.f0, result.l_srr, spec.q_off, q_on=result.q_on, k=result.k, c_asrr=result.c_asrr,
        c_gm=result.c_gm, vdd=spec.vdd, vth=spec.vth, kf=result.kf_device,
    )
    band = spec.flicker_band
    err_c = abs(noise.snr_delta_c(state, result.kf_device, band) / result.snr_dc - 1.0)
    err_r = abs(
        noise.snr_delta_r(state, result.kf_device, band, spec.delta_r_ref) / result.snr_dr - 1.0
    )
    w0 = 2.0 * math.pi * spec.f0
    locus = abs(spec.line.beta_l(w0) * result.k**2 * result.q_on - 1.0)
    gm_r = result.gm_required * result.r_srr
    err_gm = abs(gm_r - (1.0 - 10.0 / 54.0))

    try:
        synthesize(replace(spec, il_budget=0.5))
        named = False
    except InfeasibleDesignError as exc:
        named = exc.constraint == "coupling limit"
    passed = err_c <= 1e-6 and err_r <= 1e-6 and locus <= 1e-9 and err_gm <= 1e-6 and named
    return CheckResult(
        "design-roundtrip", bool(passed),
        f"snr roundtrip {max(err_c, err_r):.1e} (tol 1e-6), locus {locus:.1e} (tol 1e-9), "
        f"gm*R vs 1-10/54 {err_gm:.1e} (tol 1e-6), infeasible-named={named}",
    )


ALL_CHECKS = [
    check_matched_anchor,
    check_oracle_equivalence,
    check_mesh_properties,
    check_transform_identity,
    check_sensitivity_anchors,
    check_phase_slope_law,
    check_detection_band,
    check_nonlinear_gm,
    check_noise_laws,
    check_pm_to_am,
    check_snr_invariance,
    check_design_roundtrip,
]


def run_all(config: dict | None = None, seed: int = 20260808) -> list[CheckResult]:
    fx = fixture_from_config(config)
    results = []
    for fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            res = fn(rng, fx)
        except Exception as exc:  # a crash is a failure, not an abort
            res = CheckResult(fn.__name__.removeprefix("check_"), False, f"raised {exc!r}")
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return results
