"""Cross-verification suite: every closed form against its independent
numerical route, plus the documented anchor values of the reference pixel.

Each check returns its measurements as (metric, value, tol) records and
raises if it cannot measure.  `run_check` runs one on its own
`random.Random(seed)`, so results are reproducible, names it after its
function, times it and turns the records into a CheckResult; `run_all`
runs the lot.  Checks draw only through `rng.uniform(a, b)`, one scalar at
a time; Python's own generator serves that without loading numpy.random.
The CLI `validate` subcommand and the acceptance tests both go through it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from . import active, noise, oracle, resonator
from .active import AsrrState
from .config import DRIVE_SPAN, KEYS, Pixel, parse_config_text
from .design import DesignSpec, InfeasibleDesignError, synthesize
from .resonator import SrrParams, TransmissionLineSection

TWO_THIRDS_DB = 20.0 * math.log10(2.0 / 3.0)  # -3.5218 dB matched transmission
SEED = 20260808
# the largest Q_on the suite checks.  On the reference pixel every check
# passes up to it; pm-to-am's central difference of the mesh, whose rounding
# grows with Q, reaches 0.95 of its tolerance below it and first fails near
# 1.1e4, sensitivity-anchors by 5e4 and snr-invariance by 1e5
Q_ON_MAX = 1e4
# the boosted Q_on/Fixture.q_base at which phase-slope-law and
# detection-band check a pixel: on the reference (q_base = q_off = 10)
# Q_on = 20, 50, 100 and 250
Q_LADDER = (2.0, 5.0, 10.0, 25.0)
Record = tuple[str, float, float]  # (metric, value, tol)
# A tol commented "worst X" is 100 X rounded up to a power of ten (1e-12
# for X = 0), X the worst value over seeds 1-60, 7129031 and SEED and over
# validate --config pixels: the benchmark's, q_on up to Q_ON_MAX, and gm0.


@dataclass
class CheckResult:
    """One check's (metric, value, tol) records.  It passes when it raised
    nothing and every value is at or below its tol; NaN fails."""

    name: str
    measurements: list[Record]
    error: str | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return (self.error is None and bool(self.measurements)
                and all(value <= limit for _, value, limit in self.measurements))

    @property
    def detail(self) -> str:
        if self.error is not None:
            return f"raised {self.error}"
        return ", ".join(f"{metric} {value:.2e} (tol {float(tol)!r})"
                         for metric, value, tol in self.measurements)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


# the reconstructed 200 GHz pixel, matched coupling: the README's example config
REFERENCE_CONFIG = parse_config_text("""
f0 = 200 GHz
lsrr = 54.12456 pH
q_off = 10
q_on = 54
z0 = 50 ohm
beta_l = 0.35 rad
""")


class Fixture(Pixel):
    """The pixel the checks take: REFERENCE_CONFIG with a configured file's
    keys over it, a configured gm0 replacing the reference q_on.  Its line,
    ring and state are the ones every command builds from that config; its
    w0 is the ring's own resonance and its q_off the configured one."""

    def __init__(self, config: dict | None = None):
        config = config or {}
        reference = {key: value for key, value in REFERENCE_CONFIG.items()
                     if not (key == "q_on" and "gm0" in config)}
        super().__init__({**reference, **config})

    @property
    def w0(self) -> float:
        return self.ring.w0

    @property
    def q_off(self) -> float:
        return self.state.srr.q_off

    @property
    def q_base(self) -> float:
        """The Q the checks' ladders are multiples of: q_off, or 1/beta_l
        on a line too short for it, so that the matched k at twice it,
        1/sqrt(2*beta_l*q_base), is at most 1/sqrt(2)."""
        return max(self.q_off, 1.0 / self.line.beta_l(self.w0))

    def at_q(self, q_on: float, **keys) -> Fixture:
        """This pixel boosted to q_on, with keys set: a configured k or gm0
        is dropped, so the coupling is matched at the new Q."""
        config = {key: value for key, value in self.cfg.items() if key not in ("k", "gm0")}
        return Fixture({**config, "q_on": q_on, **keys})


def _phase_at(srr, line, w):
    """Transmission phase of the resonator-loaded section at one frequency."""
    z = resonator.reflected_impedance(srr, line, w)
    return -np.angle(z + 2.0 * line.z0)


def _numeric_resonance(srr, line, w_guess):
    """Frequency where the transmission phase crosses zero."""
    lo, hi = w_guess * 0.99, w_guess * 1.01
    return oracle.brent(lambda w: _phase_at(srr, line, w), lo, hi, xtol=1e-10 * w_guess)


def _random_matched(rng, rho=resonator.MATCHED_RHO):
    """A passive ring and its line drawn over the suite's ranges, with k set
    for the coupling ratio rho = beta_l*k^2*Q: matched by default.  Q and
    beta_l are drawn so that k stays below 0.6 at any rho."""
    w0 = 2.0 * math.pi * rng.uniform(50e9, 300e9)
    z0 = rng.uniform(40.0, 75.0)
    q = rng.uniform(max(20.0, 6.0 * rho), 300.0)
    beta_l = rng.uniform(max(0.08, 2.8 * rho / q), 0.5)
    line = TransmissionLineSection.from_electrical(z0, beta_l, w0)
    lsrr = rng.uniform(20e-12, 200e-12)
    srr = SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q,
                    k=resonator.optimum_k_for_q(q, line, w0) * math.sqrt(rho))
    return srr, line, w0


def _random_off_locus(rng):
    """Ten draws of _random_matched, each at a rho drawn log-uniform over
    [0.1, 10]."""
    return [_random_matched(rng, 10.0 ** rng.uniform(-1.0, 1.0)) for _ in range(10)]


def check_matched_anchor(rng, fx: Fixture) -> list[Record]:
    """Matched coupling pins |S11(w0)| = 1/3 and |S21(w0)| = -3.52 dB."""
    worst_s11 = worst_s21 = 0.0
    cases = [(fx.ring, fx.line, fx.w0)]
    cases += [_random_matched(rng) for _ in range(100)]
    for srr, line, w0 in cases:
        s11, s21 = resonator.series_s(resonator.reflected_impedance(srr, line, w0), line.z0)
        s11, s21_db = abs(s11), 20.0 * math.log10(abs(s21))
        worst_s11 = max(worst_s11, abs(s11 - 1.0 / 3.0))
        worst_s21 = max(worst_s21, abs(s21_db - TWO_THIRDS_DB))
    return [("max ||S11|-1/3|", worst_s11, 1e-13),  # worst 2.8e-16
            ("max |S21dB+3.52| dB", worst_s21, 1e-12)]  # worst 4.4e-15


# circuits per stacked solve in oracle-equivalence.  The peak RSS of a
# fresh process running run_all (2 vCPU Xeon, numpy 2.4) was 38.9 MB with
# one solve per circuit, 39.1 MB in blocks of 20, 40.5 MB in blocks of 50
# and 53.1 MB with all 200 in one solve; 20 takes ten solves, not 200
ORACLE_BLOCK = 20


def _circuit_values(cases):
    """The analytic route's values of (srr, line, gm_neg) cases, an array
    each with one entry per case: r, L, C, M, L_line, z0 and gm_neg.  The
    mesh route derives its own in from_parts, so a wrong M shows."""
    return [np.array(v) for v in zip(*[
        (srr.r_series(), srr.lsrr, srr.csrr, resonator.mutual_inductance(srr, line),
         line.ltl, line.z0, gm_neg) for srr, line, gm_neg in cases])]


def _loaded_impedance(values, w):
    """The series impedance of ring i of _circuit_values at w[..., i]: its
    branch with gm_neg across C, reflected into the line, plus jwL_line, one
    value-form call per law for the whole stack; and its port impedances."""
    r, lsrr, csrr, m, ltl, z0, gm_neg = values
    z = resonator.coupled_impedance(m, w, resonator.branch_impedance(r, lsrr, csrr, w, gm_neg))
    return z + 1j * w * ltl, z0


def _mesh_stack(cases):
    """The mesh circuits of (srr, line, gm_neg) cases, each built and checked
    alone, stacked for one solve."""
    return oracle.MeshCircuit.stack([oracle.MeshCircuit.from_parts(srr, line, gm_neg=gm_neg)
                                     for srr, line, gm_neg in cases])


def check_oracle_equivalence(rng, fx: Fixture) -> list[Record]:
    """Complex S11 and S21 of the analytic route (series_s of
    _loaded_impedance) against the mesh solver's, for 100 passive and 100
    active rings over +-3 bandwidths: all drawn first, then both routes
    take ORACLE_BLOCK rings at a time on one broadcast grid."""
    cases, edges = [], []
    for active_case in [False] * 100 + [True] * 100:
        w0 = 2.0 * math.pi * rng.uniform(50e9, 300e9)
        z0 = rng.uniform(40.0, 75.0)
        beta_l = rng.uniform(0.05, 0.5)
        lsrr = rng.uniform(20e-12, 200e-12)
        k = rng.uniform(0.02, 0.25)
        q_off = rng.uniform(5.0, 30.0 if active_case else 200.0)
        srr = SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q_off, k=k)
        line = TransmissionLineSection.from_electrical(z0, beta_l, w0)
        loop = rng.uniform(0.3, 0.9) if active_case else 0.0  # gm_neg * r_parallel
        span = 3.0 * w0 / (q_off / (1.0 - loop))  # +-3 bandwidths of the boosted Q
        cases.append((srr, line, loop / srr.r_parallel()))
        edges.append((w0 - span, w0 + span))
    worst = 0.0
    for i in range(0, len(cases), ORACLE_BLOCK):
        block = cases[i:i + ORACLE_BLOCK]
        freqs = np.linspace(*np.array(edges[i:i + ORACLE_BLOCK]).T, 121)  # (121, rings)
        s11, s21 = resonator.series_s(*_loaded_impedance(_circuit_values(block), freqs))
        mesh = oracle.solve_two_port(_mesh_stack(block), freqs)
        worst = max(worst, float(np.max(np.abs(s11 - mesh[..., 0, 0]))),
                    float(np.max(np.abs(s21 - mesh[..., 1, 0]))))
    return [("max complex S11/S21 analytic vs mesh, 100 passive + 100 active", worst,
             1e-13)]  # worst 8.9e-16


def check_mesh_properties(rng, fx: Fixture) -> list[Record]:
    """The mesh's reciprocity (S12 vs S21), passivity and S21 against the
    analytic route's for 20 matched rings over +-3 bandwidths; the fixture's
    matched 4/9 absorbed-power split; and off the locus the mesh's absorbed
    share at resonance against absorbed_power_fraction."""
    draws = [_random_matched(rng) for _ in range(20)]
    cases = [(srr, line, 0.0) for srr, line, _ in draws]
    w0, q = np.array([(w0, srr.q_off) for srr, _, w0 in draws]).T
    w = np.linspace(w0 - 3.0 * w0 / q, w0 + 3.0 * w0 / q, 21)  # ring i on column i
    s = oracle.solve_two_port(_mesh_stack(cases), w)
    s11, s12, s21 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0]
    s21_closed = resonator.series_s(*_loaded_impedance(_circuit_values(cases), w))[1]
    worst_recip = float(np.max(np.abs(s12 - s21)))
    worst_passive = float(np.max(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0))
    worst_closed = float(np.max(np.abs(s21 - s21_closed) / np.abs(s21_closed)))
    # energy split at resonance for the matched fixture
    s11, s21 = map(abs, resonator.series_s(
        resonator.reflected_impedance(fx.ring, fx.line, fx.w0), fx.line.z0))
    split_err = abs((1.0 - s11**2 - s21**2) - 4.0 / 9.0)
    # off the locus: the share the ring absorbs at its resonance, read off
    # the mesh with the segment's own jwL_line taken off S21 as in
    # pm-to-am, is A(rho); the swing and linear_power_limit scale with it.
    # One stacked solve; the rest stays scalar, as numpy would round it
    # differently
    draws = _random_off_locus(rng)
    mesh_s21 = oracle.solve_two_port(_mesh_stack([(srr, line, 0.0) for srr, line, _ in draws]),
                                     np.array([w0 for _, _, w0 in draws]))[:, 1, 0]
    worst_absorbed = 0.0
    for (srr, line, w0), s21 in zip(draws, mesh_s21):
        s21 = 1.0 / (1.0 / s21 - 1j * w0 * line.ltl / (2.0 * line.z0))
        absorbed = 1.0 - abs(1.0 - s21) ** 2 - abs(s21) ** 2
        law = resonator.absorbed_power_fraction(resonator.coupling_ratio(srr, line))
        worst_absorbed = max(worst_absorbed, abs(absorbed / law - 1.0))
    return [
        ("reciprocity", worst_recip, 1e-13),  # worst 1.0e-15
        ("passivity defect", worst_passive, 1e-12),  # worst -1.6e-2, never above 0
        ("vs closed form", worst_closed, 1e-13),  # worst 8.4e-16
        ("matched split err", split_err, 1e-13),  # worst 1.7e-16
        # measured 2.1e-15; 6.6e-15 the worst by the rule's seeds and pixels
        ("absorbed vs A(rho) off the locus", worst_absorbed, 1e-14),
    ]


def check_impedance_transform(rng, fx: Fixture) -> list[Record]:
    """The analytic route's direct impedance against the ring's r, L and C
    referred into the line by (wM)^2 and summed as admittances, for 50
    matched rings over w0 +-10%, both from one _circuit_values; and at each
    resonance that sum against the real R' = rho*z0 of coupling_ratio, so
    the transform keeps the resonance."""
    def transformed(w, r, lsrr, csrr, m2):
        # the ring's series r, L and C referred into the line by (w*M)^2
        w2m2 = w * w * m2
        return 1.0 / (r / w2m2 + 1j * w * lsrr / w2m2 + 1.0 / (1j * w * (w2m2 * csrr)))

    draws = [_random_matched(rng) for _ in range(50)]
    values = _circuit_values([(srr, line, 0.0) for srr, line, _ in draws])
    r, lsrr, csrr, m, ltl = values[:5]
    m2 = np.array([mi**2 for mi in m.tolist()])  # squared as floats: numpy may round apart
    w0 = np.array([w0 for _, _, w0 in draws])
    w = np.linspace(0.9 * w0, 1.1 * w0, 41)  # ring i on column i
    other = transformed(w, r, lsrr, csrr, m2) + 1j * w * ltl
    direct = _loaded_impedance(values, w)[0]
    worst = float(np.max(np.abs(direct - other) / np.abs(direct)))
    # at the resonance in scalar arithmetic, which numpy would round differently
    worst_r = 0.0
    for (srr, line, _), ring in zip(draws, zip(*(v.tolist() for v in (r, lsrr, csrr, m2)))):
        r_rho = resonator.coupling_ratio(srr, line) * line.z0
        worst_r = max(worst_r, abs(transformed(srr.w0, *ring) - r_rho) / r_rho)
    return [("direct vs transformed", worst, 1e-10),  # worst 1.2e-13
            ("R'(w0) vs rho*z0", worst_r, 1e-10)]  # worst 1.4e-13


def check_sensitivity_anchors(rng, fx: Fixture) -> list[Record]:
    """Pixel sensitivities, each cross-checked by finite difference on the
    transmission model, and against its documented value when the fixture
    is the reference pixel."""
    w0, line, srr0 = fx.w0, fx.line, fx.ring
    state = fx.state

    def rel(val, ref):
        return abs(val - ref) / abs(ref)

    # resonance shift per unit capacitance, against a numeric phase-zero root
    slope = active.resonance_shift(state, 1e-18) / 1e-18
    dc = 1e-3 * srr0.csrr
    fd = (_numeric_resonance(replace(srr0, csrr=srr0.csrr + dc), line, w0 * 0.9995)
          - _numeric_resonance(replace(srr0, csrr=srr0.csrr - dc), line, w0 * 1.0005)
          ) / (2.0 * dc)

    # phase-slope sensitivity to the ring loss: passive (Q=54) and boosted;
    # the r step is 1e-4 of r or, if nearer, of its distance to the boost pole r_pole
    def fd_slope_vs_r(srr_q, q_on_of, line, r_pole=math.inf):
        def slope_at(r):
            srr_eff = SrrParams(srr_q.lsrr, srr_q.csrr, q_on_of(r), srr_q.k)
            return oracle.central_difference(lambda w: _phase_at(srr_eff, line, w), srr_q.w0)
        r0 = srr_q.w0 * srr_q.lsrr * srr_q.q_off
        return oracle.central_difference(slope_at, r0, 1e-4 * min(1.0, (r_pole - r0) / r0))

    def passive_q(srr):
        return lambda r: r / (srr.w0 * srr.lsrr)

    # the boosted ring taken as-is, and the ring at q_off under the block
    anal_passive = resonator.phase_slope_vs_resistance(srr0, line)
    fd_passive = fd_slope_vs_r(srr0, passive_q(srr0), line)
    gm0 = state.gm.gm0
    anal_boost = anal_passive * (srr0.q_off / state.srr.q_off) ** 2
    fd_boost = fd_slope_vs_r(state.srr, lambda r: r / (1.0 - gm0 * r) / (w0 * srr0.lsrr),
                             line, 1 / gm0)
    # LS(rho)*C for passive rings off the locus
    worst_off = max(rel(fd_slope_vs_r(srr, passive_q(srr), ln),
                        resonator.phase_slope_vs_resistance(srr, ln))
                    for srr, ln, _ in _random_off_locus(rng))
    records = [
        ("dw0/dC anchor", rel(slope, -5.35e25), 0.02),
        # worst 6.3e-7: the difference's truncation (5/8)(dC/C)^2
        ("dw0/dC fd", rel(slope, fd), 1e-4),
        ("dS/dR passive anchor", rel(anal_passive, 13e-15), 0.02),
        ("dS/dR passive fd", rel(fd_passive, anal_passive), 0.01),
        ("dS/dR boosted anchor", rel(anal_boost, 380e-15), 0.02),
        ("dS/dR boosted fd", rel(fd_boost, anal_boost), 0.01),
        # measured 5.5e-7, the difference's truncation; 6.7e-7 the worst by
        # the rule's seeds and pixels
        ("dS/dR fd vs LS(rho)*C off the locus", worst_off, 1e-6),
    ]
    # the documented values are the reference pixel's, not a configured one's
    if fx.cfg == REFERENCE_CONFIG:
        return records
    return [r for r in records if not r[0].endswith(" anchor")]


def check_phase_slope_law(rng, fx: Fixture) -> list[Record]:
    """Matched phase slope (2/3)Q/w0 by finite difference, and the
    effective quality factor slope*w0/2 = Q/3, with k matched at each Q
    of a ladder 2-25 times q_base; off the locus, the finite-difference
    slope against P(rho)*Q/w0."""
    worst_fd = worst_q = 0.0
    for q in [ratio * fx.q_base for ratio in Q_LADDER]:
        fxq = fx.at_q(q)
        srr, line = fxq.ring, fxq.line
        expect = (2.0 / 3.0) * q / fxq.w0
        fd = oracle.central_difference(lambda w: _phase_at(srr, line, w), fxq.w0)
        worst_fd = max(worst_fd, abs(fd - expect) / expect)
        q_out = resonator.output_phase_slope(srr, line) * fxq.w0 / 2.0
        worst_q = max(worst_q, abs(q_out / (q / 3.0) - 1.0))
    worst_off = 0.0
    for srr, line, w0 in _random_off_locus(rng):
        fd = oracle.central_difference(lambda w: _phase_at(srr, line, w), w0)
        worst_off = max(worst_off, abs(fd / resonator.output_phase_slope(srr, line) - 1.0))
    # off the locus: measured 2.7e-7, the difference's truncation; 3.4e-7
    # the worst by the rule's seeds and pixels
    return [("fd vs (2/3)Q/w0", worst_fd, 0.01),
            ("Q_out/(Q/3)-1", worst_q, 1e-12),  # worst 4.2e-15
            ("fd vs P(rho)Q/w0 off the locus", worst_off, 5e-7)]


def check_detection_band(rng, fx: Fixture) -> list[Record]:
    """Closed-form band edges against numeric slope-sign roots of the
    linearized detection phase, plus the bandwidth limit law, over the Q
    ladder."""
    worst_edge = worst_bw = 0.0
    for q in [ratio * fx.q_base for ratio in Q_LADDER]:
        fxq = fx.at_q(q)
        w0 = fxq.w0
        w_lo, w_hi, bw = resonator.detection_band(w0, q)
        grid = resonator.auto_grid(w0, q)
        phase = resonator.detection_phase(fxq.ring, fxq.line, grid)
        roots = oracle.derivative_sign_roots(grid, phase)
        if len(roots) < 2:
            raise ValueError(f"extrema not bracketed at Q={q}")
        worst_edge = max(worst_edge, abs(roots[0] - w_lo) / w0, abs(roots[-1] - w_hi) / w0)
        worst_bw = max(worst_bw, abs(bw * q / w0 - 1.0))
    return [("edge error/w0", worst_edge, 1e-4),
            ("bw-law error", worst_bw, 1e-13)]  # worst 4.4e-16


def check_nonlinear_gm(rng, fx: Fixture) -> list[Record]:
    """Cycle-averaged transconductance against the oracle's Gauss-Legendre
    cycle average, and the compressed quality factor."""
    state = fx.state
    p = state.gm
    worst = 0.0
    for v in np.linspace(0.0, 3.0 * p.vth, 50):
        exact = active.gm_avg_exact(v, p)
        quad = oracle.time_avg_gm(v, p)
        worst = max(worst, abs(exact - quad) / abs(exact))

    p_lin = active.linear_power_limit(state)
    q_lin = active.q_on(state)
    worst_lin = 0.0
    qs = []
    for p_in in np.geomspace(DRIVE_SPAN[0] * p_lin, DRIVE_SPAN[1] * p_lin, 25):
        q_nl, v = active.q_on_nonlinear(state, p_in)
        qs.append(q_nl)
        if p_in <= p_lin:
            worst_lin = max(worst_lin, abs(q_nl - q_lin) / q_lin)
    return [
        ("exact vs quadrature", worst, 1e-12),
        ("linear regime dev", worst_lin, 1e-12),  # worst 0
        ("largest rise of Q with power", max(b / a - 1.0 for a, b in zip(qs, qs[1:])), 1e-12),
    ]


def check_noise_laws(rng, fx: Fixture) -> list[Record]:
    """Quadratic Q scaling of the slope sensitivities, the dB laws of the
    phase-noise transfers, and the flicker RMS against the oracle's
    quadrature of kf/f over the default band and five seeded ones, each
    one to eight decades wide from f_lo in [0.01, 100] Hz."""
    kwl = fx.state.gm.k_wl  # device geometry fixed, bias tunes the boost
    st1 = fx.at_q(5.0 * fx.q_base, k_wl=kwl).state
    st2 = fx.at_q(10.0 * fx.q_base, k_wl=kwl).state
    q1, q2 = active.q_on(st1), active.q_on(st2)
    r_fl = noise.flicker_sres_sensitivity(st2) / noise.flicker_sres_sensitivity(st1)
    r_sp = noise.supply_sres_sensitivity(st2) / noise.supply_sres_sensitivity(st1)
    qq = (q2 / q1) ** 2
    err_fl = abs(r_fl / qq - 1.0)
    err_sp = abs(r_sp / qq - 1.0)

    dw = 2.0 * math.pi * KEYS["delta_f_s"].default
    p_in, temp = KEYS["p_in"].default, KEYS["temperature"].default
    flicker_1k = noise.flicker_phase_noise(st2, dw, 1e3)
    err_double = abs(noise.flicker_phase_noise(st2, 2.0 * dw, 1e3) - flicker_1k
                     - 10.0 * math.log10(4.0))
    err_decade = abs(noise.flicker_phase_noise(st2, dw, 1e4) - flicker_1k + 10.0)

    err_carrier = abs(noise.white_ssb_phase_noise(st2, p_in / 2.0, temp)
                      - noise.white_ssb_phase_noise(st2, p_in, temp) - 10.0 * math.log10(2.0))

    kf = fx.state.gm.kf
    worst_rms = 0.0
    f_los = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(5)]
    bands = [(KEYS["f_lo"].default, KEYS["f_hi"].default)]
    bands += [(f, f * 10.0 ** rng.uniform(1.0, 8.0)) for f in f_los]
    for band in bands:
        quad = math.sqrt(oracle.flicker_power(kf, band))
        worst_rms = max(worst_rms, abs(noise.flicker_rms(kf, band) / quad - 1.0))

    w0 = fx.w0
    err_dc = abs(noise.input_phase_transfer(q2, w0, 0.0) - 1.0)
    err_corner = abs(noise.input_phase_transfer(q2, w0, w0 / (2.0 * q2)) - 2.0)

    return [
        ("Q^2 scaling", max(err_fl, err_sp), 1e-13),  # worst 8.9e-16
        ("doubling dB", err_double, 1e-11),  # worst 2.9e-14
        ("decade dB", err_decade, 1e-11),  # worst 2.8e-14
        ("carrier dB", err_carrier, 1e-11),  # worst 2.8e-14
        ("transfer dc/corner", max(err_dc, err_corner), 1e-13),  # worst 4.4e-16
        ("flicker rms vs quadrature", worst_rms, 1e-13),  # worst 5.6e-16
    ]


def check_pm_to_am(rng, fx: Fixture) -> list[Record]:
    """The closed-form PM-to-AM conversion |d|S21|/dw| * offset/|S21|
    against the same ratio from a central difference of the mesh's |S21|;
    the closed form's null at the mesh's |S21| extremum; and the closed
    form's peak slope at the mesh's magnitude inflection.

    The mesh's S21 includes the segment's own jwL_line, which the closed
    form leaves out.  With no shunt capacitance the mesh is one series
    element, 2*z0*(1/S21 - 1), so that term is taken off it before the
    difference and both sides see the same two-port.
    """
    srr, line, w0 = fx.ring, fx.line, fx.w0
    circ = oracle.MeshCircuit.from_parts(srr, line)
    grid = resonator.auto_grid(w0, srr.q_off, 200.0)
    step, h, offset = grid[1] - grid[0], 1e-4 * w0 / srr.q_off, 2.0 * math.pi * 1e6
    w = np.stack([grid - h, grid + h], axis=1).ravel()  # increasing: h << step
    mesh = np.abs(1.0 / (1.0 / oracle.sweep_two_port(circ, w).s21
                         - 1j * w * line.ltl / (2.0 * circ.z0)))
    lo, hi = mesh[0::2], mesh[1::2]
    slope, mag = (hi - lo) / (2.0 * h), (hi + lo) / 2.0
    numeric = np.abs(slope) * offset / mag
    closed = 10.0 ** (noise.pm_to_am_gain(srr, line, grid, offset) / 20.0)
    w_extremum = min(oracle.derivative_sign_roots(grid, mag), key=lambda w: abs(w - w0))
    upper = grid > w0 + 2 * step
    w_peak = grid[upper][np.argmax((closed * mag)[upper])]
    # inflection = first zero of the mesh's |S21|'' on the upper skirt
    # (none found: inf steps from the peak)
    w_inflect = next((w for w in oracle.derivative_sign_roots(grid, slope)
                      if w >= grid[upper][0]), math.inf)
    return [
        # measured: the difference's truncation, 3.4e-8 at every Q, to
        # which its rounding adds past Q ~ 1e4 (3.9e-8 there, 1.7e-7 at 1e5)
        ("max conversion closed vs mesh / max",
         float(np.max(np.abs(closed - numeric)) / np.max(numeric)), 5e-8),
        # the largest float below -60 keeps the gate strict: gain < -60 dB
        ("gain at resonance dB", noise.pm_to_am_gain(srr, line, w_extremum, offset),
         math.nextafter(-60.0, -math.inf)),
        ("peak-to-inflection steps", abs(w_peak - w_inflect) / step, 1.000001),
    ]


def check_snr_invariance(rng, fx: Fixture) -> list[Record]:
    """The sample detuning scales the signal (phase-slope shift times the
    resonance offset) and the flicker noise (slope wobble times the same
    offset) alike, so both SNR formulas hold at every detuning, and the
    flicker phase-noise PSD carries the square of that same offset."""
    state = fx.state
    band = KEYS["f_lo"].default, KEYS["f_hi"].default
    snr_c = noise.snr_delta_c(state, band)
    snr_r = noise.snr_delta_r(state, band, KEYS["delta_r_ref"].default)
    # signal slopes: the matched phase slope per unit capacitive detuning,
    # and per ohm of ring loss the boosted-loss sensitivity referred to the
    # ring through dR_boosted/dR = (Q_on/Q_off)^2
    slope_c = resonator.output_phase_slope(fx.ring, fx.line)
    slope_r = resonator.phase_slope_vs_resistance(fx.ring, fx.line) \
        * (fx.ring.q_off / state.srr.q_off) ** 2
    # four-device flicker-driven slope wobble (amplitude weight 4)
    v_rms = noise.flicker_rms(state.gm.kf, band)
    wobble = 4.0 * v_rms * noise.flicker_sres_sensitivity(state)
    worst = 0.0
    psd_gaps = []
    for df in (1e6, 10e6, 100e6):
        dw = 2.0 * math.pi * df
        noise_phase = wobble * dw
        worst = max(worst, abs(slope_c * dw / noise_phase / snr_c - 1.0),
                    abs(slope_r * dw / noise_phase / snr_r - 1.0))
        psd_gaps.append(noise.flicker_phase_noise(state, dw, 1e3) - 20.0 * math.log10(noise_phase))
    spread = max(psd_gaps) - min(psd_gaps)
    # and the direct identity 1/(6 a v R)
    ident = 1.0 / (6.0 * noise.alpha_flicker(state) * v_rms * active.boosted_resistance(state))
    err_ident = abs(ident / snr_c - 1.0)
    return [
        ("signal/noise vs SNR formulas at 1/10/100 MHz", worst, 1e-12),
        ("flicker PSD vs noise^2 spread dB", spread, 1e-12),
        ("1/(6 a v R) identity", err_ident, 1e-12),
    ]


def reference_design_spec() -> DesignSpec:
    """A spec whose synthesis lands on the reference pixel (Q 10 -> 54): its
    loss budget and inductance ceiling are the unboosted ring's own."""
    fx = Fixture()
    return Fixture({
        "snr_dc_target": 500.0, "snr_dr_target": 10.0, "kn": 250e-6, "kp": 250e-6,
        "kf_area": 3.9e-23, "c_per_area": 0.015,
        "il_budget": resonator.array_insertion_loss(1, fx.state.srr, fx.line),
        "l_srr_max": fx.state.srr.lsrr,
    }).spec


def check_design_roundtrip(rng, fx: Fixture) -> list[Record]:
    """Synthesis lands on the reference pixel, re-analysis reproduces its
    own SNRs, a spec whose targets lower the ring loss lands its binding SNR
    on target, the matched locus holds, and infeasible specs fail by name."""

    def reanalysed_snrs(spec, result):
        state = AsrrState.from_targets(
            spec.f0, result.l_srr, spec.q_off, line=spec.line, q_on=result.q_on, k=result.k,
            c_asrr=result.c_asrr, vdd=spec.vdd, vth=spec.vth, kf=result.kf_device,
        )
        band = spec.flicker_band
        return (noise.snr_delta_c(state, band),
                noise.snr_delta_r(state, band, spec.delta_r_ref))

    spec = reference_design_spec()
    result = synthesize(spec)
    snr_c, snr_r = reanalysed_snrs(spec, result)
    err_c = abs(snr_c / result.snr_dc - 1.0)
    err_r = abs(snr_r / result.snr_dr - 1.0)
    hungry = replace(spec, snr_dc_target=3.0 * spec.snr_dc_target,
                     snr_dr_target=4.0 * spec.snr_dr_target)
    snr_c, snr_r = reanalysed_snrs(hungry, synthesize(hungry))
    err_bind = abs(min(snr_c / hungry.snr_dc_target, snr_r / hungry.snr_dr_target) - 1.0)
    w0 = 2.0 * math.pi * spec.f0
    locus = abs(spec.line.beta_l(w0) * result.k**2 * result.q_on - 1.0)
    gm_r = result.gm_required * result.r_srr
    err_gm = abs(gm_r - (1.0 - 10.0 / 54.0))

    try:
        synthesize(replace(spec, il_budget=0.5))
        unnamed = 1
    except InfeasibleDesignError as exc:
        unnamed = int(exc.constraint != "coupling limit")
    return [
        ("snr roundtrip", max(err_c, err_r), 1e-12),
        ("binding snr on target", err_bind, 1e-12),
        ("locus", locus, 1e-13),  # worst 2.2e-16
        ("gm*R vs 1-10/54", err_gm, 1e-12),  # worst 0
        ("infeasible spec not named", unnamed, 0),
    ]


ALL_CHECKS = [
    check_matched_anchor,
    check_oracle_equivalence,
    check_mesh_properties,
    check_impedance_transform,
    check_sensitivity_anchors,
    check_phase_slope_law,
    check_detection_band,
    check_nonlinear_gm,
    check_noise_laws,
    check_pm_to_am,
    check_snr_invariance,
    check_design_roundtrip,
]


def run_check(fn, fx: Fixture, seed: int = SEED) -> CheckResult:
    """Run one check on a random.Random seeded with seed, named after its
    function (check_pm_to_am -> pm-to-am) and timed; a crash is recorded as
    its error."""
    name = fn.__name__.removeprefix("check_").replace("_", "-")
    rng = random.Random(seed)
    t0 = time.perf_counter()
    try:
        measurements, error = fn(rng, fx), None
    except Exception as exc:  # a crash is a failure, not an abort
        measurements, error = [], repr(exc)
    return CheckResult(name, measurements, error, time.perf_counter() - t0)


def run_all(config: dict | None = None, seed: int = SEED) -> list[CheckResult]:
    """Every check on the pixel of config over the reference one.  A pixel
    that cannot be built, that has no finite linear power limit (a decoupled
    ring has none), whose block lies outside the domain of the compression
    law the suite checks (over nonlinear-gm's drives too), whose Q_on is
    above Q_ON_MAX, or whose ring's dw0/dC = -w0/(2*C), which
    sensitivity-anchors differences, overflows, raises ValueError before any
    check runs."""
    fx = Fixture(config)
    active.check_compression_domain(fx.state.gm)
    p_top = DRIVE_SPAN[1] * active.linear_power_limit(fx.state)
    try:  # a boost under about 1.1 compresses Q below q_off by nonlin's top drive
        active.q_on_nonlinear(fx.state, p_top)
    except ValueError as exc:
        raise ValueError(f"nonlinear-gm drives the pixel to {DRIVE_SPAN[1]:g} x "
                         f"p_in_lin: {exc}") from None
    q = active.q_on(fx.state)
    if not q <= Q_ON_MAX:
        raise ValueError(f"validate checks Q_on up to {Q_ON_MAX:g}, where pm-to-am's mesh "
                         f"difference still rounds within its tolerance; this pixel has "
                         f"q_on = {q!r}")
    srr = fx.ring
    if not math.isfinite(srr.w0 / (2.0 * srr.csrr)):
        raise ValueError(f"validate checks rings whose dw0/dC = -w0/(2*C) is finite; this "
                         f"pixel's ring has C = {srr.csrr:g} F and w0 = 1/sqrt(L*C) = "
                         f"{srr.w0:.3g} rad/s, where dw0/dC overflows")
    return [run_check(fn, fx, seed) for fn in ALL_CHECKS]
