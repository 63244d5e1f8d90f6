"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here or inside the named check in
asrrkit.validate; the checks are the same ones `asrrkit validate` runs.
"""

import time

import numpy as np

from asrrkit import validate
from asrrkit.validate import Fixture


def run_check(fn, seed=20260808):
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    res = fn(rng, Fixture())
    res.elapsed = time.perf_counter() - t0
    return res


def report(criterion, res, budget=None):
    tag = "PASS" if res.passed else "FAIL"
    extra = f" [{res.elapsed:.1f}s budget {budget:.0f}s]" if budget else ""
    print(f"CRITERION {criterion}: {tag} - {res.detail}{extra}")
    assert res.passed, res.detail
    if budget is not None:
        assert res.elapsed < budget, f"runtime {res.elapsed:.1f}s exceeds {budget}s"


def test_criterion_01_matched_coupling_anchor():
    # 100 random matched instances: |S11| = 1/3 +/- 1e-3 and
    # |S21| = -3.52 dB +/- 0.05 dB at resonance, under 5 s
    report(1, run_check(validate.check_matched_anchor), budget=5.0)


def test_criterion_02_oracle_equivalence():
    # analytic vs mesh complex S11 and S21 within 1e-12 across +/-3
    # bandwidths, 100 passive + 100 stable active instances, under 20 s
    report(2, run_check(validate.check_oracle_equivalence), budget=20.0)


def test_criterion_03_sensitivity_anchors():
    # dw0/dC = -5.35e25 rad/(s F), dS/dR = 13e-15 and 380e-15 s/(rad ohm),
    # each within 2% and cross-checked by finite differences within 1%
    report(3, run_check(validate.check_sensitivity_anchors))


def test_criterion_04_phase_slope_law():
    # slope (2/3)Q/w0 within 1% by finite difference and Q_out = Q/3 within
    # 1e-6, over Q in {20, 50, 100, 250}
    report(4, run_check(validate.check_phase_slope_law))


def test_criterion_05_detection_band():
    # closed-form band edges vs numeric slope roots within 1e-4*w0 for
    # Q >= 20; bandwidth law error below 1/(8Q^2)
    report(5, run_check(validate.check_detection_band))


def test_criterion_06_nonlinear_gm():
    # cycle-average vs Gauss-Legendre quadrature within 1e-12 on
    # [0, 3vth]; segmented shortcut within 5% at 4vth; compressed Q
    # monotone and linear below the compression power within 1e-6
    report(6, run_check(validate.check_nonlinear_gm))


def test_criterion_07_noise_laws():
    # Q^2 sensitivity scaling, 6.02 dB per detuning doubling, -10 dB per
    # offset decade, dB-for-dB carrier tracking, unity/2x transfer points,
    # all to 1e-9
    report(7, run_check(validate.check_noise_laws))


def test_criterion_08_pm_to_am():
    # conversion below -60 dB at resonance; peak within one grid step of
    # the magnitude inflection
    report(8, run_check(validate.check_pm_to_am))


def test_criterion_09_snr_detuning_invariance():
    # signal (phase slope x detuning) over flicker noise (slope wobble x
    # detuning) equals both SNR formulas at 1/10/100 MHz to 1e-12, and the
    # flicker PSD scales with the same squared detuning
    report(9, run_check(validate.check_snr_invariance))


def test_criterion_10_design_roundtrip():
    # synthesize -> re-analyze reproduces SNRs to 1e-6; matched locus to
    # 1e-9; infeasible coupling produces a named structured failure
    report(10, run_check(validate.check_design_roundtrip))


def test_criterion_10_full_validate_under_budget():
    # the complete validate suite (the CLI's exit gate) finishes well
    # inside 60 s and is all green
    t0 = time.perf_counter()
    results = validate.run_all()
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    print(f"CRITERION 10b: {'PASS' if not failures else 'FAIL'} - full validate "
          f"{len(results)} checks in {elapsed:.1f}s (budget 60s)")
    assert not failures, failures
    assert elapsed < 60.0
