"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance lives only in the named check in asrrkit.validate, as the
tol of one of its (metric, value, tol) records; the comments below restate
them for the reader.  The checks run through `validate.run_check`, as in
`asrrkit validate`.
"""

import time

from asrrkit import validate
from asrrkit.validate import Fixture


def report(criterion, res, budget=None):
    tag = "PASS" if res.passed else "FAIL"
    extra = f" [{res.elapsed:.1f}s budget {budget:.0f}s]" if budget else ""
    print(f"CRITERION {criterion}: {tag} - {res.detail}{extra}")
    assert res.passed, res.detail
    if budget is not None:
        assert res.elapsed < budget, f"runtime {res.elapsed:.1f}s exceeds {budget}s"


def test_criterion_01_matched_coupling_anchor():
    # 100 random matched instances: |S11| = 1/3 +/- 1e-13 and
    # |S21| = -3.52 dB +/- 1e-12 dB at resonance, under 5 s
    report(1, validate.run_check(validate.check_matched_anchor, Fixture()), budget=5.0)


def test_criterion_02_oracle_equivalence():
    # analytic vs mesh complex S11 and S21 within 1e-12 across +/-3
    # bandwidths, 100 passive + 100 stable active instances, under 20 s
    report(2, validate.run_check(validate.check_oracle_equivalence, Fixture()), budget=20.0)


def test_criterion_03_sensitivity_anchors():
    # dw0/dC = -5.35e25 rad/(s F), dS/dR = 13e-15 and 380e-15 s/(rad ohm),
    # each within 2% and cross-checked by finite differences within 1%
    report(3, validate.run_check(validate.check_sensitivity_anchors, Fixture()))


def test_criterion_04_phase_slope_law():
    # slope (2/3)Q/w0 within 1% by finite difference and Q_out = Q/3 within
    # 1e-12, over Q in {20, 50, 100, 250}
    report(4, validate.run_check(validate.check_phase_slope_law, Fixture()))


def test_criterion_05_detection_band():
    # closed-form band edges vs numeric slope roots within 1e-4*w0 for
    # Q >= 20; bandwidth law error below 1/(8Q^2)
    report(5, validate.run_check(validate.check_detection_band, Fixture()))


def test_criterion_06_nonlinear_gm():
    # cycle-average vs Gauss-Legendre quadrature within 1e-12 on
    # [0, 3vth]; segmented shortcut within 5% at 4vth; compressed Q
    # linear below the compression power within 1e-12 and never rising
    # with power by more than 1e-12 relative
    report(6, validate.run_check(validate.check_nonlinear_gm, Fixture()))


def test_criterion_07_noise_laws():
    # Q^2 sensitivity scaling, 6.02 dB per detuning doubling, -10 dB per
    # offset decade, dB-for-dB carrier tracking, unity/2x transfer points,
    # all to 1e-9; the flicker RMS against a quadrature of kf/f to 1e-13
    report(7, validate.run_check(validate.check_noise_laws, Fixture()))


def test_criterion_08_pm_to_am():
    # conversion below -60 dB at resonance; peak within one grid step of
    # the magnitude inflection
    report(8, validate.run_check(validate.check_pm_to_am, Fixture()))


def test_criterion_09_snr_detuning_invariance():
    # signal (phase slope x detuning) over flicker noise (slope wobble x
    # detuning) equals both SNR formulas at 1/10/100 MHz to 1e-12, and the
    # flicker PSD scales with the same squared detuning
    report(9, validate.run_check(validate.check_snr_invariance, Fixture()))


def test_criterion_10_design_roundtrip():
    # synthesize -> re-analyze reproduces SNRs to 1e-12, and a spec whose
    # targets lower the ring loss lands its binding SNR on target to 1e-12;
    # matched locus to 1e-9; gm*R = 1 - 10/54 to 1e-12; infeasible
    # coupling produces a named structured failure
    report(10, validate.run_check(validate.check_design_roundtrip, Fixture()))


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
