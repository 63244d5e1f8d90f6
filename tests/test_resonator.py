import math

import numpy as np
import pytest

from asrrkit import resonator as rz
from asrrkit.resonator import (
    MATCHED_RHO,
    SrrParams,
    TransmissionLineSection,
    TwoPortSweep,
)


def make_line(z0, beta_l, w0):
    return TransmissionLineSection.from_electrical(z0, beta_l, w0, length=30e-6)


def matched_instance(f0=200e9, z0=50.0, beta_l=0.35, q=54.0, lsrr=54.124e-12):
    w0 = 2 * math.pi * f0
    k = 1.0 / math.sqrt(beta_l * q)
    srr = SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q, k=k)
    return srr, make_line(z0, beta_l, w0), w0, z0


class TestTypes:
    def test_line_z0_identity(self):
        line = TransmissionLineSection(z0=50.0, ltl=1.4e-11, ctl=5.6e-15, length=30e-6)
        assert line.z0 == pytest.approx(math.sqrt(1.4e-11 / 5.6e-15), rel=1e-12)
        with pytest.raises(ValueError, match="is not sqrt"):
            TransmissionLineSection(z0=50.0 * (1 + 1e-9), ltl=1.4e-11, ctl=5.6e-15, length=30e-6)

    def test_line_beta_positive_and_scales(self):
        line = make_line(50.0, 0.35, 2 * math.pi * 200e9)
        assert line.beta_l(1e12) > 0
        assert line.beta_l(2e12) == pytest.approx(2 * line.beta_l(1e12), rel=1e-12)

    def test_line_from_electrical_roundtrip(self):
        w0 = 2 * math.pi * 200e9
        line = make_line(50.0, 0.35, w0)
        assert line.z0 == pytest.approx(50.0, rel=1e-12)
        assert line.beta_l(w0) == pytest.approx(0.35, rel=1e-12)

    def test_srr_validation(self):
        with pytest.raises(ValueError):
            SrrParams(lsrr=-1e-12, csrr=1e-15, q_off=10, k=0.1)
        with pytest.raises(ValueError):
            SrrParams(lsrr=1e-12, csrr=1e-15, q_off=10, k=1.0)
        srr = SrrParams(lsrr=54.1e-12, csrr=11.7e-15, q_off=10, k=0.2)
        assert srr.w0 == pytest.approx(1.0 / math.sqrt(54.1e-12 * 11.7e-15), rel=1e-12)
        # loss representations derive from Q and never disagree
        assert srr.r_series() * srr.r_parallel() == pytest.approx(
            (srr.w0 * srr.lsrr) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("cls,good,name", [
        (SrrParams, dict(lsrr=54e-12, csrr=11.7e-15, q_off=10.0, k=0.2), "lsrr"),
        (SrrParams, dict(lsrr=54e-12, csrr=11.7e-15, q_off=10.0, k=0.2), "csrr"),
        (SrrParams, dict(lsrr=54e-12, csrr=11.7e-15, q_off=10.0, k=0.2), "q_off"),
        (SrrParams, dict(lsrr=54e-12, csrr=11.7e-15, q_off=10.0, k=0.2), "k"),
        (TransmissionLineSection, dict(z0=50.0, ltl=1.4e-11, ctl=5.6e-15, length=30e-6), "ltl"),
        (TransmissionLineSection, dict(z0=50.0, ltl=1.4e-11, ctl=5.6e-15, length=30e-6),
         "length"),
        (TransmissionLineSection, dict(z0=50.0, ltl=1.4e-11, ctl=5.6e-15, length=30e-6), "z0"),
    ])
    def test_non_finite_rejected(self, cls, good, name, bad):
        with pytest.raises(ValueError):
            cls(**{**good, name: bad})

    def test_sweep_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            TwoPortSweep(
                freqs=np.array([2.0, 1.0]),
                s11=np.zeros(2, complex),
                s21=np.ones(2, complex),
                z0_ref=50.0,
            )

    @pytest.mark.parametrize("freqs, message", [
        ([1.0, 2.0, math.inf], "finite"),
        ([1.0, math.nan, 3.0], "finite"),
        ([math.inf, math.inf], "finite"),
        ([1.0, 1.0, 2.0], "increasing"),
    ])
    def test_sweep_refuses_a_non_finite_or_repeated_frequency(self, freqs, message):
        n = len(freqs)
        with pytest.raises(ValueError, match=message):
            TwoPortSweep(freqs=np.array(freqs), s11=np.zeros(n, complex),
                         s21=np.ones(n, complex), z0_ref=50.0)


class TestCouplingRatio:
    def test_matched_locus_gives_matched_rho(self):
        # beta_l * k^2 * Q = 1 puts the reflected resistance at z0
        srr, line, w0, z0 = matched_instance()
        assert rz.coupling_ratio(srr, line) == pytest.approx(MATCHED_RHO, rel=1e-12)

    def test_no_coupling_gives_zero_ratio_and_slope(self):
        srr, line, _, _ = matched_instance()
        srr0 = SrrParams(lsrr=srr.lsrr, csrr=srr.csrr, q_off=srr.q_off, k=0.0)
        assert rz.coupling_ratio(srr0, line) == 0.0
        assert rz.output_phase_slope(srr0, line) == 0.0


class TestSeriesLoadingImpedance:
    def test_zero_coupling_is_bare_line(self):
        srr, line, w0, _ = matched_instance()
        srr0 = SrrParams(srr.lsrr, srr.csrr, srr.q_off, 0.0)
        z = rz.series_loading_impedance(srr0, line, w0)
        assert z == pytest.approx(1j * w0 * line.ltl, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_matched_ring_stays_matched_at_high_q(self):
        # w0*L = 1/(w0*C) = 64 ohm exactly at w0 = 2**40 rad/s, so the ring's
        # reactance cancels and its whole impedance is the loss w0*L/Q
        lsrr, csrr = 2.0**-34, 2.0**-46
        w0 = 2.0**40
        line = make_line(50.0, 0.35, w0)
        for q in np.geomspace(1e9, 1e15, 13):
            srr = SrrParams(lsrr, csrr, q, rz.optimum_k_for_q(q, line, w0))
            assert srr.w0 == w0 and rz.srr_branch_impedance(srr, w0) == srr.r_series()
            sweep = rz.s_parameters(srr, line, [w0, 1.001 * w0], z0_ref=50.0)
            assert abs(sweep.s11[0]) == pytest.approx(1.0 / 3.0, abs=1.2e-16)  # two ulps

    def test_direct_vs_transformed_forms(self):
        # the rational form and the transformed parallel-admittance sum are
        # the same impedance; evaluate both within +/-10% of resonance
        srr, line, w0, _ = matched_instance()
        m2 = rz.mutual_inductance(srr, line) ** 2
        for w in np.linspace(0.9 * w0, 1.1 * w0, 101):
            direct = rz.series_loading_impedance(srr, line, w)
            w2m2 = w * w * m2
            y = (srr.r_series() / w2m2 + 1j * w * srr.lsrr / w2m2
                 + 1.0 / (1j * w * w2m2 * srr.csrr))
            other = 1j * w * line.ltl + 1.0 / y
            assert abs(direct - other) / abs(direct) < 1e-6


class TestSParameters:
    def test_matched_point_values(self):
        srr, line, w0, z0 = matched_instance()
        sw = rz.s_parameters(srr, line, np.array([w0 * 0.999, w0, w0 * 1.001]), z0_ref=z0)
        assert abs(sw.s11[1]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(sw.s21[1]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        # 20*log10(2/3) = -3.5218 dB detected-power anchor
        assert sw.s21_db()[1] == pytest.approx(-3.5218, abs=5e-4)

    def test_transparent_far_from_resonance(self):
        srr, line, w0, z0 = matched_instance(q=100.0)
        far = np.array([w0 * 0.5, w0 * 2.0])
        sw = rz.s_parameters(srr, line, far, z0_ref=z0)
        assert np.all(np.abs(np.abs(sw.s21) - 1.0) < 1e-2)

    def test_passivity_random(self, rng):
        for _ in range(30):
            f0 = rng.uniform(50e9, 300e9)
            w0 = 2 * math.pi * f0
            lsrr = rng.uniform(20e-12, 200e-12)
            srr = SrrParams(lsrr, 1.0 / (w0**2 * lsrr), rng.uniform(5, 300), rng.uniform(0.02, 0.4))
            line = make_line(rng.uniform(40, 75), rng.uniform(0.05, 0.5), w0)
            span = 3 * w0 / srr.q_off
            grid = np.linspace(w0 - span, w0 + span, 101)
            for include_line in (False, True):
                sw = rz.s_parameters(srr, line, grid, include_line=include_line)
                assert np.max(np.abs(sw.s11) ** 2 + np.abs(sw.s21) ** 2 - 1.0) <= 1e-9

    def test_energy_split_matched(self):
        srr, line, w0, z0 = matched_instance()
        sw = rz.s_parameters(srr, line, np.array([w0 * 0.999, w0]), z0_ref=z0)
        absorbed = 1.0 - abs(sw.s11[1]) ** 2 - abs(sw.s21[1]) ** 2
        assert absorbed == pytest.approx(4.0 / 9.0, abs=1e-9)


class TestOptimumCoupling:
    def test_arithmetic_inversion(self):
        # beta_l = 0.1 rad and k = 0.2 force Q = 1/(0.1 * 0.04) = 250
        w0 = 2 * math.pi * 100e9
        line = make_line(50.0, 0.1, w0)
        assert rz.optimum_q_for_k(0.2, line, w0) == pytest.approx(250.0, rel=1e-12)

    def test_round_trip(self):
        w0 = 2 * math.pi * 100e9
        line = make_line(50.0, 0.1, w0)
        for k in (0.05, 0.1, 0.2, 0.4):
            q = rz.optimum_q_for_k(k, line, w0)
            assert rz.optimum_k_for_q(q, line, w0) == pytest.approx(k, rel=1e-12)

    def test_unrealizable_coupling_raises(self):
        w0 = 2 * math.pi * 100e9
        line = make_line(50.0, 0.1, w0)
        with pytest.raises(ValueError, match="coupling unrealizable"):
            rz.optimum_k_for_q(5.0, line, w0)  # would need k > 1

    def test_matched_locus_s11_through_full_model(self, rng):
        for _ in range(25):
            f0 = rng.uniform(50e9, 300e9)
            w0 = 2 * math.pi * f0
            line = make_line(rng.uniform(40, 75), rng.uniform(0.08, 0.5), w0)
            q = rng.uniform(20, 300)
            k = rz.optimum_k_for_q(q, line, w0)
            lsrr = rng.uniform(20e-12, 200e-12)
            srr = SrrParams(lsrr, 1.0 / (w0**2 * lsrr), q, k)
            sw = rz.s_parameters(srr, line, np.array([0.999 * w0, w0]))
            assert abs(abs(sw.s11[1]) - 1.0 / 3.0) < 1e-3


class TestInsertionLoss:
    def test_zero_coupling(self):
        srr, line, _, _ = matched_instance()
        srr0 = SrrParams(srr.lsrr, srr.csrr, srr.q_off, 0.0)
        for n in (0, 1, 7):
            assert rz.array_insertion_loss(n, srr0, line) == 0.0

    def test_single_pixel_arithmetic(self):
        # construct r_off = 10 ohm against z0 = 50: IL = 10/110
        w0 = 1e12
        ltl = 1e-11
        line = TransmissionLineSection(z0=50.0, ltl=ltl, ctl=ltl / 2500.0, length=30e-6)
        q_off = 10.0
        k = math.sqrt(10.0 / (w0 * q_off * ltl))
        lsrr = 50e-12
        srr = SrrParams(lsrr, 1.0 / (w0**2 * lsrr), q_off, k)
        il = rz.array_insertion_loss(1, srr, line)
        assert il == pytest.approx(10.0 / 110.0, rel=1e-9)

    def test_linear_in_n(self):
        srr, line, _, _ = matched_instance(q=10.0)
        il1 = rz.array_insertion_loss(1, srr, line)
        assert rz.array_insertion_loss(8, srr, line) == pytest.approx(8 * il1, rel=1e-12)

    def test_single_pixel_matches_mesh_notch_depth(self):
        # IL(1) equals 1 - |S21(w0)| from the independent mesh solve; the
        # mesh carries the segment's own series inductance, so the
        # comparison needs an electrically short segment
        from asrrkit.oracle import MeshCircuit, solve_two_port

        w0 = 2 * math.pi * 200e9
        line = make_line(50.0, 0.05, w0)
        lsrr = 54.124e-12
        srr = SrrParams(lsrr, 1.0 / (w0**2 * lsrr), 10.0, 0.3)
        il = rz.array_insertion_loss(1, srr, line)
        s = solve_two_port(MeshCircuit.from_parts(srr, line), w0)
        assert il == pytest.approx(1.0 - abs(s[1, 0]), abs=1e-3)


class TestIlBudgetInversion:
    def test_chained_bound(self):
        # budget chosen to give k_max = 0.2 on a beta_l = 0.1 line: Q floor 250
        w0 = 2 * math.pi * 100e9
        line = make_line(50.0, 0.1, w0)
        q_off = 10.0
        r_off = w0 * 0.2**2 * q_off * line.ltl
        il = r_off / (r_off + 2 * line.z0)
        k_max = rz.k_max_for_il(il, 1, line, q_off, w0)
        assert k_max == pytest.approx(0.2, rel=1e-9)
        assert rz.optimum_q_for_k(k_max, line, w0) == pytest.approx(250.0, rel=1e-9)

    def test_round_trip(self):
        srr, line, w0, _ = matched_instance(q=10.0)
        for il in (0.02, 0.05, 0.1):
            k_max = rz.k_max_for_il(il, 3, line, 10.0, w0)
            srr_k = SrrParams(srr.lsrr, srr.csrr, 10.0, k_max)
            assert rz.array_insertion_loss(3, srr_k, line) == pytest.approx(il, abs=1e-9)

    def test_monotonicity(self):
        _, line, w0, _ = matched_instance(q=10.0)
        ks, q_mins = [], []
        for il in np.linspace(0.01, 0.2, 12):
            k = rz.k_max_for_il(il, 4, line, 10.0, w0)
            ks.append(k)
            q_mins.append(rz.optimum_q_for_k(k, line, w0))
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert all(b < a for a, b in zip(q_mins, q_mins[1:]))


class TestPhaseSlope:
    def test_matched_value_54_at_200ghz(self):
        # (2/3) * 54 / (2*pi*200 GHz) = 2.8648e-11 s
        srr, line, w0, z0 = matched_instance()
        assert rz.output_phase_slope(srr, line) == pytest.approx(2.86479e-11, rel=1e-4)

    def test_effective_q_is_third_of_q(self):
        for q in (20.0, 54.0, 250.0):
            srr, line, w0, z0 = matched_instance(q=q)
            q_out = rz.output_phase_slope(srr, line) * srr.w0 / 2.0
            assert q_out / q == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_finite_difference_slope(self):
        srr, line, w0, z0 = matched_instance(q=100.0)
        h = 1e-6 * w0

        def phase(w):
            z = rz.reflected_impedance(srr, line, w)
            return -np.angle(z + 2 * z0)

        fd = (phase(w0 + h) - phase(w0 - h)) / (2 * h)
        assert fd == pytest.approx(rz.output_phase_slope(srr, line), rel=0.01)


class TestPhaseSlopeVsResistance:
    def test_matched_reduces_to_ten_ninths_c(self):
        srr, line, w0, z0 = matched_instance()
        got = rz.phase_slope_vs_resistance(srr, line)
        assert got == pytest.approx((10.0 / 9.0) * srr.csrr, rel=1e-9)

    def test_reference_value_13e15(self):
        # C = 11.7 fF gives precisely 13.0e-15 s/(rad*ohm)
        srr, line, w0, z0 = matched_instance()
        assert rz.phase_slope_vs_resistance(srr, line) == pytest.approx(13e-15, rel=0.02)

    def test_against_finite_difference(self):
        srr, line, w0, z0 = matched_instance()
        r0 = srr.r_parallel()
        dr = 1e-4 * r0

        def slope_at(r_par):
            q = r_par / (w0 * srr.lsrr)
            srr_q = SrrParams(srr.lsrr, srr.csrr, q, srr.k)
            return rz.output_phase_slope(srr_q, line)

        fd = (slope_at(r0 + dr) - slope_at(r0 - dr)) / (2 * dr)
        assert fd == pytest.approx(rz.phase_slope_vs_resistance(srr, line), rel=0.01)


class TestDetectionBand:
    def test_q100_closed_form_values(self):
        # exact band-edge form at Q = 100; edges are reciprocal about w0
        w0 = 2 * math.pi * 200e9
        w_lo, w_hi, bw = rz.detection_band(w0, 100.0)
        assert w_hi / w0 == pytest.approx(1.00501250, abs=1e-8)
        assert w_lo / w0 == pytest.approx(0.99501250, abs=1e-8)
        assert (w_lo / w0) * (w_hi / w0) == pytest.approx(1.0, abs=1e-12)

    def test_bandwidth_limit_law(self):
        w0 = 1.0
        for q in (20.0, 100.0, 1000.0):
            _, _, bw = rz.detection_band(w0, q)
            assert abs(bw * q / w0 - 1.0) < 1.0 / (8 * q * q)

    def test_numeric_extrema_of_detection_phase(self):
        from asrrkit.oracle import derivative_sign_roots

        srr, line, w0, z0 = matched_instance(q=100.0)
        w_lo, w_hi, _ = rz.detection_band(w0, 100.0)
        grid = np.linspace(w0 * 0.97, w0 * 1.03, 1201)
        roots = derivative_sign_roots(grid, rz.detection_phase(srr, line, grid))
        assert abs(roots[0] - w_lo) < 1e-4 * w0
        assert abs(roots[-1] - w_hi) < 1e-4 * w0
