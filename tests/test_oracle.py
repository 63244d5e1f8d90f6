import math

import numpy as np
import pytest

from asrrkit import oracle, resonator
from asrrkit.oracle import MeshCircuit, brent, solve_linear, solve_two_port, time_avg_gm
from asrrkit.resonator import SrrParams, TransmissionLineSection, TwoPortSweep


def matched_parts(fx, q=None):
    q = fx.cfg["q_on"] if q is None else q
    k = 1.0 / math.sqrt(fx.cfg["beta_l"] * q)
    srr = SrrParams(fx.ring.lsrr, fx.ring.csrr, q, k)
    return srr, fx.line


class TestSolveLinear:
    def test_against_numpy(self, rng):
        for n in (2, 3, 4, 6):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = solve_linear(a, b[:, None])[:, 0]
            assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-12 * np.max(np.abs(x))

    def test_multiple_rhs(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        x = solve_linear(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-12

    def test_pivoting_handles_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = solve_linear(a, np.array([[2.0], [3.0]], dtype=complex))
        assert x[:, 0] == pytest.approx(np.array([3.0, 2.0]))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(ValueError, match="singular"):
            solve_linear(a, np.ones((2, 1), dtype=complex))

    def test_stack_against_numpy(self, rng):
        a = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        for shape in ((7, 4, 1), (7, 4, 2)):
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            x = solve_linear(a, b)
            ref = np.stack([np.linalg.solve(ai, bi) for ai, bi in zip(a, b)])
            assert x.shape == b.shape
            assert np.max(np.abs(x - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_singular_slice_in_stack_raises(self, rng):
        a = rng.normal(size=(5, 3, 3)) + 0j
        a[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="singular"):
            solve_linear(a, np.ones((5, 3, 1)))


class TestMesh:
    def test_stacked_matches_pointwise(self, fx):
        srr, line = matched_parts(fx, q=10.0)
        grid = fx.w0 * np.linspace(0.95, 1.05, 33)
        for circ in (MeshCircuit.from_parts(srr, line, include_ctl=True),
                     MeshCircuit.from_parts(srr, line, gm_neg=0.8 / srr.r_parallel())):
            stacked = solve_two_port(circ, grid)
            assert stacked.shape == (len(grid), 2, 2)
            pointwise = np.stack([solve_two_port(circ, float(w)) for w in grid])
            assert pointwise.shape == (len(grid), 2, 2)
            assert np.max(np.abs(stacked - pointwise)) <= 1e-15

    def test_psd_inductance_guard(self, fx):
        with pytest.raises(ValueError, match="positive semi-definite"):
            MeshCircuit(ltl=1e-11, lsrr=1e-11, m=1.1e-11, r_srr=1.0,
                        csrr=1e-14, z0=50.0)

    def test_decoupled_is_bare_series_inductor(self, fx):
        line = fx.line
        circ = MeshCircuit(ltl=line.ltl, lsrr=fx.ring.lsrr, m=0.0, r_srr=1.0,
                           csrr=fx.ring.csrr, z0=line.z0)
        w = fx.w0
        s = solve_two_port(circ, w)
        expect = 2 * line.z0 / (1j * w * line.ltl + 2 * line.z0)
        assert s[1, 0] == pytest.approx(expect, rel=1e-12)
        assert s[0, 0] == pytest.approx(1 - expect, rel=1e-10)

    def test_reciprocity_both_ports(self, fx, rng):
        srr, line = matched_parts(fx)
        for with_ctl in (False, True):
            circ = MeshCircuit.from_parts(srr, line, include_ctl=with_ctl)
            for w in fx.w0 * rng.uniform(0.9, 1.1, size=10):
                s = solve_two_port(circ, float(w))
                assert abs(s[0, 1] - s[1, 0]) < 1e-12

    def test_passive_random_instances(self, fx, rng):
        for _ in range(20):
            f0 = rng.uniform(50e9, 300e9)
            w0 = 2 * math.pi * f0
            lsrr = rng.uniform(20e-12, 200e-12)
            srr = SrrParams(lsrr, 1.0 / (w0**2 * lsrr), rng.uniform(5, 200),
                            rng.uniform(0.02, 0.4))
            line = TransmissionLineSection.from_electrical(
                rng.uniform(40, 75), rng.uniform(0.05, 0.5), w0, length=30e-6)
            circ = MeshCircuit.from_parts(srr, line)
            span = 3 * w0 / srr.q_off
            sweep = oracle.sweep_two_port(circ, np.linspace(w0 - span, w0 + span, 31))
            assert np.max(np.abs(sweep.s11) ** 2 + np.abs(sweep.s21) ** 2 - 1.0) <= 1e-9

    def test_matches_closed_form_to_machine_precision(self, fx, rng):
        srr, line = matched_parts(fx)
        circ = MeshCircuit.from_parts(srr, line)
        for w in fx.w0 * rng.uniform(0.8, 1.2, size=25):
            s = solve_two_port(circ, float(w))
            z1 = resonator.series_loading_impedance(srr, line, float(w))
            s21 = 2 * line.z0 / (z1 + 2 * line.z0)
            assert abs(s[1, 0] - s21) / abs(s21) < 1e-10

    def test_active_branch_matches_analytic(self, fx):
        srr, line = matched_parts(fx, q=10.0)
        gm_neg = 0.8 / srr.r_parallel()
        circ = MeshCircuit.from_parts(srr, line, gm_neg=gm_neg)
        grid = np.linspace(0.97 * fx.w0, 1.03 * fx.w0, 41)
        mesh = oracle.sweep_two_port(circ, grid)
        ana = resonator.s_parameters(srr, line, grid, include_line=True, gm_neg=gm_neg)
        assert np.max(np.abs(mesh.s21 - ana.s21)) < 1e-10

    def test_shunt_sections_change_response(self, fx):
        # the distributed-capacitance option must actually do something
        srr, line = matched_parts(fx)
        w = fx.w0 * 1.02
        s_plain = solve_two_port(MeshCircuit.from_parts(srr, line), w)
        s_ctl = solve_two_port(MeshCircuit.from_parts(srr, line, include_ctl=True), w)
        assert abs(s_plain[1, 0] - s_ctl[1, 0]) > 1e-6

    def test_deterministic(self, fx):
        srr, line = matched_parts(fx)
        circ = MeshCircuit.from_parts(srr, line)
        grid = np.linspace(0.99 * fx.w0, 1.01 * fx.w0, 11)
        a = oracle.sweep_two_port(circ, grid)
        b = oracle.sweep_two_port(circ, grid)
        assert np.array_equal(a.s21, b.s21) and np.array_equal(a.s11, b.s11)


class TestBrent:
    def test_simple_roots(self):
        assert brent(lambda x: x * x - 2, 0, 2, xtol=1e-14) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert brent(math.cos, 1, 2, xtol=1e-14) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_endpoint_root(self):
        assert brent(lambda x: x, 0.0, 1.0) == 0.0

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError, match="bracket"):
            brent(lambda x: x * x + 1, -1, 1)


class TestPhaseExtrema:
    def _frozen_sweep(self, fx, q, span_bw=4.0, n=4001):
        # the fixed-value parallel RLC R'/(1 + jQ(w/w0 - w0/w)), R' = rho*z0
        srr, line = matched_parts(fx, q=q)
        rho, w0, z0 = resonator.coupling_ratio(srr, line), fx.w0, fx.line.z0
        grid = np.linspace(w0 * (1 - span_bw / q), w0 * (1 + span_bw / q), n)
        z = rho * z0 / (1 + 1j * q * (grid / w0 - w0 / grid))
        return rho, TwoPortSweep(freqs=grid, s11=z / (z + 2 * z0),
                                 s21=2 * z0 / (z + 2 * z0), z0_ref=z0)

    @staticmethod
    def _phase_extrema(sweep):
        return oracle.derivative_sign_roots(sweep.freqs, sweep.s21_phase())

    def test_extrema_straddle_resonance(self, fx):
        _, sweep = self._frozen_sweep(fx, 100.0)
        w_lo, w_hi = self._phase_extrema(sweep)
        assert w_lo < fx.w0 < w_hi

    def test_matched_full_phase_extrema_closed_form(self, fx):
        # the true transmission-phase extrema of the fixed-element model sit
        # where Q*(1 - (w/w0)^2)*(w0/w) = sqrt((R + 2*z0)/(2*z0)); for the
        # matched case that is sqrt(3/2), outside the reactive-slope edges
        for q in (50.0, 100.0, 250.0):
            rho, sweep = self._frozen_sweep(fx, q)
            w_lo, w_hi = self._phase_extrema(sweep)
            v_star = math.sqrt((rho + 2) / 2)
            for w_edge, sign in ((w_lo, +1), (w_hi, -1)):
                u = (w_edge / fx.w0) ** 2
                v = q * (1 - u) / math.sqrt(u)
                assert v == pytest.approx(sign * v_star, abs=2e-3)

    def test_detection_phase_extrema_match_band_closed_form(self, fx):
        # the linearized detection phase reproduces the band-edge quartic
        for q in (20.0, 100.0):
            srr, line = matched_parts(fx, q=q)
            w0 = fx.w0
            grid = np.linspace(w0 * (1 - 3 / q), w0 * (1 + 3 / q), 1201)
            roots = oracle.derivative_sign_roots(
                grid, resonator.detection_phase(srr, line, grid))
            w_lo, w_hi, _ = resonator.detection_band(w0, q)
            assert abs(roots[0] - w_lo) < 1e-4 * w0
            assert abs(roots[-1] - w_hi) < 1e-4 * w0

    def test_spacing_approaches_reciprocal_q(self, fx):
        # reactive-slope edge spacing times Q tends to the bandwidth
        vals = []
        for q in (50.0, 200.0, 800.0):
            srr, line = matched_parts(fx, q=q)
            w0 = fx.w0
            grid = np.linspace(w0 * (1 - 3 / q), w0 * (1 + 3 / q), 1201)
            roots = oracle.derivative_sign_roots(
                grid, resonator.detection_phase(srr, line, grid))
            vals.append((roots[-1] - roots[0]) * q / w0)
        assert abs(vals[-1] - 1.0) < 1e-3
        assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)

    def test_unbracketed_sweep_has_no_extrema(self, fx):
        srr, line = matched_parts(fx, q=100.0)
        w0 = fx.w0
        grid = np.linspace(w0 * (1 + 0.02), w0 * (1 + 0.03), 101)  # beyond both edges
        sweep = resonator.s_parameters(srr, line, grid, z0_ref=fx.line.z0)
        assert self._phase_extrema(sweep) == []


class TestTimeAvgGm:
    def test_small_swing_is_gm0(self, fx):
        p = fx.state.gm
        assert time_avg_gm(0.5 * p.vth, p) == pytest.approx(p.gm0, rel=1e-9)

    def test_node_count_does_not_matter(self, fx):
        # the integrand is a + b*sin on every panel, so the rule is exact
        # to rounding well before its default 16 nodes
        p = fx.state.gm
        v = 2.5 * p.vth
        assert time_avg_gm(v, p, samples=10) == pytest.approx(time_avg_gm(v, p), rel=1e-14)

    def test_deterministic(self, fx):
        p = fx.state.gm
        assert time_avg_gm(0.7, p) == time_avg_gm(0.7, p)


class TestCentralDifference:
    def test_matches_known_derivative(self):
        got = oracle.central_difference(math.sin, 1.0)
        assert got == pytest.approx(math.cos(1.0), rel=1e-9)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            oracle.central_difference(math.sin, 0.0)
