import dataclasses
import math
import re

import numpy as np
import pytest

from asrrkit import active
from asrrkit.active import AsrrState, GmBlockParams
from asrrkit.oracle import MeshCircuit, brent, time_avg_gm
from asrrkit.resonator import (MATCHED_RHO, absorbed_power_fraction, array_insertion_loss,
                               auto_grid, coupling_ratio, detection_band, k_max_for_il,
                               optimum_k_for_q, optimum_q_for_k)
from asrrkit.validate import Fixture


def with_gm0(st, gm0):
    """The same ring with the block re-biased to gm0."""
    return dataclasses.replace(st, gm=dataclasses.replace(st.gm, gm0=gm0))


class TestBoost:
    def test_passive_limit(self, fx):
        # a vanishing block leaves the ring as it is
        st = with_gm0(fx.state, 1e-300)
        r = st.srr.r_parallel()
        assert active.boosted_resistance(st) == pytest.approx(r, rel=1e-12)
        assert active.q_on(st) == pytest.approx(st.srr.q_off, rel=1e-12)

    def test_reference_boost_10_to_54(self, fx):
        # gm * R = 1 - 10/54 boosts Q from 10 to 54
        st = fx.state
        assert st.gm.gm0 * st.srr.r_parallel() == pytest.approx(1 - 10 / 54, rel=1e-12)
        assert active.q_on(st) == pytest.approx(54.0, rel=1e-12)

    def test_ratio_identity(self, fx):
        st = fx.state
        q_ratio = active.q_on(st) / st.srr.q_off
        r_ratio = active.boosted_resistance(st) / st.srr.r_parallel()
        assert q_ratio == pytest.approx(r_ratio, rel=1e-12)

    def test_oscillation_guard(self, fx):
        # the one guard: an unstable state cannot be constructed, so q_on and
        # boosted_resistance never see gm * R >= 1
        st = fx.state
        r = st.srr.r_parallel()
        # (1/r)*r rounds one ulp below 1 for this r: the next double up is
        # the first gm0 whose loop gain reaches 1
        for gm0 in (math.nextafter(1.0 / r, math.inf), 1.5 / r):
            with pytest.raises(active.OscillationError, match="oscillation"):
                with_gm0(st, gm0)
        bad_gm = GmBlockParams(gm0=1.1 / r, k_wl=1e-3, vdd=1.0, vth=0.3)
        with pytest.raises(ValueError, match="oscillation"):
            AsrrState(srr=st.srr, gm=bad_gm, line=st.line)

    def test_guard_on_random_inputs(self, fx, rng):
        st = fx.state
        r = st.srr.r_parallel()
        for _ in range(50):
            loop = rng.uniform(1.0, 3.0)
            with pytest.raises(ValueError, match="oscillation"):
                with_gm0(st, loop / r)


class TestResonanceShift:
    def test_resonance_shift_anchor(self, fx):
        # dw0/dC = -w0/(2C) = -5.37e25 rad/(s F) for the 200 GHz pixel
        assert active.resonance_shift(fx.state, 1e-18) / 1e-18 == pytest.approx(-5.35e25, rel=0.02)


class TestVoltageSwing:
    def test_matched_power_fraction(self, fx):
        # the fixture sits on the matched locus: its boosted ring reflects
        # R' = z0 and absorbs 4/9 of the incident power
        rho = coupling_ratio(fx.ring, fx.line)
        assert rho == pytest.approx(MATCHED_RHO, rel=1e-12)
        assert absorbed_power_fraction(rho) == pytest.approx(4 / 9, rel=1e-12)

    def test_scaling_laws(self, fx):
        st = fx.state
        v1 = active.asrr_voltage_swing(st, 1e-6)
        assert active.asrr_voltage_swing(st, 4e-6) == pytest.approx(2 * v1, rel=1e-12)
        # quadrupling Q doubles the swing at fixed power
        v_q = active.asrr_voltage_swing(st, 1e-6, q=4 * active.q_on(st))
        assert v_q == pytest.approx(2 * v1, rel=1e-12)

    def test_general_coupling_reduces_to_matched(self, fx):
        # the absorbed-power law at the fixture's own coupling ratio gives
        # the swing the matched form computes
        st = fx.state
        rho = coupling_ratio(st.effective_srr(), fx.line)
        r_asrr = active.boosted_resistance(st)
        v_gen = math.sqrt(2.0 * r_asrr * absorbed_power_fraction(rho) * 1e-6)
        v_matched = active.asrr_voltage_swing(st, 1e-6)
        assert v_gen == pytest.approx(v_matched, rel=1e-9)

    def test_against_mesh_currents(self, fx):
        # independent route: drive the mesh with a source of known available
        # power and read the swing off the ring capacitor
        st = fx.state
        line = fx.line
        srr = fx.ring
        w0 = fx.w0
        p_in = 1e-6
        v_src = math.sqrt(8.0 * fx.line.z0 * p_in)  # peak amplitude behind z0
        circ = MeshCircuit.from_parts(srr, line)
        y_shunt = 0.0
        z_ring = circ.r_srr + 1j * w0 * circ.lsrr + 1.0 / (1j * w0 * circ.csrr)
        a = np.array(
            [
                [1 / circ.z0 + y_shunt, 0, 1, 0],
                [0, 1 / circ.z0 + y_shunt, -1, 0],
                [1, -1, -1j * w0 * circ.ltl, -1j * w0 * circ.m],
                [0, 0, 1j * w0 * circ.m, z_ring],
            ],
            dtype=complex,
        )
        b = np.array([v_src / circ.z0, 0, 0, 0], dtype=complex)
        from asrrkit.oracle import solve_linear

        x = solve_linear(a, b[:, None])[:, 0]
        v_cap = abs(x[3] / (1j * w0 * circ.csrr))
        assert v_cap == pytest.approx(active.asrr_voltage_swing(st, p_in), rel=0.02)


class TestLinearPowerLimit:
    def test_inverse_in_q(self, fx):
        st1 = fx.state
        st2 = fx.at_q(2 * fx.cfg["q_on"]).state
        assert active.linear_power_limit(st2) == pytest.approx(
            active.linear_power_limit(st1) / 2, rel=1e-9
        )

    def test_swing_at_limit_is_vth(self, fx):
        st = fx.state
        p_lin = active.linear_power_limit(st)
        assert active.asrr_voltage_swing(st, p_lin) == pytest.approx(st.gm.vth, abs=1e-12)

    def test_monotone_decreasing_in_q(self, fx):
        ps = [active.linear_power_limit(fx.at_q(q).state) for q in (20, 54, 100, 250)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_decoupled_ring_is_refused_by_name(self, fx):
        # rho = 0: the absorbed share A in 1/(2A) vanishes
        with pytest.raises(ValueError, match=r"^k = 0 decouples the ring"):
            active.linear_power_limit(fx.at_q(54.0, k=0.0).state)

    def test_limit_that_is_not_finite_is_refused(self, fx):
        # a ring of 1e-300 H at vth = 1e100 V: vth^2/(w0*L*Q_on) overflows
        with pytest.raises(ValueError, match=r"^the linear power limit is inf W"):
            active.linear_power_limit(fx.at_q(54.0, lsrr=1e-300, vth=1e100).state)


class TestConductionAngle:
    def test_boundary(self):
        assert active.conduction_angle(0.3, 0.3) == 0.0
        assert active.conduction_angle(0.299, 0.3) == 0.0

    def test_double_threshold(self):
        assert active.conduction_angle(0.6, 0.3) == pytest.approx(math.pi / 3, rel=1e-12)

    def test_large_swing_limit(self):
        assert active.conduction_angle(3e3, 0.3) == pytest.approx(math.pi / 2, abs=1e-3)


class TestGmAverage:
    def test_linear_region_exact(self, fx):
        p = fx.state.gm
        for v in (0.0, 0.1, p.vth):
            assert active.gm_avg_exact(v, p) == p.gm0

    def test_continuity_at_threshold(self, fx):
        # the average has a sqrt-shaped onset at vth, so the one-sided limit
        # is checked by extrapolating in sqrt(step); both limits are gm0
        p = fx.state.gm
        assert active.gm_avg_exact(p.vth, p) == p.gm0
        assert active.gm_avg_exact(p.vth * (1 - 1e-15), p) == p.gm0
        e1, e2 = 1e-9, 1e-11
        g1 = active.gm_avg_exact(p.vth + e1, p)
        g2 = active.gm_avg_exact(p.vth + e2, p)
        slope = (g1 - g2) / (math.sqrt(e1) - math.sqrt(e2))
        right_limit = g1 - slope * math.sqrt(e1)
        assert abs(right_limit - p.gm0) < 1e-12 * p.gm0

    def test_monotone_above_threshold(self, fx):
        p = fx.state.gm
        vals = [active.gm_avg_exact(v, p) for v in np.linspace(p.vth, 4 * p.vth, 200)]
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_matches_time_domain_average(self, fx):
        p = fx.state.gm
        for v in np.linspace(0.0, 3 * p.vth, 25):
            quad = time_avg_gm(v, p)
            assert active.gm_avg_exact(v, p) == pytest.approx(quad, rel=1e-12)


class TestNonlinearQ:
    def test_linear_regime(self, fx):
        st = fx.state
        p_lin = active.linear_power_limit(st)
        q_lin = active.q_on(st)
        for p_in in (0.1 * p_lin, 0.9 * p_lin, p_lin):
            q_nl, v = active.q_on_nonlinear(st, p_in)
            assert q_nl == pytest.approx(q_lin, rel=1e-6)

    def test_monotone_non_increasing(self, fx):
        st = fx.state
        p_lin = active.linear_power_limit(st)
        qs = [active.q_on_nonlinear(st, p)[0] for p in np.geomspace(0.1 * p_lin, 50 * p_lin, 30)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(qs, qs[1:]))

    def test_fixed_point_residual(self, fx):
        st = fx.state
        p_lin = active.linear_power_limit(st)
        for p_in in (2 * p_lin, 10 * p_lin):
            q_nl, v = active.q_on_nonlinear(st, p_in)
            v_check = active.asrr_voltage_swing(st, p_in, q=q_nl)
            assert abs(v - v_check) <= 4 * math.ulp(v)

    def test_linear_theory_overestimates_swing(self, fx):
        st = fx.state
        p_lin = active.linear_power_limit(st)
        for p_in in (3 * p_lin, 10 * p_lin, 30 * p_lin):
            _, v_nl = active.q_on_nonlinear(st, p_in)
            assert v_nl < active.asrr_voltage_swing(st, p_in)

    def test_gm_to_zero_recovers_passive(self, fx):
        # vanishing drive on a barely-boosted pixel: Q stays at the linear value
        st = fx.at_q(fx.cfg["q_off"] + 1e-6).state
        q_nl, _ = active.q_on_nonlinear(st, 1e-12)
        assert q_nl == pytest.approx(active.q_on(st), rel=1e-9)

    @pytest.mark.parametrize("boost", [1.5, 5.4, 30.0, 100.0, 1e3, 1e4, 1e5])
    def test_root_agrees_with_brent(self, fx, boost):
        # boost 100 is Q_on = 1000, where a damped fixed point used to stall
        st = fx.at_q(boost * fx.cfg["q_off"]).state
        r = st.srr.r_parallel()
        p_lin = active.linear_power_limit(st)
        for p_in in np.geomspace(1.5 * p_lin, 30 * p_lin, 9):
            def h(v):
                q = st.srr.q_off / (1.0 - active.gm_avg_exact(v, st.gm) * r)
                return v - active.asrr_voltage_swing(st, p_in, q=q)

            _, v = active.q_on_nonlinear(st, p_in)
            v_lin = active.asrr_voltage_swing(st, p_in)
            # brent stops once its bracket is under 4*eps*|b|, about 5 ulps here
            assert abs(v - brent(h, st.gm.vth, v_lin, xtol=0.0)) <= 8 * math.ulp(v)
            # h changes sign between v and the next double below it
            assert h(math.nextafter(v, 0.0)) < 0.0 <= h(v)

    def test_q_below_q_off_refused(self, fx):
        # the averaged gm turns negative near V = 1.56 V, about 146 x p_lin
        # on the reference pixel: a Q at q_off is still the block's, one
        # below it is not
        st = fx.state
        p_lin = active.linear_power_limit(st)
        q_nl, v = active.q_on_nonlinear(st, 145 * p_lin)
        assert st.srr.q_off <= q_nl < active.q_on(st) and 1.5 < v < 1.57
        for p_in in (147 * p_lin, 1.0):
            with pytest.raises(ValueError, match=r"p_in = .* W drives the swing to .* V, "
                                                 r"where the compressed Q .* falls below "
                                                 r"q_off = 10"):
                active.q_on_nonlinear(st, p_in)

    @pytest.mark.parametrize("vth", [0.34, 0.4, 0.45])
    def test_gm_rising_above_gm0_refused(self, fx, vth):
        # default slope gm0/(vdd/2 - vth): the averaged gm rises above gm0
        # for vth > vdd/3, and the bracket [vth, V_lin] no longer holds
        st = Fixture({"vth": vth}).state
        for p_in in (0.5, 10.0):
            with pytest.raises(ValueError, match=re.escape("k_wl*(vdd - vth) <= 4*gm0")):
                active.q_on_nonlinear(st, p_in * active.linear_power_limit(st))

    @pytest.mark.parametrize("vdd, q_on", [(1.0, 54.0), (3.3, 1e5)])
    def test_vth_at_a_third_of_vdd_accepted(self, fx, vdd, q_on):
        # at vdd = 3.3 V the default slope puts the condition one rounding over
        st = Fixture({"vdd": vdd, "vth": vdd / 3, "q_on": q_on}).state
        p_lin = active.linear_power_limit(st)
        qs = [active.q_on_nonlinear(st, p)[0] for p in np.geomspace(0.1 * p_lin, 50 * p_lin, 30)]
        assert qs[0] == active.q_on(st) and qs[-1] < qs[0]
        assert all(b <= a for a, b in zip(qs, qs[1:]))


class TestArgumentGuards:
    def test_sample_delta_must_be_finite(self, fx):
        for delta_c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="delta_c must be finite"):
                active.resonance_shift(fx.state, delta_c)

    def test_negative_power_rejected(self, fx):
        with pytest.raises(ValueError, match="p_in"):
            active.asrr_voltage_swing(fx.state, -1e-6)
        with pytest.raises(ValueError, match="p_in"):
            active.q_on_nonlinear(fx.state, 0.0)

    def test_negative_swing_rejected(self):
        with pytest.raises(ValueError, match="v_asrr"):
            active.conduction_angle(-0.1, 0.3)

    @pytest.mark.parametrize("law, message", [
        (lambda fx: optimum_k_for_q(math.nan, fx.line, fx.w0), "q_on must be positive"),
        (lambda fx: optimum_k_for_q(math.inf, fx.line, fx.w0), "q_on must be positive"),
        (lambda fx: detection_band(fx.w0, math.nan), "q_on > 1"),
        (lambda fx: array_insertion_loss(math.nan, fx.ring, fx.line), "pixel count"),
        (lambda fx: k_max_for_il(0.1, math.nan, fx.line, fx.q_off, fx.w0), "at least one pixel"),
        (lambda fx: active.asrr_voltage_swing(fx.state, math.nan), "p_in"),
        (lambda fx: active.conduction_angle(math.nan, 0.3), "v_asrr"),
        (lambda fx: active.gm_avg_exact(math.nan, fx.state.gm), "v_asrr"),
        (lambda fx: active.q_on_nonlinear(fx.state, math.nan), "p_in"),
        # the laws' other arguments: w0, q_off and vth
        (lambda fx: detection_band(math.nan, 54.0), "w0 must be positive"),
        (lambda fx: detection_band(-1e12, 54.0), "w0 must be positive"),
        (lambda fx: k_max_for_il(0.1, 1, fx.line, math.nan, fx.w0), "q_off must be positive"),
        (lambda fx: k_max_for_il(0.1, 1, fx.line, fx.q_off, math.nan), "w0 must be positive"),
        (lambda fx: optimum_k_for_q(54.0, fx.line, math.nan), "w0 must be positive"),
        (lambda fx: optimum_q_for_k(0.2, fx.line, math.nan), "w0 must be positive"),
        (lambda fx: active.conduction_angle(0.5, math.nan), "vth must be positive"),
        (lambda fx: auto_grid(math.nan, 54.0), "w0 must be positive"),
        (lambda fx: auto_grid(fx.w0, math.nan), "q must be positive"),
    ], ids=["optimum_k_for_q-nan", "optimum_k_for_q-inf", "detection_band", "array_insertion_loss",
            "k_max_for_il", "asrr_voltage_swing", "conduction_angle", "gm_avg_exact",
            "q_on_nonlinear", "detection_band-w0-nan", "detection_band-w0-negative",
            "k_max_for_il-q_off", "k_max_for_il-w0", "optimum_k_for_q-w0", "optimum_q_for_k-w0",
            "conduction_angle-vth", "auto_grid-w0", "auto_grid-q"])
    def test_nan_fails_each_law_guard(self, fx, law, message):
        # a bare x < 0 guard lets NaN through to a NaN result; an infinite
        # q_on would match at k = 0; auto_grid names a NaN w0 or q before
        # its spacing test would blame the Q
        with pytest.raises(ValueError, match=message):
            law(fx)

    def test_gm_params_validation(self):
        with pytest.raises(ValueError, match="vth"):
            GmBlockParams(gm0=1e-3, k_wl=1e-3, vdd=1.0, vth=-0.3)
        with pytest.raises(ValueError, match="lam"):
            GmBlockParams(gm0=1e-3, k_wl=1e-3, vdd=1.0, vth=0.3, lam=-0.1)

    @pytest.mark.parametrize("name", ["gm0", "k_wl", "vdd", "vth", "kf", "lam"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gm_params_reject_non_finite(self, name, bad):
        good = dict(gm0=1e-3, k_wl=1e-3, vdd=1.0, vth=0.3)
        with pytest.raises(ValueError, match=name):
            GmBlockParams(**{**good, name: bad})


def targets(fx):
    """The positional targets of AsrrState.from_targets: f0, lsrr, q_off."""
    return fx.cfg["f0"], fx.cfg["lsrr"], fx.cfg["q_off"]


class TestFromTargets:
    def test_gm0_and_q_on_targets_agree(self, fx):
        by_q = fx.state
        by_gm = AsrrState.from_targets(*targets(fx), gm0=by_q.gm.gm0,
                                       line=fx.line, c_asrr=fx.ring.csrr)
        assert by_gm.gm == by_q.gm
        assert by_gm.srr.k == pytest.approx(by_q.srr.k, rel=1e-12)

    def test_exactly_one_boost_target(self, fx):
        for kw in ({}, {"q_on": 54.0, "gm0": 1e-3}):
            with pytest.raises(ValueError, match="exactly one"):
                AsrrState.from_targets(*targets(fx), line=fx.line, **kw)

    def test_default_k_is_matched_at_the_realized_boost(self, fx):
        st = AsrrState.from_targets(*targets(fx), q_on=80.0, line=fx.line)
        locus = fx.line.beta_l(st.srr.w0) * st.srr.k**2 * active.q_on(st)
        assert locus == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(TypeError, match="line"):
            AsrrState.from_targets(*targets(fx), q_on=80.0)

    def test_total_capacitance_and_slope_fallback(self, fx):
        st = AsrrState.from_targets(*targets(fx), line=fx.line, q_on=54.0, k=0.2, vdd=0.5)
        c_total = 1.0 / ((2 * math.pi * fx.cfg["f0"]) ** 2 * fx.cfg["lsrr"])
        # the ring holds the total capacitance; the block has no share to set
        assert st.srr.csrr == c_total
        # no overdrive (vdd/2 <= vth): the device slope falls back to 1e-3
        assert st.gm.k_wl == 1e-3
        with pytest.raises(TypeError, match="c_gm"):
            AsrrState.from_targets(*targets(fx), line=fx.line, q_on=54.0, k=0.2,
                                   c_gm=0.3 * c_total)

    def test_fixture_keeps_k_matched_at_its_own_q_on(self, fx):
        # a configured k is dropped when the fixture moves to another Q
        for pixel in (fx, fx.at_q(100.0), Fixture({"k": 0.2}).at_q(100.0)):
            st = pixel.state
            locus = pixel.line.beta_l(st.srr.w0) * st.srr.k**2 * active.q_on(st)
            assert locus == pytest.approx(1.0, abs=1e-12)
            assert pixel.ring.k == pytest.approx(st.srr.k, rel=1e-14)


class TestParasiticCapacitance:
    def test_state_total_capacitance(self, fx):
        st = fx.state
        assert st.srr.csrr == fx.ring.csrr
        assert st.srr.w0 == pytest.approx(fx.w0, rel=1e-12)

    def test_boost_never_below_unloaded_q(self, fx, rng):
        for q_target in rng.uniform(10.0 + 1e-9, 400.0, size=25):
            st = fx.at_q(float(q_target)).state
            assert active.q_on(st) >= st.srr.q_off


class TestPassiveRecovery:
    def test_vanishing_gm_recovers_passive_two_port(self, fx):
        # the line-facing resonator with the block disabled is the bare ring
        import numpy as np
        from asrrkit.resonator import s_parameters, SrrParams

        st = fx.state
        line = fx.line
        passive = SrrParams(st.srr.lsrr, fx.ring.csrr, st.srr.q_off, fx.ring.k)
        off = with_gm0(st, 1e-300).effective_srr()
        grid = np.linspace(0.98 * fx.w0, 1.02 * fx.w0, 41)
        a = s_parameters(passive, line, grid, z0_ref=fx.line.z0)
        b = s_parameters(off, line, grid, z0_ref=fx.line.z0)
        assert np.max(np.abs(a.s21 - b.s21)) < 1e-15
