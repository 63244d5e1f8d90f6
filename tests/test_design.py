import dataclasses
import math

import pytest

from asrrkit import noise
from asrrkit.active import AsrrState
from asrrkit.design import InfeasibleDesignError, power_from_gm_slope, synthesize
from asrrkit.resonator import TransmissionLineSection, k_max_for_il, optimum_q_for_k
from asrrkit.validate import reference_design_spec


@pytest.fixture
def spec():
    return reference_design_spec()


class TestSynthesize:
    def test_lands_on_reference_pixel(self, spec):
        result = synthesize(spec)
        assert result.q_on == pytest.approx(54.0, rel=1e-9)
        assert result.l_srr == pytest.approx(spec.l_srr_max, rel=1e-9)
        assert result.c_asrr == pytest.approx(11.7e-15, rel=1e-9)
        assert result.gm_required * result.r_srr == pytest.approx(1 - 10 / 54, abs=1e-6)

    def test_matched_locus_held(self, spec):
        result = synthesize(spec)
        w0 = 2 * math.pi * spec.f0
        assert spec.line.beta_l(w0) * result.k**2 * result.q_on == pytest.approx(1.0, abs=1e-9)

    def test_roundtrip_through_analysis(self, spec):
        result = synthesize(spec)
        state = AsrrState.from_targets(
            spec.f0, result.l_srr, spec.q_off, line=spec.line, q_on=result.q_on, k=result.k,
            c_asrr=result.c_asrr, vdd=spec.vdd, vth=spec.vth, kf=result.kf_device,
        )
        assert state.gm.gm0 == pytest.approx(result.gm_required, rel=1e-12)
        snr_c = noise.snr_delta_c(state, spec.flicker_band)
        snr_r = noise.snr_delta_r(state, spec.flicker_band, spec.delta_r_ref)
        assert snr_c == pytest.approx(result.snr_dc, rel=1e-6)
        assert snr_r == pytest.approx(result.snr_dr, rel=1e-6)
        assert state.srr.w0 == pytest.approx(2 * math.pi * spec.f0, rel=1e-9)

    def test_step_chain_is_feed_forward(self, spec):
        # every stage is recomputable from earlier stages alone
        result = synthesize(spec)
        w0 = 2 * math.pi * spec.f0
        k = k_max_for_il(spec.il_budget, spec.n_pixels, spec.line, spec.q_off, w0)
        assert result.k == k
        assert result.q_on == optimum_q_for_k(k, spec.line, w0)
        assert result.l_srr == result.r_srr / (w0 * spec.q_off)
        assert result.c_asrr == pytest.approx(1 / (w0**2 * result.l_srr), rel=1e-12)
        assert result.gm_required == pytest.approx(
            (1 - spec.q_off / result.q_on) / result.r_srr, rel=1e-12)
        overdrive = spec.vdd / 2 - spec.vth
        assert result.wl_ratio_n == pytest.approx(
            result.gm_required / (spec.kn * overdrive), rel=1e-12)
        assert result.gate_area == pytest.approx(
            result.c_gm / (2 * spec.c_per_area), rel=1e-12)
        assert result.w_n == pytest.approx(
            math.sqrt(result.wl_ratio_n * result.gate_area), rel=1e-12)
        assert result.w_n / result.l_n == pytest.approx(result.wl_ratio_n, rel=1e-9)

    def test_snr_targets_force_loss_reduction(self, spec):
        hungry = dataclasses.replace(spec, snr_dr_target=synthesize(spec).snr_dr * 4)
        result = synthesize(hungry)
        assert result.l_srr < spec.l_srr_max
        assert result.snr_dr == pytest.approx(hungry.snr_dr_target, rel=1e-12)
        assert "lowered" in " ".join(result.notes)

    def test_snr_dc_target_can_bind(self, spec):
        base = synthesize(spec)
        hungry = dataclasses.replace(spec, snr_dc_target=base.snr_dc * 3)
        result = synthesize(hungry)
        assert result.snr_dc >= hungry.snr_dc_target * (1 - 1e-12)
        assert result.power_estimate > base.power_estimate

    def test_snr_targets_reach(self, spec):
        # SNR_dC ~ r^-1/2, so a target 2^200 times the ceiling value needs
        # the ring loss lowered 4^200-fold: the deepest accepted
        reach = synthesize(spec).snr_dc * 2.0**200
        met = synthesize(dataclasses.replace(spec, snr_dc_target=0.999 * reach))
        assert met.snr_dc == pytest.approx(0.999 * reach, rel=1e-12)
        # past the reach, down to a factor that underflows to zero
        for target in (1.001 * reach, 1e300):
            with pytest.raises(InfeasibleDesignError) as err:
                synthesize(dataclasses.replace(spec, snr_dc_target=target))
            assert err.value.constraint == "snr targets"

    def test_loop_gain_rounding_to_one_named(self, spec):
        # a budget this tight floors Q_on at 5e20, where gm*R = 1 - 2e-20
        # rounds to 1: the boost limit names it before any state is built
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(dataclasses.replace(spec, il_budget=1e-20))
        assert err.value.constraint == "boost limit"
        assert "Q_on/Q_off = 5e+19 exceeds 1e+08" in err.value.detail

    def test_relaxed_il_budget_lowers_q_floor_and_helps_snr(self, spec):
        tight = synthesize(spec)
        # moderately looser budget keeps the coupling within the cap
        loose_spec = dataclasses.replace(spec, il_budget=spec.il_budget * 1.15)
        loose = synthesize(loose_spec)
        assert loose.q_on < tight.q_on
        assert loose.snr_dc > tight.snr_dc

    def test_infeasible_coupling_named(self, spec):
        bad = dataclasses.replace(spec, il_budget=0.5)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(bad)
        assert err.value.constraint == "coupling limit"

    def test_infeasible_bias_named(self, spec):
        bad = dataclasses.replace(spec, vdd=0.5, vth=0.3)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(bad)
        assert err.value.constraint == "bias headroom"

    def test_loose_budget_skips_boosting(self, spec):
        # a quality-factor floor below q_off needs no negative resistance;
        # matching an unboosted ring within the coupling cap takes a long
        # segment (beta*l*q_off >= 16)
        w0 = 2 * math.pi * spec.f0
        long_line = TransmissionLineSection.from_electrical(spec.z0, 2.0, w0, length=120e-6)
        quiet = dataclasses.replace(
            spec,
            line=long_line,
            q_off=15.0,
            il_budget=0.6,
            snr_dc_target=1e-6,
            snr_dr_target=1e-9,
            l_srr_max=spec.l_srr_max / 40.0,
        )
        result = synthesize(quiet)
        assert result.q_on == 15.0
        assert result.gm_required == 0.0
        assert result.k == pytest.approx(1 / math.sqrt(2.0 * 15.0), rel=1e-9)
        assert "loose" in " ".join(result.notes)

    def test_loose_budget_over_geometric_limit_named(self, spec):
        # loose branch (q floor 4 < q_off 10) whose matched k = 1/sqrt(0.5*10)
        # exceeds the geometric limit: named, not a bare ValueError
        w0 = 2 * math.pi * spec.f0
        short = TransmissionLineSection.from_electrical(spec.z0, 0.5, w0, length=30e-6)
        bad = dataclasses.replace(spec, line=short, il_budget=0.5556)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(bad)
        assert err.value.constraint == "coupling limit"
        assert "k = 0.447" in err.value.detail

    def test_budget_allowing_unit_coupling_cannot_bind(self, spec):
        # il_budget 0.9 caps k at 2.3: no floor on Q, so the loose branch
        # matches at q_off and names the coupling it needs (k = 0.535)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(dataclasses.replace(spec, il_budget=0.9))
        assert err.value.constraint == "coupling limit"
        assert "k = 0.535" in err.value.detail
        # on a long segment the same branch succeeds below the cap (k_max 2.6)
        w0 = 2 * math.pi * spec.f0
        long_line = TransmissionLineSection.from_electrical(spec.z0, 2.0, w0, length=120e-6)
        loose = dataclasses.replace(
            spec, line=long_line, q_off=15.0, il_budget=0.99, snr_dc_target=1e-6,
            snr_dr_target=1e-9, l_srr_max=spec.l_srr_max / 40.0,
        )
        result = synthesize(loose)
        assert result.q_on == 15.0
        assert result.k == pytest.approx(1 / math.sqrt(2.0 * 15.0), rel=1e-9)

    def test_unrealizable_matched_coupling_named(self, spec):
        # beta_l * q_off = 0.5: matching the unboosted ring needs k = 1.41
        w0 = 2 * math.pi * spec.f0
        short = TransmissionLineSection.from_electrical(spec.z0, 0.05, w0, length=30e-6)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(dataclasses.replace(spec, line=short, il_budget=0.9))
        assert err.value.constraint == "coupling limit"
        assert "k=1.414" in err.value.detail


class TestPowerEstimate:
    def test_zero_gm_zero_power(self):
        assert power_from_gm_slope(0.0, 1.0, 0.3) == 0.0

    def test_linear_in_gm(self):
        p1 = power_from_gm_slope(1e-3, 1.0, 0.3)
        assert power_from_gm_slope(2e-3, 1.0, 0.3) == pytest.approx(2 * p1, rel=1e-12)

    def test_result_power_matches_slope_form(self, spec):
        result = synthesize(spec)
        assert result.power_estimate == pytest.approx(
            power_from_gm_slope(result.gm_required, spec.vdd, spec.vth), rel=1e-12)


class TestSpecValidation:
    def test_bad_budget_rejected(self, spec):
        with pytest.raises(ValueError):
            dataclasses.replace(spec, il_budget=1.5)

    def test_bad_pixel_count_rejected(self, spec):
        with pytest.raises(ValueError):
            dataclasses.replace(spec, n_pixels=0)

    def test_z0_other_than_the_lines_rejected(self, spec):
        # nothing reads spec.z0 beside its line's, so a second value is refused
        with pytest.raises(ValueError, match=r"z0 = 75\.0 differs from the line's z0 = 50\.0"):
            dataclasses.replace(spec, z0=75.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["f0", "il_budget", "snr_dc_target", "kn", "vdd",
                                      "l_srr_max", "q_off"])
    def test_non_finite_rejected(self, spec, name, bad):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(spec, **{name: bad})
