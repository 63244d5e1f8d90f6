import dataclasses
import inspect
import math

import numpy as np
import pytest

from asrrkit import active, config, noise, resonator, validate
from asrrkit.oracle import solve_linear
from asrrkit.resonator import SrrParams


def device_slopes(st):
    """K(W/L)*(1 + lam*(vdd - vth)) summed over the NMOS and PMOS: the
    devices' gm slope to their gate voltage, biased at vdd/2."""
    p = st.gm
    return 2 * p.k_wl * (1 + p.lam * (p.vdd - p.vth))


def with_lam(st, lam):
    return dataclasses.replace(st, gm=dataclasses.replace(st.gm, lam=lam))


P_IN = 10e-6  # incident carrier power [W]
T = config.KEYS["temperature"].default
DW = 2 * math.pi * 20e6  # sample-induced resonance offset [rad/s]


class TestWhiteNoise:
    def test_scales_linearly_with_q(self, fx):
        # fixed device (gm0, gamma), quality factor moved by the ring loss
        kwl = fx.state.gm.k_wl
        st1 = fx.at_q(30.0, k_wl=kwl).state
        gm_fixed = st1.gm
        st2_srr = SrrParams(st1.srr.lsrr, st1.srr.csrr, st1.srr.q_off / 2, st1.srr.k)
        import dataclasses

        gm_same = dataclasses.replace(gm_fixed)
        st2 = active.AsrrState(srr=st2_srr, gm=gm_same, line=st1.line)
        # k back on the matched locus at the new Q_on, the density's domain
        k2 = resonator.optimum_k_for_q(active.q_on(st2), st2.line, st2.srr.w0)
        st2 = dataclasses.replace(st2, srr=dataclasses.replace(st2_srr, k=k2))
        ratio = noise.white_output_noise_density(st2, T) / noise.white_output_noise_density(st1, T)
        assert ratio == pytest.approx(active.q_on(st2) / active.q_on(st1), rel=1e-12)

    def test_vanishes_without_active_noise(self, fx):
        import dataclasses

        cold_gm = dataclasses.replace(fx.state.gm, gamma=1e-20)
        cold = dataclasses.replace(fx.state, gm=cold_gm)
        assert noise.white_output_noise_density(cold, T) \
            == pytest.approx(noise.white_output_noise_density(fx.state, T) * 1e-20, rel=1e-9)

    def test_against_mesh_injection(self, fx):
        # inject a unit current across the line-referred resonator and
        # compute the transfer to the termination from a nodal solve
        st = fx.state
        line = fx.line
        z0 = fx.line.z0
        z_res = resonator.coupling_ratio(fx.ring, line) * z0  # real R' at resonance
        a = np.array(
            [
                [1 / z0 + 1 / z_res, -1 / z_res],
                [-1 / z_res, 1 / z0 + 1 / z_res],
            ],
            dtype=complex,
        )
        b = np.array([1.0, -1.0], dtype=complex)  # unit source across the resonator
        v1, v2 = solve_linear(a, b[:, None])[:, 0]
        transfer_v2_per_i2 = abs(v2) ** 2  # |V_out|^2 per unit injected current^2
        # current density referred into the line picks up R_boost/z0
        i2_referred = active.boosted_resistance(st) / z0
        i2_device = 4 * noise.BOLTZMANN * T * st.gm.gamma * st.gm.gm0
        v2_out = transfer_v2_per_i2 * i2_referred * i2_device
        assert v2_out == pytest.approx(noise.white_output_noise_density(st, T), rel=0.01)
        # one ninth of the injected current reaches the termination
        assert abs(v2 / z0) ** 2 == pytest.approx(1.0 / 9.0, rel=0.01)

    def test_ssb_tracks_carrier(self, fx):
        diff = (noise.white_ssb_phase_noise(fx.state, P_IN / 2, T)
                - noise.white_ssb_phase_noise(fx.state, P_IN, T))
        assert diff == pytest.approx(10 * math.log10(2.0), abs=1e-9)

    def test_detected_power_fraction(self, fx):
        assert noise.detected_power(fx.state, P_IN) / P_IN == pytest.approx(4 / 9, rel=1e-12)

    def test_ssb_rises_with_q(self, fx):
        kwl = fx.state.gm.k_wl
        vals = [noise.white_ssb_phase_noise(fx.at_q(q, k_wl=kwl).state, P_IN, T)
                for q in (20.0, 54.0, 150.0)]
        assert vals[0] < vals[1] < vals[2]


class TestSlopeSensitivities:
    def test_flicker_quadratic_in_q(self, fx):
        kwl = fx.state.gm.k_wl
        s50 = noise.flicker_sres_sensitivity(fx.at_q(50.0, k_wl=kwl).state)
        s100 = noise.flicker_sres_sensitivity(fx.at_q(100.0, k_wl=kwl).state)
        assert s100 / s50 == pytest.approx(4.0, abs=1e-9)

    def test_supply_quadratic_in_q(self, fx):
        kwl = fx.state.gm.k_wl
        s50 = noise.supply_sres_sensitivity(fx.at_q(50.0, k_wl=kwl).state)
        s100 = noise.supply_sres_sensitivity(fx.at_q(100.0, k_wl=kwl).state)
        assert s100 / s50 == pytest.approx(4.0, abs=1e-9)

    def test_scales_with_device_slopes(self, fx):
        import dataclasses

        st = fx.state
        doubled = dataclasses.replace(st.gm, k_wl=2 * st.gm.k_wl)
        st2 = dataclasses.replace(st, gm=doubled)
        assert noise.flicker_sres_sensitivity(st2) \
            == pytest.approx(2 * noise.flicker_sres_sensitivity(st), rel=1e-12)

    def test_supply_slope_lambda_zero(self, fx):
        # without channel-length modulation a supply wiggle moves each
        # device's gm by K(W/L)/2 per volt
        st = fx.state
        assert st.gm.lam == 0.0
        chain = (resonator.loss_slope_factor(st.rho) / 2 * st.srr.lsrr * active.q_on(st) ** 2
                 * st.gm.k_wl)
        assert noise.supply_sres_sensitivity(st) == pytest.approx(chain, rel=1e-12)

    def test_supply_to_flicker_prefactor_ratio(self, fx):
        for st in (fx.state, with_lam(fx.state, 0.1)):
            slopes_vgs = device_slopes(st)
            slopes_vdd = device_slopes(st) / 2
            got = noise.supply_sres_sensitivity(st) / noise.flicker_sres_sensitivity(st)
            assert got == pytest.approx(4.0 * slopes_vdd / slopes_vgs, rel=1e-12)

    def test_flicker_against_perturbation_chain(self, fx):
        # gate offset -> block gm shift -> boosted loss -> phase slope
        line = fx.line
        v_fn = 1e-4
        for st in (fx.state, with_lam(fx.state, 0.1)):
            r = st.srr.r_parallel()
            dgm = device_slopes(st) / 8 * v_fn

            def slope_for(gm_val):
                q = st.srr.q_off / (1 - gm_val * r)
                srr_q = SrrParams(st.srr.lsrr, fx.ring.csrr, q, fx.ring.k)
                return resonator.output_phase_slope(srr_q, line)

            fd = (slope_for(st.gm.gm0 + dgm) - slope_for(st.gm.gm0 - dgm)) / (2 * v_fn)
            assert fd == pytest.approx(noise.flicker_sres_sensitivity(st), rel=0.01)

    def test_channel_length_modulation_enters_slopes(self, fx):
        st = fx.state
        st_lam = with_lam(st, 0.1)
        factor_vgs = 1 + 0.1 * (st.gm.vdd - st.gm.vth)
        factor_vdd = (0.5 + 0.05 * (st.gm.vdd - st.gm.vth)) / 0.5
        assert device_slopes(st_lam) == pytest.approx(
            2 * st.gm.k_wl * factor_vgs, rel=1e-12)
        assert noise.alpha_flicker(st_lam) == pytest.approx(
            noise.alpha_flicker(st) * factor_vgs, rel=1e-12)
        assert noise.flicker_sres_sensitivity(st_lam) == pytest.approx(
            noise.flicker_sres_sensitivity(st) * factor_vgs, rel=1e-12)
        assert noise.supply_sres_sensitivity(st_lam) == pytest.approx(
            noise.supply_sres_sensitivity(st) * factor_vdd, rel=1e-12)

    def test_supply_against_perturbation_chain(self, fx):
        line = fx.line
        v_dd = 1e-4
        for st in (fx.state, with_lam(fx.state, 0.1)):
            r = st.srr.r_parallel()
            # a supply wiggle moves the internal nodes, so each device slope, by half
            dgm = device_slopes(st) / 2 / 2 * v_dd

            def slope_for(gm_val):
                q = st.srr.q_off / (1 - gm_val * r)
                srr_q = SrrParams(st.srr.lsrr, fx.ring.csrr, q, fx.ring.k)
                return resonator.output_phase_slope(srr_q, line)

            fd = (slope_for(st.gm.gm0 + dgm) - slope_for(st.gm.gm0 - dgm)) / (2 * v_dd)
            assert fd == pytest.approx(noise.supply_sres_sensitivity(st), rel=0.01)


class TestFlickerPhaseNoise:
    def test_notch_is_minus_inf_at_zero_detuning(self, fx):
        assert noise.flicker_phase_noise(fx.state, 0.0, 1e3) == -math.inf

    def test_six_db_per_detuning_doubling(self, fx):
        diff = (noise.flicker_phase_noise(fx.state, 2 * DW, 1e3)
                - noise.flicker_phase_noise(fx.state, DW, 1e3))
        assert diff == pytest.approx(10 * math.log10(4.0), abs=1e-9)

    def test_ten_db_per_offset_decade(self, fx):
        diff = (noise.flicker_phase_noise(fx.state, DW, 1e4)
                - noise.flicker_phase_noise(fx.state, DW, 1e3))
        assert diff == pytest.approx(-10.0, abs=1e-9)


class TestSupplyPhaseNoise:
    def test_quadratic_in_psd_and_detuning(self, fx):
        base = noise.supply_phase_noise(fx.state, DW, 1e-18)
        assert noise.supply_phase_noise(fx.state, DW, 4e-18) - base == pytest.approx(
            10 * math.log10(4.0), abs=1e-9)
        assert noise.supply_phase_noise(fx.state, 2 * DW, 1e-18) - base == pytest.approx(
            10 * math.log10(4.0), abs=1e-9)

    def test_notch_at_resonance(self, fx):
        assert noise.supply_phase_noise(fx.state, 0.0, 1e-18) == -math.inf


class TestInputPhaseTransfer:
    def test_unity_at_dc(self, fx):
        gain = noise.input_phase_transfer(54.0, fx.w0, 0.0)
        assert gain == 1.0 and type(gain) is float

    def test_corner_doubles(self, fx):
        w0 = fx.w0
        gain = noise.input_phase_transfer(54.0, w0, w0 / (2 * 54.0))
        assert gain == pytest.approx(2.0, abs=1e-9)

    def test_low_offset_flat(self, fx):
        # transfer stays below 1.01 for offsets under 0.05 * w0/Q
        w0 = fx.w0
        q = 54.0
        for frac in (0.01, 0.02, 0.045):
            assert noise.input_phase_transfer(q, w0, frac * w0 / q) < 1.01

    def test_never_below_unity(self, fx):
        offsets = np.geomspace(1.0, 1e10, 40)
        gains = noise.input_phase_transfer(54.0, fx.w0, offsets)
        assert isinstance(gains, np.ndarray) and np.all(gains >= 1.0)


class TestPmToAm:
    OFFSET = 2 * math.pi * 1e6

    def test_null_at_resonance(self, fx):
        assert noise.pm_to_am_gain(fx.ring, fx.line, fx.w0, self.OFFSET) < -60.0

    def test_six_db_per_offset_doubling(self, fx):
        w_in = fx.w0 * (1 + 0.3 / fx.cfg["q_on"])
        d = (noise.pm_to_am_gain(fx.ring, fx.line, w_in, 2e6)
             - noise.pm_to_am_gain(fx.ring, fx.line, w_in, 1e6))
        assert d == pytest.approx(20 * math.log10(2.0), abs=1e-9)

    def test_null_sits_at_the_s21_minimum_just_above_resonance(self, fx):
        # the (wM)^2 factor puts the |S21| minimum ~0.3/Q^2 above w0, so the
        # gain at w0 is finite and the null sits at the minimum
        w = fx.w0 * (1 + np.linspace(0.0, 2e-4, 2001))
        mag = np.abs(resonator.s_parameters(fx.ring, fx.line, w).s21)
        gain = noise.pm_to_am_gain(fx.ring, fx.line, w, self.OFFSET)
        assert np.argmin(mag) * 1e-7 == pytest.approx(0.3 / fx.cfg["q_on"] ** 2, rel=0.02)
        assert abs(int(np.argmin(gain)) - int(np.argmin(mag))) <= 1
        assert gain[0] == pytest.approx(-109.54, abs=0.01)

    def test_closed_form_matches_a_central_difference(self, rng):
        # at the noise command's rows, against a central difference of the
        # analytic |S21| over seeded matched pixels
        worst = 0.0
        for _ in range(50):
            srr, line, w0 = validate._random_matched(rng)
            w = w0 + np.arange(-39, 40) * (w0 / (20.0 * srr.q_off))
            h = 1e-5 * w0 / srr.q_off

            def mag(x):
                return np.abs(resonator.s_parameters(srr, line, x).s21)

            numeric = np.abs(mag(w + h) - mag(w - h)) / (2 * h) * self.OFFSET / mag(w)
            closed = 10 ** (noise.pm_to_am_gain(srr, line, w, self.OFFSET) / 20)
            worst = max(worst, float(np.max(np.abs(closed - numeric)) / np.max(numeric)))
        assert worst < 1e-8  # measured 4.1e-9


class TestFlickerRms:
    def test_degenerate_band(self):
        # the one band rule: an empty or reversed band is refused, not read as 0 V
        for band in ((1e3, 1e3), (1e3, 1.0)):
            with pytest.raises(ValueError, match="flicker band"):
                noise.flicker_rms(1e-10, band)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="flicker band"):
            noise.flicker_rms(1e-10, (1.0, bad))

    def test_natural_log_band(self):
        assert noise.flicker_rms(1e-10, (1.0, math.e)) == pytest.approx(math.sqrt(1e-10), rel=1e-12)

    def test_against_quadrature(self):
        kf = 3e-11
        band = (1.0, 1e3)
        f = np.geomspace(band[0], band[1], 200_001)
        num = math.sqrt(np.trapezoid(kf / f, f))
        assert noise.flicker_rms(kf, band) == pytest.approx(num, rel=1e-6)


class TestSnr:
    def test_detuning_invariance_bit_exact(self, fx):
        st = fx.state
        vals_c, vals_r = set(), set()
        for df in (1e6, 10e6, 100e6):
            _ = df  # the closed forms carry no detuning dependence at all
            vals_c.add(noise.snr_delta_c(st, (1.0, 1e3)))
            vals_r.add(noise.snr_delta_r(st, (1.0, 1e3), 1.0))
        assert len(vals_c) == 1 and len(vals_r) == 1

    def test_full_chain_recomputation(self, fx):
        # signal: matched phase slope; noise: four-device flicker-driven
        # slope wobble (amplitude weight 4); detuning cancels
        st = fx.state
        band = (1.0, 1e3)
        s_res = resonator.output_phase_slope(fx.ring, fx.line)
        kf = st.gm.kf
        chain = s_res / (4 * noise.flicker_rms(kf, band) * noise.flicker_sres_sensitivity(st))
        assert chain == pytest.approx(noise.snr_delta_c(st, band), rel=1e-6)

    def test_loss_snr_scaling(self, fx):
        st = fx.state
        band = (1.0, 1e3)
        base = noise.snr_delta_r(st, band, 1.0)
        assert noise.snr_delta_r(st, band, 3.0) == pytest.approx(3 * base, rel=1e-12)
        # inverse-square in the ring loss at fixed alpha and band
        import dataclasses

        srr2 = SrrParams(st.srr.lsrr * 2, st.srr.csrr, st.srr.q_off, st.srr.k)
        gm2 = dataclasses.replace(st.gm, gm0=st.gm.gm0 / 2.075)  # keep it stable
        st2 = dataclasses.replace(st, srr=srr2, gm=gm2)
        ratio = noise.snr_delta_r(st2, band, 1.0) / base
        assert ratio == pytest.approx((st.srr.r_parallel() / st2.srr.r_parallel()) ** 2, rel=1e-9)

    def test_decoupled_ring_is_refused_by_name(self, fx):
        # rho = 0: the phase-slope factor P in 4/P vanishes
        with pytest.raises(ValueError, match=r"^k = 0 decouples the ring"):
            noise.snr_delta_c(fx.at_q(54.0, k=0.0).state, (1.0, 1e3))

    def test_snr_that_is_not_finite_is_refused_by_name(self, fx):
        def with_gm(**gm):
            return dataclasses.replace(fx.state, gm=dataclasses.replace(fx.state.gm, **gm))

        # the noise term underflows to zero, or the ratio overflows: inf either way
        with pytest.raises(ValueError, match=r"^SNR_dC = .* must be finite"):
            noise.snr_delta_c(with_gm(k_wl=1e-300, kf=1e-26), (1.0, 1e3))
        with pytest.raises(ValueError, match=r"^SNR_dR = .* must be finite"):
            noise.snr_delta_r(with_gm(k_wl=1e-300), (1.0, 1e3), 1e100)


NOISE_LAWS = (noise.white_output_noise_density, noise.detected_power,
              noise.white_ssb_phase_noise, noise.flicker_phase_noise, noise.supply_phase_noise)
# a valid value of every input a noise law reads after the state
VALID = dict(temperature=T, p_in=P_IN, delta_omega_s=DW, offset_freq=1e3, supply_psd=1e-18)


def refused_by_every_law_reading(state, field, bad):
    """Each noise law that takes field refuses the bad value by name."""
    readers = 0
    for law in NOISE_LAWS:
        inputs = {name: VALID[name] for name in list(inspect.signature(law).parameters)[1:]}
        if field in inputs:
            readers += 1
            with pytest.raises(ValueError, match=field):
                law(state, **{**inputs, field: bad})
    assert readers


class TestContextGuards:
    def test_context_validation(self, fx):
        refused_by_every_law_reading(fx.state, "temperature", 0.0)
        refused_by_every_law_reading(fx.state, "p_in", 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["temperature", "p_in", "delta_omega_s"])
    def test_context_rejects_non_finite(self, fx, field, bad):
        refused_by_every_law_reading(fx.state, field, bad)

    def test_bad_offsets_rejected(self, fx):
        for bad in (0.0, -1e3, math.nan, math.inf):
            refused_by_every_law_reading(fx.state, "offset_freq", bad)
            with pytest.raises(ValueError, match="offset"):
                noise.pm_to_am_gain(fx.ring, fx.line, fx.w0, bad)
        for bad in (-1e-18, math.nan, math.inf):
            refused_by_every_law_reading(fx.state, "supply_psd", bad)
        with pytest.raises(ValueError, match="band"):
            noise.flicker_rms(1e-10, (0.0, 1e3))
