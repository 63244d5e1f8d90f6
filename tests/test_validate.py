"""The record contract of the validate suite: each check returns
(metric, value, tol) records, and CheckResult derives pass/fail and text."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asrrkit import active, validate
from asrrkit.validate import REFERENCE_CONFIG, CheckResult, Fixture

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def results():
    return validate.run_all()


class TestRecordRule:
    def test_value_at_tol_passes(self):
        assert CheckResult("x", [("m", 1e-9, 1e-9)]).passed

    def test_value_just_over_tol_fails(self):
        over = math.nextafter(1e-9, math.inf)
        res = CheckResult("x", [("a", 0.0, 1.0), ("m", over, 1e-9)])
        assert not res.passed

    def test_nan_fails(self):
        assert not CheckResult("x", [("m", math.nan, 1e-9)]).passed

    def test_no_records_fails(self):
        assert not CheckResult("x", []).passed

    def test_detail_lists_each_record(self):
        res = CheckResult("x", [("a", 2.5e-16, 1e-12), ("b", math.inf, 1.000001)])
        assert res.detail == "a 2.50e-16 (tol 1e-12), b inf (tol 1.000001)"
        assert res.line() == f"[FAIL] x: {res.detail}"


class TestRunCheck:
    def test_crash_fails_and_keeps_its_name(self):
        def check_crashing_probe(rng, fx):
            raise RuntimeError("boom")

        res = validate.run_check(check_crashing_probe, Fixture())
        assert res.name == "crashing-probe"
        assert res.passed is False
        assert res.detail == "raised RuntimeError('boom')"
        assert res.elapsed >= 0.0

    def test_seeded(self):
        def check_draw(rng, fx):
            return [("draw", rng.uniform(), 1.0)]

        first = validate.run_check(check_draw, Fixture(), seed=5)
        again = validate.run_check(check_draw, Fixture(), seed=5)
        assert first.measurements == again.measurements


class TestFixtureFromConfig:
    @pytest.mark.parametrize("vth", [0.34, 0.4])
    def test_block_outside_the_compression_domain_is_refused(self, vth):
        # vth > vdd/3 with the default slopes: the averaged gm would rise above gm0
        with pytest.raises(ValueError, match="compression needs"):
            validate.run_all({"vth": vth})

    def test_block_at_the_domain_edge_is_accepted(self):
        assert all(r.passed for r in validate.run_all({"vth": 1.0 / 3.0}))

    def test_q_on_above_the_checked_domain_is_refused(self):
        with pytest.raises(ValueError, match="validate checks Q_on up to 10000"):
            validate.run_all({"q_on": validate.Q_ON_MAX * (1 + 1e-9)})
        with pytest.raises(ValueError, match="q_on = 20000"):
            validate.run_all({"gm0": (1 - 10 / 2e4) / Fixture().state.srr.r_parallel()})

    def test_q_on_at_the_domain_edge_passes_every_check(self):
        assert all(r.passed for r in validate.run_all({"q_on": validate.Q_ON_MAX}))

    def test_file_keys_replace_the_reference_values(self):
        fx = Fixture({"lsrr": 60e-12, "vdd": 1.2, "c_asrr": 12e-15})
        assert fx.cfg == {**REFERENCE_CONFIG, "lsrr": 60e-12, "vdd": 1.2, "c_asrr": 12e-15}
        assert fx.ring.lsrr == fx.state.srr.lsrr == 60e-12
        assert fx.state.gm.vdd == 1.2
        assert fx.w0 == fx.state.srr.w0 == 1.0 / math.sqrt(60e-12 * 12e-15)

    def test_gm0_replaces_the_reference_q_on(self):
        fx = Fixture({"gm0": 1e-3})
        assert "q_on" not in fx.cfg and fx.state.gm.gm0 == 1e-3
        assert fx.ring.q_off == active.q_on(fx.state)

    def test_a_new_q_drops_the_configured_k_and_gm0(self):
        fx = Fixture({"gm0": 1e-3, "k": 0.2}).at_q(80.0)
        assert fx.cfg == {**REFERENCE_CONFIG, "q_on": 80.0}


class TestSuite:
    def test_every_check_has_a_finite_tol(self, results):
        assert len(results) == len(validate.ALL_CHECKS)
        for res in results:
            assert res.error is None, res.line()
            assert res.measurements, res.name
            assert all(math.isfinite(tol) for _, _, tol in res.measurements), res.line()

    def test_passed_is_a_plain_bool(self, results):
        # the bench writes it with json.dump
        assert all(type(res.passed) is bool for res in results)

    def test_pm_to_am_null_gate_is_strict(self, results):
        (res,) = [r for r in results if r.name == "pm-to-am"]
        tol = dict((metric, t) for metric, _, t in res.measurements)["gain at resonance dB"]
        assert not CheckResult("pm-to-am", [("gain", -60.0, tol)]).passed
        assert CheckResult("pm-to-am", [("gain", math.nextafter(-60.0, -math.inf), tol)]).passed

    def test_names_match_the_bench_timings(self, results):
        per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
        timed = [m["name"].removeprefix("validate.").removesuffix("_s") for m in per_layer
                 if m["name"].startswith("validate.") and m["name"].endswith("_s")
                 and m["name"] != "validate.run_all_s"]
        assert [res.name for res in results] == timed


def seeded():
    return np.random.default_rng(validate.SEED)


class TestSensitivityAnchors:
    ANCHORS = ["dw0/dC anchor", "dS/dR passive anchor", "dS/dR boosted anchor"]
    FD = ["dw0/dC fd", "dS/dR passive fd", "dS/dR boosted fd",
          "dS/dR fd vs LS(rho)*C off the locus"]

    def test_reference_fixture_keeps_every_record(self):
        records = validate.check_sensitivity_anchors(seeded(), Fixture())
        assert sorted(metric for metric, _, _ in records) == sorted(self.ANCHORS + self.FD)

    @pytest.mark.parametrize("field, value", [("f0", 150e9), ("q_on", 80.0), ("q_off", 5.0)])
    def test_configured_fixture_drops_the_reference_anchors(self, field, value):
        # the documented values belong to the reference pixel alone
        records = validate.check_sensitivity_anchors(seeded(), Fixture({field: value}))
        assert [metric for metric, _, _ in records] == self.FD
        assert all(v <= tol for _, v, tol in records)

    @pytest.mark.parametrize("q_off", [1e-2, 1e-3])
    def test_boosted_difference_stays_short_of_the_boost_pole(self, q_off):
        # boosts 5400 and 54000: a step of 1e-4*r would reach r = 1/gm0
        records = validate.check_sensitivity_anchors(seeded(), Fixture({"q_off": q_off}))
        (value, tol), = [(v, t) for metric, v, t in records if metric == "dS/dR boosted fd"]
        assert value <= tol


def test_oracle_equivalence_solves_in_bounded_blocks():
    # ORACLE_BLOCK = 20 circuits per stacked solve peak at 2.0 MB of traced
    # memory (numpy 2.4); blocks of 50 peak at 4.7 MB, and all 200 circuits
    # in one solve at 17 MB, which raised verify's peak RSS by 14 MB
    tracemalloc.start()
    try:
        result = validate.run_check(validate.check_oracle_equivalence, Fixture())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 3 * 2**20
