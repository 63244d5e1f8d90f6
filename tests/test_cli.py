import hashlib
import math
import os
import random
import re
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from asrrkit import active, cli, config, design, noise, resonator, validate
from asrrkit.active import AsrrState
from asrrkit.cli import main
from asrrkit.config import Pixel, parse_config_file
from asrrkit.resonator import TransmissionLineSection
from asrrkit.sweepio import fmt

REFERENCE_CONFIG = """
# reconstructed 200 GHz pixel, matched coupling
f0 = 200 GHz
lsrr = 54.12456 pH
q_off = 10
q_on = 54
z0 = 50 ohm
beta_l = 0.35 rad
"""

COMMANDS = ("sweep", "match", "nonlin", "noise", "snr", "design")  # all but validate


BAND = config.read({}, "f_lo"), config.read({}, "f_hi")  # the default flicker band


def write_config(tmp_path, text=REFERENCE_CONFIG, name="pixel.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestSweep:
    def test_matched_notch_depth(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        header, data = read_csv(tmp_path / "sweep.csv")
        f0 = 200e9
        i0 = np.argmin(np.abs(data[:, 0] - f0))
        mag_db = data[i0, header.index("mag_s21_db")]
        assert mag_db == pytest.approx(-3.52, abs=0.05)

    def test_zero_coupling_flat(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "k = 0\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / "sweep.csv")
        assert np.max(np.abs(data[:, 5])) < 1e-9

    def test_emitted_phase_slope(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        header, data = read_csv(tmp_path / "sweep.csv")
        f = data[:, 0]
        phase = np.radians(data[:, header.index("phase_s21_deg")])
        i0 = int(np.argmin(np.abs(f - 200e9)))
        slope = (phase[i0 + 1] - phase[i0 - 1]) / (2 * math.pi * (f[i0 + 1] - f[i0 - 1]))
        expect = (2.0 / 3.0) * 54.0 / (2 * math.pi * 200e9)
        assert slope == pytest.approx(expect, rel=0.01)

    def test_touchstone_output(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--format", "s2p", "--quiet"]) == 0
        text = (tmp_path / "sweep.s2p").read_text()
        assert text.startswith("# Hz S RI R 50")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_auto_grid_spacing_resolves_the_notch(self, tmp_path):
        # default grid spacing stays at or below f0/(100 * Q) around resonance
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / "sweep.csv")
        spacing = np.diff(data[:, 0])
        # 12-significant-digit emission quantizes 200 GHz values to 1 Hz
        assert np.max(spacing) <= 200e9 / (100 * 54) + 2.0

    def test_explicit_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--grid", "190e9:210e9:41", "--quiet"]) == 0
        _, data = read_csv(tmp_path / "sweep.csv")
        assert len(data) == 41
        assert data[0, 0] == pytest.approx(190e9)
        assert data[-1, 0] == pytest.approx(210e9)

    def test_bad_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--grid", "oops", "--quiet"]) == 1

    @pytest.mark.parametrize("grid, message", [
        ("1e9:inf:3", "--grid STOP must be finite"), ("1e9:1e400:2", "--grid STOP must be finite"),
        ("nan:1e9:3", "--grid START must be finite"), ("-inf:1e9:3", "--grid START must be finite"),
        # finite bounds, but (w*M)^2 overflows at 1e300 Hz
        ("1e9:1e300:3", "sweep S-parameters must be finite"),
        # finite, but not a grid: descending, one point, from zero, empty span
        *((grid, "grid needs 0 < START < STOP and N >= 2")
          for grid in ("2e11:1e11:11", "1e11:2e11:1", "0:1e11:11", "1e11:1e11:5")),
        # one point past the cap, an 80 MB grid
        ("190e9:210e9:10000001", "--grid N must be at most 1e+07, got 10000001"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_grid_that_would_write_non_finite_rows_is_refused(self, tmp_path, capsys, grid,
                                                               message):
        # each refusal comes before the run allocates a large grid
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", cfg, "--out", str(out), f"--grid={grid}",
                         "--quiet"]) == 1
            assert tracemalloc.get_traced_memory()[1] < 1e6
        finally:
            tracemalloc.stop()
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["sweep", "--quiet"]) == 1
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 1

    def test_printed_s21_is_read_at_the_ring_resonance(self, tmp_path, capsys):
        # c_asrr = 5 fF puts the ring's own resonance at 306 GHz, far from f0:
        # the automatic grid is centred there, and a given grid may miss it
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "c_asrr = 5 fF\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "sweep.csv")
        # the middle row sits on the resonance: zero transmission phase
        assert abs(data[len(data) // 2, header.index("phase_s21_deg")]) < 1e-9
        assert "|S21(3.05941e+11 Hz)| = -3.522 dB" in capsys.readouterr().out
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--grid", "190e9:210e9:21"]) == 0
        assert ("ring resonance 3.05941e+11 Hz is outside the grid 1.9e+11..2.1e+11 Hz"
                in capsys.readouterr().out)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--grid", "290e9:320e9:31"]) == 0
        header, data = read_csv(tmp_path / "sweep.csv")
        i0 = int(np.argmin(np.abs(data[:, 0] - 305.941e9)))
        assert data[i0, 0] == 306e9
        assert (f"|S21(3.06e+11 Hz)| = {data[i0, header.index('mag_s21_db')]:.3f} dB"
                in capsys.readouterr().out)

    def test_auto_grid_has_601_points_whatever_span_over_step_rounds_to(self, tmp_path):
        # 3 bandwidths either side at 100 points each: span/step rounds to
        # 299.99999999999994 for this pixel, which once gave 599 points
        cfg = write_config(tmp_path, "f0 = 73.1149448404 GHz\nlsrr = 59.8697033169 pH\n"
                                     "q_off = 148.54656651\nq_on = 296.419080731\n"
                                     "z0 = 44.7847538267 ohm\nbeta_l = 0.121380644308 rad\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / "sweep.csv")
        assert len(data) == 601

    def test_auto_grid_refuses_a_q_past_the_resolution_of_doubles(self, tmp_path, capsys):
        # a step w0/(100*Q) below the spacing of doubles at 200 GHz: the grid
        # is refused by its Q, and an explicit grid still sweeps the pixel.
        # The ring is unboosted, since a boost this large is refused first
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("q_off = 10", "q_off = 1e15")
                           .replace("q_on = 54\n", ""))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "Q = 1e+15 is too high for an automatic grid" in err
        assert err.rstrip().endswith("; give sweep a --grid") and not out.exists()
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet",
                     "--grid", "199e9:201e9:11"]) == 0

    @pytest.mark.parametrize("line, message", [
        ("q_on = 0", "q_on must be positive and finite"),
        ("q_on = 5", "q_on (5) must exceed q_off (10)"),
    ])
    def test_boost_the_other_commands_refuse_is_refused(self, tmp_path, capsys, line, message):
        # sweep's ring is the state's, so it refuses the boosts nonlin,
        # noise and snr refuse, by the same name
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("q_on = 54", line))
        out = tmp_path / "out"
        for command in ("sweep", "snr"):
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        envdir = tmp_path / "envout"
        monkeypatch.setenv("ASRRKIT_OUT", str(envdir))
        assert main(["sweep", "--config", cfg, "--quiet"]) == 0
        assert (envdir / "sweep.csv").exists()


class TestMatch:
    def test_locus_file(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["match", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        header, data = read_csv(tmp_path / "match_locus.csv")
        assert header == ["k", "q_on", "s11_db_at_f0"]
        # every locus point shows the matched return loss, -9.54 dB
        assert np.max(np.abs(data[:, 2] - 20 * math.log10(1 / 3))) < 0.01
        assert (tmp_path / "s11_contours.csv").exists()


    @pytest.mark.parametrize("command", COMMANDS)
    def test_line_too_short_for_its_section_is_refused_by_name(self, tmp_path, capsys, command):
        # (beta_l/w)^2 = ltl*ctl falls below the doubles at beta_l = 1e-150:
        # refused by name before numpy divides by its zero electrical length
        cfg = write_config(tmp_path, FULL_CONFIG.replace("beta_l = 0.35 rad", "beta_l = 1e-150"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: beta_l = 1e-150 rad at w = 1.25664e+12 rad/s is "
                              "past what the section holds") and err.count("\n") == 1
        assert not out.exists()


class TestNonlin:
    def test_table_and_marker(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["nonlin", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "nonlin.csv").read_text()
        assert text.startswith("# p_in_lin_w = ")
        header, data = read_csv(tmp_path / "nonlin.csv")
        p_lin = float(text.splitlines()[0].split("=")[1])
        # compressed swing stays at or below linear theory, and the
        # quality factor never increases with drive
        assert np.all(data[:, 2] <= data[:, 1] * (1 + 1e-9))
        q = data[:, 3]
        assert np.all(np.diff(q) <= 1e-9)
        below = data[:, 0] <= p_lin
        assert np.allclose(q[below], q[0], rtol=1e-6)

    def test_drive_past_the_negative_gm_swing_refused(self, tmp_path, capsys):
        # past about 146 x p_in_lin on this pixel the averaged gm turns
        # negative, and the root's Q (5.59 and 1.58 here) falls below q_off
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "p_in_max = 1 W\np_in_points = 5\n")
        out = tmp_path / "out"
        assert main(["nonlin", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "p_in = " in err and "falls below q_off = 10" in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("vth", ["340 mV", "400 mV", "450 mV"])
    def test_gm_rising_above_gm0_refused(self, tmp_path, capsys, vth):
        # the default slope makes the averaged gm rise above gm0 for vth > vdd/3
        cfg = write_config(tmp_path, REFERENCE_CONFIG + f"vth = {vth}\n")
        out = tmp_path / "out"
        assert main(["nonlin", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert "k_wl*(vdd - vth) <= 4*gm0" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestNoiseCmd:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["noise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "phase_noise.csv").read_text().splitlines()
        assert text[0] == "offset_hz,contributor,ssb_dbch"
        contributors = {ln.split(",")[1] for ln in text[1:]}
        assert contributors == {"white", "flicker", "input"}
        header, data = read_csv(tmp_path / "pm_to_am.csv")
        assert header == ["detune_hz", "conversion_db"]
        # conversion nulls towards the resonance
        mid = np.argmin(np.abs(data[:, 0]))
        assert data[mid, 1] < np.max(data[:, 1]) - 20

    def test_rows_name_four_contributors_and_stay_finite(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "supply_psd = 1e-12\n")
        assert main(["noise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "phase_noise.csv").read_text().splitlines()]
        assert rows[0] == ["offset_hz", "contributor", "ssb_dbch"]
        levels = {(off, who): float(v) for off, who, v in rows[1:]}
        assert len(levels) == len(rows) - 1 == 4 * 31
        assert {who for _, who in levels} == {"white", "flicker", "input", "supply"}
        assert all(math.isfinite(v) for v in levels.values())
        flicker = {off: v for (off, who), v in levels.items() if who == "flicker"}
        assert all(v >= levels[off, "white"] for off, v in flicker.items())
        assert any(v > levels[off, "white"] for off, v in flicker.items())

    @pytest.mark.parametrize("keys, message", [
        # past offset_max's bound, refused by name before anything overflows
        ("offset_max = 1e300\n", "config error: offset_max must be at most 1e+100, got 1e+300"),
        ("offset_min = 1e-300\noffset_max = 1e-290\ndelta_f_s = 1e100\n",
         "the flicker phase noise at offset 1e-300 Hz is inf dBc/Hz"),
    ])
    @pytest.mark.filterwarnings("error")  # the level overflows without a numpy warning
    def test_overflowing_level_refused(self, tmp_path, capsys, keys, message):
        out = tmp_path / "out"
        assert main(["noise", "--config", write_config(tmp_path, REFERENCE_CONFIG + keys),
                     "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists() or not list(out.iterdir())

    def test_flicker_notch_floors_at_white(self, tmp_path):
        # at zero detuning the flicker level is -inf; the table writes white
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "delta_f_s = 0\n")
        assert main(["noise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "phase_noise.csv").read_text().splitlines()]
        white = [(off, v) for off, who, v in rows[1:] if who == "white"]
        assert len(white) == 31
        assert [(off, v) for off, who, v in rows[1:] if who == "flicker"] == white

    def test_high_q_table_has_79_distinct_rows(self, tmp_path):
        # a boost of 3e6 narrows the band to 6.7 kHz at 200 GHz: the rows
        # j*w0/(20*Q_on), j = -39..39, stay distinct doubles
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("q_on = 54", "q_on = 3e7"))
        assert main(["noise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / "pm_to_am.csv")
        assert len(data) == 79 and len(set(data[:, 0])) == 79
        assert data[39, 0] == 0.0 and np.all(np.isfinite(data[:, 1]))

    def test_auto_grid_refuses_a_q_past_the_resolution_of_doubles(self, tmp_path, capsys):
        # the rows w0 + j*w0/(20*Q) fall on fewer doubles than rows
        text = REFERENCE_CONFIG.replace("q_off = 10", "q_off = 1e8").replace("q_on = 54",
                                                                            "q_on = 1e15")
        out = tmp_path / "out"
        assert main(["noise", "--config", write_config(tmp_path, text), "--out", str(out),
                     "--quiet"]) == 1
        assert ("Q = 1e+15 is too high for the PM-to-AM table: its rows w0 + j*w0/(20*Q) "
                "are not distinct doubles") in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestSnrCmd:
    def test_report(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "snr.txt").read_text()
        values = dict(
            ln.split(" = ") for ln in text.strip().splitlines() if not ln.startswith("#")
        )
        assert float(values["snr_delta_c"]) > 0
        assert float(values["q_on"]) == pytest.approx(54.0, rel=1e-6)

    def test_empty_flicker_band_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "f_lo = 1 kHz\nf_hi = 1 kHz\n")
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert ("flicker band needs finite f_hi > f_lo > 0, got f_lo = 1000 Hz, f_hi = 1000 Hz"
                in capsys.readouterr().err)
        assert not (tmp_path / "snr.txt").exists()


DESIGN_CONFIG = """
f0 = 200 GHz
n_pixels = 1
il_budget = 0.08474576
snr_dc_target = 500
snr_dr_target = 10
delta_r_ref = 1 ohm
z0 = 50 ohm
beta_l = 0.35 rad
kn = 250 uA/V^2
kp = 250 uA/V^2
vth = 300 mV
vdd = 1 V
kf_area = 3.9e-23
c_per_area = 0.015
l_srr_max = 54.12456 pH
q_off = 10
"""


class TestDesignCmd:
    def test_synthesis_outputs(self, tmp_path):
        cfg = write_config(tmp_path, DESIGN_CONFIG, name="design.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "design.txt").read_text()
        values = dict(
            ln.split(" = ") for ln in text.strip().splitlines() if not ln.startswith("#")
        )
        assert float(values["q_on"]) == pytest.approx(54.0, rel=1e-3)
        assert float(values["gm_required"]) * float(values["r_srr"]) == pytest.approx(
            1 - 10 / 54, rel=1e-4)
        assert "pixel design report" in (tmp_path / "design_report.txt").read_text()

    def test_report_written_by_atomic_rename(self, tmp_path, monkeypatch):
        # every output, the human-readable report included, goes through a
        # temp file renamed into place
        renamed = []
        real_replace = os.replace

        def recording_replace(src, dst):
            renamed.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        cfg = write_config(tmp_path, DESIGN_CONFIG, name="design.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert sorted(renamed) == ["design.txt", "design_report.txt"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_infeasible_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("il_budget = 0.08474576",
                                                           "il_budget = 0.5"),
                           name="bad.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "coupling limit" in capsys.readouterr().err

    def test_loop_gain_rounding_to_one_exits_2(self, tmp_path, capsys):
        # gm*R = 1 - 2e-20 rounds to 1: the boost 5e19 is past the limit,
        # which is an infeasible design, not a config error
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("il_budget = 0.08474576",
                                                           "il_budget = 1e-20"),
                           name="tight.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "boost limit" in capsys.readouterr().err

    def test_non_finite_design_is_refused_by_field(self, tmp_path, capsys):
        # at f0 = 1e-100 Hz the device widths overflow; no row of inf is written
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("f0 = 200 GHz", "f0 = 1e-100"),
                           name="slow.cfg")
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == ("config error: design w_n, w_p must be finite: "
                                           "the synthesis overflows on this config\n")
        assert not out.exists()

    def test_loose_budget_writes_its_unboosted_design(self, tmp_path, capsys):
        # the spec of test_design.py's loose-budget case: matched at q_off
        # with no block, so both SNRs and the linear input power are
        # infinite on purpose and the design is written, not refused
        loose = DESIGN_CONFIG
        for old, new in [("il_budget = 0.08474576", "il_budget = 0.6"),
                         ("snr_dc_target = 500", "snr_dc_target = 1e-6"),
                         ("snr_dr_target = 10", "snr_dr_target = 1e-9"),
                         ("beta_l = 0.35 rad", "beta_l = 2 rad"), ("q_off = 10", "q_off = 15"),
                         ("l_srr_max = 54.12456 pH", "l_srr_max = 1.353114 pH")]:
            loose = loose.replace(old, new)
        cfg = write_config(tmp_path, loose, name="loose.cfg")
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        values = dict(ln.split(" = ") for ln in (out / "design.txt").read_text().splitlines())
        assert values["q_on"] == "15" and values["gm_required"] == "0"
        assert [values[name] for name in ("snr_dc", "snr_dr", "p_in_lin")] == ["inf"] * 3
        assert "loss budget loose" in (out / "design_report.txt").read_text()

    def test_budget_allowing_unit_coupling_exits_2(self, tmp_path, capsys):
        # the budget allows k >= 1, so it cannot bind: infeasible by name,
        # not a config error
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("il_budget = 0.08474576",
                                                           "il_budget = 0.9"),
                           name="loose.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "coupling limit" in capsys.readouterr().err


class TestMatchedCommands:
    @pytest.mark.parametrize("command", ["noise"])
    def test_off_locus_k_refused(self, tmp_path, capsys, command):
        # matched k is 1/sqrt(0.35*54) = 0.230; these commands use the
        # matched split, so an explicit off-locus k is a config error
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "k = 0.05\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "matched locus" in err and "0.953" in err
        assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "snr.txt").exists()

    @pytest.mark.parametrize("command", ["nonlin", "snr"])
    def test_off_locus_k_runs_at_the_state_rho(self, tmp_path, command):
        # k = 0.1 and 0.4 put rho = 0.35*k^2*54 at 0.189 and 3.02; the
        # command writes the laws evaluated at that rho
        for k in ("0.1", "0.4"):
            text = REFERENCE_CONFIG + f"k = {k}\n"
            state = Pixel(config.parse_config_text(text)).state
            rho = resonator.coupling_ratio(state.effective_srr(), state.line)
            assert state.rho == rho and abs(rho - 1.0) > 0.8
            r_on = active.boosted_resistance(state)
            p_lin = state.gm.vth**2 / (2.0 * resonator.absorbed_power_fraction(rho) * r_on)
            out = tmp_path / k
            assert main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                         "--quiet"]) == 0
            if command == "nonlin":
                lines = (out / "nonlin.csv").read_text().splitlines()
                assert float(lines[0].split(" = ")[1]) == pytest.approx(p_lin, rel=1e-11)
                p_in, v_lin = map(float, lines[3].split(",")[:2])
                assert v_lin == pytest.approx(math.sqrt(2.0 * r_on * p_in * 4.0 * rho
                                                        / (rho + 2.0) ** 2), rel=1e-11)
                continue
            values = dict(ln.split(" = ") for ln in (out / "snr.txt").read_text().splitlines())
            alpha = resonator.loss_slope_factor(rho) / 4.0 * state.gm.k_wl
            v_rms = noise.flicker_rms(state.gm.kf, BAND)
            snr_c = resonator.phase_slope_factor(rho) / (4.0 * alpha * v_rms * r_on)
            snr_r = (resonator.loss_slope_factor(rho) / 4.0
                     / (alpha * v_rms * state.srr.r_parallel() ** 2))
            assert float(values["snr_delta_c"]) == pytest.approx(snr_c, rel=1e-11)
            assert float(values["snr_delta_r"]) == pytest.approx(snr_r, rel=1e-11)
            assert float(values["p_in_lin_w"]) == pytest.approx(p_lin, rel=1e-11)

    def test_explicit_matched_k_accepted(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + f"k = {1 / math.sqrt(0.35 * 54)!r}\n")
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0

    def test_non_finite_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("200 GHz", "1e999 GHz"))
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1

    @pytest.mark.parametrize("command, line", [
        ("snr", "delta_r_ref = 0"), ("snr", "delta_r_ref = -1 ohm"),
        ("noise", "pm_am_offset = 0"), ("noise", "pm_am_offset = -1 MHz"),
        ("noise", "supply_psd = 0"), ("noise", "supply_psd = -1e-18"),
        ("nonlin", "p_in_points = 0"), ("nonlin", "p_in_points = 2.5"),
        ("nonlin", "p_in_points = -3"), ("design", "n_pixels = 2.5"),
        ("nonlin", "p_in_min = 0"), ("nonlin", "p_in_max = -1 mW"),
        ("noise", "offset_min = 0"), ("noise", "offset_max = -1 MHz"),
    ])
    def test_out_of_range_command_key_is_refused_by_name(self, tmp_path, capsys, command, line):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert f"config error: {line.split(' = ')[0]} must be" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_supply_psd_at_zero_detuning_is_refused_by_name(self, tmp_path, capsys):
        # the supply row scales with delta_f_s**2: at 0 it would be -inf dB
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "supply_psd = 1e-18\ndelta_f_s = 0\n")
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert "config error: supply_psd needs a nonzero delta_f_s" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestOneBoost:
    GM0_CONFIG = REFERENCE_CONFIG.replace("q_on = 54", "gm0 = 1.2 mS")

    def test_gm0_sweep_is_the_sweep_of_its_q_on(self, tmp_path):
        # sweep and snr both boost the ring to the Q_on that gm0 gives
        path = write_config(tmp_path, self.GM0_CONFIG)
        cfg = parse_config_file(path)
        w0 = 2 * math.pi * cfg["f0"]
        line = TransmissionLineSection.from_electrical(cfg["z0"], cfg["beta_l"], w0, length=30e-6)
        q_on = active.q_on(AsrrState.from_targets(cfg["f0"], cfg["lsrr"], cfg["q_off"],
                                                  gm0=cfg["gm0"], line=line))
        assert main(["snr", "--config", path, "--out", str(tmp_path), "--quiet"]) == 0
        assert f"q_on = {fmt(q_on)}" in (tmp_path / "snr.txt").read_text().splitlines()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with_gm0 = output_digests(tmp_path / "a", "sweep", self.GM0_CONFIG, "--format", "both")
        with_q_on = output_digests(tmp_path / "b", "sweep", REFERENCE_CONFIG.replace(
            "q_on = 54", f"q_on = {q_on!r}"), "--format", "both")
        assert with_gm0 == with_q_on

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_both_boost_keys_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.GM0_CONFIG + "q_on = 54\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "'q_on'" in err and "'gm0'" in err
        assert not out.exists()


def sweep_past_the_model(cfg):
    """s_parameters of cfg's pixel on sweep's grid --grid=1e9:1e300:3."""
    pixel = Pixel(cfg)
    return resonator.s_parameters(pixel.ring, pixel.line, 2.0 * np.pi * np.linspace(1e9, 1e300, 3))


class TestOneGate:
    """A refusal the library makes reaches the CLI as it is: a command
    prints the library's own line, and a library call refuses what the
    command refuses."""

    UNKNOWN_KEY = REFERENCE_CONFIG + "q_onn = 100\n"
    BOTH_BOOSTS = TestOneBoost.GM0_CONFIG + "q_on = 54\n"

    @pytest.mark.parametrize("command, text, options, call", [
        ("match", UNKNOWN_KEY, (), Pixel),  # match reads only f0, z0 and beta_l
        ("validate", UNKNOWN_KEY, (), validate.run_all),
        ("snr", BOTH_BOOSTS, (), Pixel),
        ("validate", BOTH_BOOSTS, (), validate.run_all),
        ("sweep", REFERENCE_CONFIG, ("--grid=1e9:1e300:3",), sweep_past_the_model),
        ("design", DESIGN_CONFIG.replace("f0 = 200 GHz", "f0 = 1e-100"), (),
         lambda cfg: design.synthesize(Pixel(cfg).spec)),
    ], ids=["unknown-key-pixel", "unknown-key-run_all", "both-boosts-pixel",
            "both-boosts-run_all", "grid-s_parameters", "design-synthesize"])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_command_prints_the_library_refusal(self, tmp_path, capsys, command, text, options,
                                                 call):
        cfg = write_config(tmp_path, text)
        with pytest.raises(ValueError) as refused:
            call(parse_config_file(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", *options]) == 1
        assert capsys.readouterr().err == f"config error: {refused.value}\n"
        assert not out.exists()


class TestValidateCmd:
    def test_default_fixture_passes(self, tmp_path, capsys):
        assert main(["validate", "--quiet"]) == 0

    def test_corrupted_fixture_fails_with_name(self, tmp_path, capsys):
        # inflate the coupling 10% off the matched locus
        k_bad = (1 / math.sqrt(0.35 * 54)) * 1.1
        cfg = write_config(tmp_path, f"k = {k_bad}\n", name="corrupt.cfg")
        assert main(["validate", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "matched-anchor" in err

    @pytest.mark.parametrize("line, message", [
        ("q_on = -5", "q_on must be positive"),
        ("f0 = 0", "f0 must be positive"),
        ("q_on = abc", "config key 'q_on' must be numeric"),
        ("k = 1.5", "coupling coefficient k must satisfy 0 <= k < 1"),
        ("q_on = 8", "q_on (8) must exceed q_off (10)"),
        ("beta_l = 0.001", "matching Q=54 needs k=4.303 >= 1"),
        ("vth = 400 mV", "compression needs k_wl*(vdd - vth) <= 4*gm0"),
        ("q_on = 20000", "validate checks Q_on up to 10000"),
        # a boost of 1.05 compresses Q below q_off inside nonlinear-gm's drives
        ("q_on = 10.5", "nonlinear-gm drives the pixel to 30 x p_in_lin: p_in = "),
        # the ring's w0 = 1.4e155 rad/s: w0**2 and dw0/dC overflow, and the
        # difference of sensitivity-anchors would warn
        ("c_asrr = 1e-300", "C = 1e-300 F and w0 = 1/sqrt(L*C) = 1.36e+155 rad/s, "
                            "where dw0/dC overflows"),
    ])
    def test_bad_fixture_value_is_config_error(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, line + "\n", name="bad.cfg")
        assert main(["validate", "--config", cfg, "--quiet"]) == 1
        assert message in capsys.readouterr().err

    def test_configured_matched_k_passes(self, tmp_path, capsys):
        # phase-slope-law moves Q and re-matches k there, so a configured k
        # on the locus fails no law; matched-anchor still reads it
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "k = 0.23002185311411807\n")
        assert main(["validate", "--config", cfg]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    def test_configured_pixel_is_not_held_to_the_reference_anchors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "f0 = 150 GHz\n", name="pixel.cfg")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out and " anchor " not in out

    def test_crashed_check_keeps_its_name(self, monkeypatch):
        names = [r.name for r in validate.run_all()]

        def crashing(check):
            def crash(rng, fx):
                raise RuntimeError("crash")
            crash.__name__ = check.__name__
            return crash

        monkeypatch.setattr(validate, "ALL_CHECKS", [crashing(c) for c in validate.ALL_CHECKS])
        results = validate.run_all()
        assert [r.name for r in results] == names
        assert not any(r.passed for r in results)

    def test_q_on_refusal_shows_the_rebuilt_value(self, tmp_path, capsys):
        # q_on = 1e4 over q_off = 2 is rebuilt through gm0 a few ulps above
        # Q_ON_MAX: the gate refuses it, and the message shows the value
        # it refused rather than one that reads as inside the limit
        cfg = write_config(tmp_path, "q_off = 2\nq_on = 1e4\n", name="edge.cfg")
        q = active.q_on(validate.Fixture(parse_config_file(cfg)).state)
        assert q > validate.Q_ON_MAX
        assert main(["validate", "--config", cfg, "--quiet"]) == 1
        assert f"this pixel has q_on = {q!r}" in capsys.readouterr().err

    def test_channel_length_modulation_enters_both_snrs(self, tmp_path, capsys):
        # lambda scales the devices' gm slope by 1 + lambda*(vdd - vth), 1.35
        # at lambda = 0.5: both SNRs fall by it, as the flicker phase noise
        # rises by it, so snr-invariance holds
        band = BAND
        plain, lam = validate.Fixture().state, validate.Fixture({"lambda": 0.5}).state
        assert noise.snr_delta_c(lam, band) == pytest.approx(
            noise.snr_delta_c(plain, band) / 1.35, rel=1e-12)
        assert noise.snr_delta_r(lam, band, 1.0) == pytest.approx(
            noise.snr_delta_r(plain, band, 1.0) / 1.35, rel=1e-12)
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "lambda = 0.5\n")
        assert main(["validate", "--config", cfg]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("beta_l", ["0.05 rad", "0.02 rad"])
    def test_short_line_passes(self, tmp_path, capsys, beta_l):
        # with q_off = 10, ladders based on q_off would need k >= 1 at their
        # lowest rungs (Q = 20, and at beta_l = 0.02 also noise-laws' Q = 50);
        # based on 1/beta_l the matched k there is at most 1/sqrt(2)
        cfg = write_config(tmp_path, REFERENCE_CONFIG + f"beta_l = {beta_l}\n")
        assert main(["validate", "--config", cfg]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    def test_bench_pixels_of_seed_1_pass(self, tmp_path, bench_inputs, capsys):
        # the Q ladders of phase-slope-law, detection-band and noise-laws
        # are multiples of the pixel's q_off (or 1/beta_l if larger), so a
        # pixel with q_off above 20 is checked too
        texts = [text for _, text in bench_inputs.cli_mix_pixels(1)]
        texts.append(bench_inputs.export_input(1).pixel.text)
        assert max(config.parse_config_text(text)["q_off"] for text in texts) > 20
        for i, text in enumerate(texts):
            cfg = write_config(tmp_path, text, name=f"pixel{i}.cfg")
            assert main(["validate", "--config", cfg]) == 0
            assert "12/12 checks passed" in capsys.readouterr().out


# sha256 of the CLI outputs for REFERENCE_CONFIG (DESIGN_CONFIG for
# design), as listed with the "reference" and "design" rows in CHANGES.md
GOLDEN_DIGESTS = {
    "sweep": {
        "sweep.csv": "ff271b5ee28e600d839f01fbf95c70792ad753cf9e30f68df1e6810623375e92",
        "sweep.s2p": "a408a7c07f9f434b3ce0be644d0df67de465861d634f5ca89dbf38e2bb174932",
    },
    "match": {
        "match_locus.csv": "3470237056a870f78d1b265bd0e2010b9244c6a7ba0f6232439561740b4218d1",
        "s11_contours.csv": "53d71579e8f043b8e1e7350703450d681e6be3f9201377d02fe859fa2ccef8f5",
    },
    "nonlin": {
        "nonlin.csv": "f96bede2af42ebf1be53eaf0c0d1a5f810f6102c38cc7aef96326929c9dda7bc",
    },
    "noise": {
        "phase_noise.csv": "843bedddbcb4fc87afae185e687658d0adfdb29cdb1338d25e131d4b13f24916",
        "pm_to_am.csv": "578ff2cb6ce5c176ff3e0fb1d0fec0155880046a082dc22cf84e327428881944",
    },
    "snr": {
        "snr.txt": "24c6d231dd2ec968f724a9464b011a9ce877e8c0785c2c49814f9ca44c89d79f",
    },
    "design": {
        "design.txt": "1ceef7efa6732e13690f6ed955ab708aa25fbafa2489979ccf911398fff09270",
        "design_report.txt": "c36f382d68365e023ba55c0fb4e4f0a8ad868d5bb3935f45f88229a6a050ae0a",
    },
}


def output_digests(tmp_path, command, config, *extra):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet", *extra]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


@pytest.mark.parametrize("command", GOLDEN_DIGESTS)
def test_golden_digests(tmp_path, command):
    config = DESIGN_CONFIG if command == "design" else REFERENCE_CONFIG
    extra = ["--format", "both"] if command == "sweep" else []
    assert output_digests(tmp_path, command, config, *extra) == GOLDEN_DIGESTS[command]


# sha256 of the bench's seed-1 export, `sweep --format both` of
# bench/inputs.export_input(1).  BENCH_export.json's records predate the
# sweep ring becoming the state's own ring, which moved these bytes (see
# CHANGES.md)
BENCH_EXPORT_DIGESTS = {
    "sweep.csv": "4dc5d911119d79c3da7b027f690844477f03ace71f6a429a9750019071a71317",
    "sweep.s2p": "4ed991556a0b3b2ac14fd0e864438a17b970d979782e4d2661b366506e2bbb01",
}


def test_golden_digests_of_the_bench_export(tmp_path, bench_inputs):
    export = bench_inputs.export_input(1)
    digests = output_digests(tmp_path, "sweep", export.pixel.text, "--format", "both",
                             "--grid", export.grid)
    assert digests == BENCH_EXPORT_DIGESTS


@pytest.mark.parametrize("fmt, name", [("csv", "sweep.csv"), ("s2p", "sweep.s2p")])
def test_golden_digest_of_each_sweep_format(tmp_path, fmt, name):
    # each --format writes exactly its one file, the same bytes as in "both"
    digests = output_digests(tmp_path, "sweep", REFERENCE_CONFIG, "--format", fmt)
    assert digests == {name: GOLDEN_DIGESTS["sweep"][name]}


# the pixel and synthesis keys together, as a full run config carries them
FULL_CONFIG = REFERENCE_CONFIG + "".join(
    line + "\n" for line in DESIGN_CONFIG.splitlines()
    if line.split("=")[0].strip() not in ("f0", "z0", "beta_l", "q_off"))


def full_config_with(values):
    """FULL_CONFIG with each key of values set to its text, the boost given
    one way."""
    lines = {line.split("=")[0].strip(): line for line in FULL_CONFIG.splitlines() if line}
    if "gm0" in values:
        del lines["q_on"]
    lines.update((key, f"{key} = {value}") for key, value in values.items())
    return "\n".join(lines.values()) + "\n"

# for each accepted key: a command that reads it, and a valid value that
# differs from FULL_CONFIG's or the command's default.  A matched pixel's
# response depends on z0 only through the Touchstone reference impedance,
# and sweep's on beta_l not at all, since k follows both onto the locus.
KEY_EFFECTS = {
    "f0": ("sweep", "201 GHz"), "lsrr": ("sweep", "60 pH"), "c_asrr": ("sweep", "12 fF"),
    "k": ("sweep", "0.2"), "z0": ("sweep", "60 ohm"), "beta_l": ("match", "0.4 rad"),
    "q_off": ("snr", "12"), "q_on": ("snr", "60"), "gm0": ("snr", "1 mS"),
    "vdd": ("snr", "1.2 V"), "vth": ("snr", "250 mV"),
    "k_wl": ("snr", "2 mA/V^2"), "kf": ("snr", "2e-10"),
    "f_lo": ("snr", "0.1 Hz"), "f_hi": ("snr", "10 kHz"), "delta_r_ref": ("snr", "2 ohm"),
    "gamma": ("noise", "2"), "lambda": ("noise", "0.5"), "p_in": ("noise", "20 uW"),
    "temperature": ("noise", "300 K"), "delta_f_s": ("noise", "40 MHz"),
    "offset_min": ("noise", "1 kHz"), "offset_max": ("noise", "10 MHz"),
    "supply_psd": ("noise", "1e-18"), "pm_am_offset": ("noise", "2 MHz"),
    "p_in_min": ("nonlin", "1 nW"), "p_in_max": ("nonlin", "1 mW"),
    "p_in_points": ("nonlin", "11"),
    "n_pixels": ("design", "2"), "il_budget": ("design", "0.09"),
    "snr_dc_target": ("design", "2000"), "snr_dr_target": ("design", "40"),
    "kn": ("design", "300 uA/V^2"), "kp": ("design", "300 uA/V^2"),
    "kf_area": ("design", "5e-23"), "c_per_area": ("design", "0.02"),
    "l_srr_max": ("design", "50 pH"),
}


class TestConfigKeys:
    @pytest.mark.parametrize("command, text", [
        ("snr", REFERENCE_CONFIG + "q_onn = 100\n"),
        ("validate", "q_onn = 100\n"),
    ], ids=["snr", "validate"])
    def test_unknown_key_is_refused_by_name(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        assert "unknown config key 'q_onn'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.txt"))

    OSCILLATING_CONFIG = (REFERENCE_CONFIG.replace("lsrr = 54.12456 pH", "lsrr = 100 pH")
                          .replace("q_on = 54", "gm0 = 1.2 mS") + "k_wl = 2 mA/V^2\n")

    def test_validate_and_snr_refuse_one_oscillating_pixel(self, tmp_path, capsys):
        # gm0*R = 1.5: validate checks the pixel snr builds, so both refuse it
        cfg = write_config(tmp_path, self.OSCILLATING_CONFIG)
        for command in ("validate", "snr"):
            assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert "oscillation: loop gain >= 1" in err and "ignores" not in err
        assert not (tmp_path / "snr.txt").exists()

    @pytest.mark.parametrize("q_on, code", [("10.5", 1), ("11", 1), ("11.5", 0), ("54", 0)])
    def test_nonlin_and_validate_refuse_the_same_boosts(self, tmp_path, q_on, code):
        # validate drives nonlinear-gm up to nonlin's default top drive, so a
        # boost that drive compresses below q_off is refused by both or neither
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("q_on = 54", f"q_on = {q_on}"))
        assert [main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"])
                for command in ("nonlin", "validate")] == [code, code]

    def test_validate_checks_the_state_snr_reports(self, tmp_path, monkeypatch):
        text = (REFERENCE_CONFIG.replace("lsrr = 54.12456 pH", "lsrr = 60 pH")
                .replace("q_on = 54", "gm0 = 1 mS") + "c_asrr = 12 fF\nk_wl = 2 mA/V^2\n")
        cfg = write_config(tmp_path, text)
        states = {}
        real_snr, real_check = noise.snr_delta_c, validate.run_check

        def snr_delta_c(state, *args):
            states.setdefault("snr", state)  # the command's call, not a check's
            return real_snr(state, *args)

        def run_check(fn, fx, seed):
            states["validate"] = fx.state
            return real_check(fn, fx, seed)

        monkeypatch.setattr(noise, "snr_delta_c", snr_delta_c)
        monkeypatch.setattr(validate, "run_check", run_check)
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        assert main(["validate", "--config", cfg, "--quiet"]) == 0
        by_snr, by_validate = states["snr"], states["validate"]
        assert active.q_on(by_validate) == active.q_on(by_snr) != 54.0
        assert by_validate.srr.k == by_snr.srr.k and by_validate.gm.gm0 == by_snr.gm.gm0 == 1e-3
        assert f"q_on = {fmt(active.q_on(by_validate))}" in (tmp_path / "snr.txt").read_text()

    @pytest.mark.parametrize("command", ["nonlin", "noise", "snr"])
    def test_sweep_and_the_matched_commands_build_one_ring(self, tmp_path, capsys, command):
        # c_asrr = 12 fF with 54.12456 pH resonates at 197.484 GHz, off f0;
        # sweep's ring and the matched command's state come from one
        # config.Pixel, boosted to q_on and matched at that ring's resonance
        text = REFERENCE_CONFIG + "c_asrr = 12 fF\n"
        pixel = Pixel(parse_config_file(write_config(tmp_path, text)))
        ring, state = pixel.ring, pixel.state
        assert ring.csrr == state.srr.csrr == pixel.cfg["c_asrr"]
        assert ring.w0 == state.srr.w0 == pytest.approx(2 * math.pi * 197.484e9, rel=1e-6)
        assert ring == state.effective_srr()
        assert active.q_on(state) == pytest.approx(54.0, rel=1e-14)
        assert ring.k == pytest.approx(0.231482, abs=5e-7)
        assert output_digests(tmp_path, command, text) != GOLDEN_DIGESTS[command]
        assert capsys.readouterr().err == ""
        # a ring far above f0 reaches its q_on too, so the block does not oscillate
        far = write_config(tmp_path, REFERENCE_CONFIG + "c_asrr = 5 fF\n", name="far.cfg")
        assert main(["snr", "--config", far, "--out", str(tmp_path / "far"), "--quiet"]) == 0

    def test_sweep_ring_is_the_matched_state_ring(self, bench_inputs):
        # Pixel.ring of a boosted config is state.effective_srr(), and its
        # line's z0 the configured one, bit for bit, over the reference config and the bench's cli-mix and export
        # pixels of seeds 1-60 and 7129031.  Before the two were one, the
        # ring took Q as the configured q_on and 136 of these 245 rings
        # differed from the state's by up to 7 ulps in Q and 6 in k
        texts = [REFERENCE_CONFIG]
        for seed in [*range(1, 61), 7129031]:
            texts += [text for _, text in bench_inputs.cli_mix_pixels(seed)]
            texts.append(bench_inputs.export_input(seed).pixel.text)
        assert len(texts) == 245
        for text in texts:
            cfg = config.parse_config_text(text)
            pixel = Pixel(cfg)
            assert pixel.ring == pixel.state.effective_srr()
            # the line keeps the configured z0 the ports are referenced to;
            # sqrt(ltl/ctl) differed from it by an ulp on 27 of these
            assert pixel.line.z0 == cfg["z0"]

    @pytest.mark.parametrize("command", ["sweep", "match", "nonlin", "noise", "snr", "design"])
    def test_one_config_serves_every_command(self, tmp_path, command):
        cfg = write_config(tmp_path, FULL_CONFIG)
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0

    @pytest.mark.parametrize("key", sorted(config.KEYS))
    def test_every_key_changes_an_output(self, tmp_path, key):
        # no accepted key is a no-op: one valid value of it changes the bytes
        # a command that reads it writes, against the full run config
        command, value = KEY_EFFECTS[key]
        digests = []
        for name, text in (("before", FULL_CONFIG), ("after", full_config_with({key: value}))):
            (tmp_path / name).mkdir()
            digests.append(output_digests(tmp_path / name, command, text,
                                          *(["--format", "both"] if command == "sweep" else [])))
        assert digests[0] != digests[1]

    def test_every_key_has_an_effect_listed(self):
        assert set(KEY_EFFECTS) == set(config.KEYS)

    @pytest.mark.parametrize("line", ["c_gm = 3.5 fF", "ltl = 14 pH", "ctl = 5.6 fF",
                                      "length = 30 um", "csrr = 12 fF", "kn_wl = 2 mA/V^2",
                                      "kp_wl = 2 mA/V^2", "cap_weight = 0.5"])
    def test_removed_keys_are_refused_by_name(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + line + "\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        key = line.split(" = ")[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("sweep.*"))


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """For each config key, the commands that read it on FULL_CONFIG."""
    read_by = {key: [] for key in config.KEYS}
    tmp = tmp_path_factory.mktemp("readers")
    cfg = write_config(tmp, FULL_CONFIG)
    for command in COMMANDS:
        def recording(values, key, read=config.read, command=command):
            if command not in read_by[key]:
                read_by[key].append(command)
            return read(values, key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config, "read", recording)
            patch.setattr(cli, "read", recording)
            assert main([command, "--config", cfg, "--out", str(tmp / command), "--quiet"]) == 0
    return read_by


def lower_end(key):
    """The least value read accepts for key: its lo, a count's 1, or 1e-300
    for "positive"."""
    default, lo = config.KEYS[key][:2]
    return 1 if isinstance(default, int) else 1e-300 if lo is None else lo


def sampled_key_pairs(count, seed):
    """count seeded draws of two distinct keys, each at its lower or upper
    end; p_in_points only at its lower one (its upper is 1e6 rows)."""
    rng = random.Random(seed)
    ends = {key: [lower_end(key)] + ([] if key == "p_in_points" else [config.KEYS[key].hi])
            for key in sorted(config.KEYS)}
    return [{key: rng.choice(ends[key]) for key in rng.sample(sorted(ends), 2)}
            for _ in range(count)]


def written_numbers(out):
    """Every number in the files of directory out."""
    numbers = []
    for path in out.iterdir() if out.exists() else ():
        for token in re.split(r"[\s,=:]+", path.read_text()):
            try:
                numbers.append(float(token))
            except ValueError:
                pass
    return numbers


class TestKeyBounds:
    """Each key's bounds from config.KEYS, under each command that reads it."""

    def test_every_key_is_read(self, readers):
        assert [key for key, commands in readers.items() if not commands] == []

    @staticmethod
    def runs_clean(out, capsys, readers, values, bare_failure=False):
        """Each command that reads a key of values runs with FULL_CONFIG's
        keys set to them, refuses the pixel or finds it infeasible, with no
        numpy warning, no non-finite number in a file and at most one stderr
        line, which names the failure unless bare_failure allows a bare
        `numerical failure:`."""
        out.mkdir()
        cfg = write_config(out, full_config_with({key: repr(v) for key, v in values.items()}))
        for command in [c for c in COMMANDS if any(c in readers[key] for key in values)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", cfg, "--out", str(out / command), "--quiet",
                             *(["--format", "both"] if command == "sweep" else [])])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and caught == [], (command, values, err)
            numbers = written_numbers(out / command)
            assert all(map(math.isfinite, numbers)) and (numbers or code), (command, values)
            assert "Warning" not in err and err.count("\n") <= 1, (command, values, err)
            assert bare_failure or "numerical failure:" not in err, (command, values, err)

    # p_in_points's bound is 1e6 rows of nonlin: about 40 s, 460 MB of peak
    # memory and a 56 MB table, too much for this suite, so only its
    # refusals past the bounds run here
    @pytest.mark.parametrize("key", sorted(set(config.KEYS) - {"p_in_points"}))
    def test_key_at_its_upper_bound_runs_clean(self, tmp_path, capsys, readers, key):
        self.runs_clean(tmp_path / "out", capsys, readers, {key: config.KEYS[key].hi})

    @pytest.mark.parametrize("key", sorted(config.KEYS))
    def test_key_at_its_lower_bound_runs_clean(self, tmp_path, capsys, readers, key):
        self.runs_clean(tmp_path / "out", capsys, readers, {key: lower_end(key)})

    # Pairs of keys at their ends, or near one.  Some pairs still stop with a
    # bare division by zero inside a constructor (f0 and z0 both at 1e-300,
    # say), so a pair may end in `numerical failure:`
    @pytest.mark.parametrize("pairs", [
        [{"k_wl": 1e-300, "kf": 1e-26}],  # wrote snr_delta_c = inf
        [{"delta_r_ref": 1e100, "k_wl": 1e-300}],  # wrote snr_delta_r = inf
        [{"delta_r_ref": 1e100, "gm0": 1e-300}],  # wrote snr_delta_r = inf
        [{"lsrr": 1e-300, "lambda": 1e100}],  # wrote snr_delta_r = nan
        [{"lsrr": 1e-300, "kf": 1e100}],  # wrote snr_delta_r = nan
        [{"lsrr": 1e-300, "vth": 1e100}],  # a numpy warning in nonlin's drive span
        sampled_key_pairs(200, seed=7129031),
    ], ids=["k_wl-kf", "delta_r_ref-k_wl", "delta_r_ref-gm0", "lsrr-lambda", "lsrr-kf",
            "lsrr-vth", "sampled"])
    def test_key_pairs_at_their_ends_run_clean(self, tmp_path, capsys, readers, pairs):
        for i, values in enumerate(pairs):
            self.runs_clean(tmp_path / str(i), capsys, readers, values, bare_failure=True)

    @pytest.mark.parametrize("command", ["nonlin", "snr", "validate"])
    def test_decoupled_ring_is_refused_by_name(self, tmp_path, capsys, command):
        # k = 0 is the key's own lower bound, where sweep writes a flat response
        cfg = write_config(tmp_path, full_config_with({"k": "0"}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: k = 0 decouples the ring") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    @pytest.mark.parametrize("key", sorted(config.KEYS))
    def test_key_past_its_bound_is_refused_by_name(self, tmp_path, capsys, readers, key, bound):
        limit = getattr(config.KEYS[key], bound)
        if limit is None:  # no lower bound but "positive": zero is the first value refused
            past = 0.0
        else:
            past = math.nextafter(limit, math.inf if bound == "hi" else -math.inf)
        cfg = write_config(tmp_path, full_config_with({key: repr(past)}))
        for command in readers[key]:
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1
            assert err.endswith(f", got {past!r}\n") and not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("noise", "pm_am_offset = 2.8e307"),  # wrote rows of about +5939 dB
        ("noise", "offset_max = 1e300"),  # a numpy overflow warning, then a refusal
        ("noise", "delta_f_s = 1e200"),  # an OverflowError, exit 2
        ("match", "beta_l = 1e200"),  # 782 NaN cells
        ("noise", "lsrr = 1e150"),  # every PM-to-AM row the -300 placeholder
    ])
    def test_overflowing_configs_are_refused_by_name(self, tmp_path, capsys, command, line):
        key = line.split(" = ")[0]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, REFERENCE_CONFIG + line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} must be at most 1e+100")
        assert not out.exists()


class TestOutputDirectory:
    @pytest.mark.parametrize("via", ["--out", "ASRRKIT_OUT"])
    def test_unusable_directory_is_config_error(self, tmp_path, monkeypatch, capsys, via):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        argv = ["snr", "--config", write_config(tmp_path), "--quiet"]
        if via == "--out":
            argv += ["--out", str(out)]
        else:
            monkeypatch.setenv("ASRRKIT_OUT", str(out))
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"config error: cannot use output directory "
                                           f"{out}: Not a directory\n")

    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys):
        # a directory where the output file goes: the rename onto it fails
        out = tmp_path / "out"
        (out / "snr.txt").mkdir(parents=True)
        assert main(["snr", "--config", write_config(tmp_path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot write {out / 'snr.txt'}: "
                                           f"Is a directory\n")
        assert [p.name for p in out.iterdir()] == ["snr.txt"]

    @pytest.mark.parametrize("old_csv", [None, b"old sweep\n"], ids=["no-csv", "old-csv"])
    def test_two_file_sweep_commits_neither_when_one_cannot_be_written(self, tmp_path, capsys,
                                                                       old_csv):
        # a directory where sweep.s2p goes: sweep.csv stays as it was
        out = tmp_path / "out"
        (out / "sweep.s2p").mkdir(parents=True)
        if old_csv is not None:
            (out / "sweep.csv").write_bytes(old_csv)
        assert main(["sweep", "--config", write_config(tmp_path), "--out", str(out),
                     "--quiet", "--format", "both"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot write {out / 'sweep.csv'}, "
                                           f"{out / 'sweep.s2p'}: Is a directory\n")
        assert sorted(p.name for p in out.iterdir()) == (
            ["sweep.s2p"] if old_csv is None else ["sweep.csv", "sweep.s2p"])
        if old_csv is not None:
            assert (out / "sweep.csv").read_bytes() == old_csv

    @pytest.mark.parametrize("command, first, second", [
        ("noise", "phase_noise.csv", "pm_to_am.csv"),
        ("match", "match_locus.csv", "s11_contours.csv"),
        ("design", "design.txt", "design_report.txt"),
    ], ids=["noise", "match", "design"])
    def test_two_file_command_commits_neither_when_one_cannot_be_written(
            self, tmp_path, capsys, command, first, second):
        # a directory where the second file goes: the first is not written
        out = tmp_path / "out"
        (out / second).mkdir(parents=True)
        config = write_config(tmp_path, DESIGN_CONFIG if command == "design" else REFERENCE_CONFIG)
        assert main([command, "--config", config, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot write {out / first}, "
                                           f"{out / second}: Is a directory\n")
        assert [p.name for p in out.iterdir()] == [second]


class TestOutputMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_take_the_umask_mode(self, tmp_path, umask, mode):
        cfg = write_config(tmp_path, DESIGN_CONFIG)
        sweep_cfg = write_config(tmp_path, name="sweep.cfg")
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["design", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            assert main(["sweep", "--config", sweep_cfg, "--out", str(out), "--quiet",
                         "--format", "both"]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == {"design.txt": mode, "design_report.txt": mode,
                         "sweep.csv": mode, "sweep.s2p": mode}


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--format", "xyz"],
        ["sweep", "--no-such-option"],
        ["no-such-command"],
        [],
    ])
    def test_usage_error_is_config_error(self, argv, capsys):
        # exit 2 is reserved for numerical and validation failures
        assert exit_code(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        assert exit_code(argv) == 0

    @pytest.mark.parametrize("command", ["match", "nonlin", "noise", "snr", "design", "validate"])
    @pytest.mark.parametrize("option", [["--format", "s2p"], ["--grid", "1:2:3"]])
    def test_sweep_options_refused_elsewhere(self, tmp_path, capsys, command, option):
        cfg = write_config(tmp_path)
        assert exit_code([command, "--config", cfg, "--out", str(tmp_path), *option]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_match_needs_config(self, tmp_path, capsys):
        assert main(["match", "--out", str(tmp_path), "--quiet"]) == 1
        assert "'match' needs --config" in capsys.readouterr().err

    def test_calls_share_one_parser_and_keep_their_own_arguments(self, tmp_path, capsys,
                                                                   monkeypatch):
        parsers = []
        parse_args = cli._Parser.parse_args

        def recording(parser, *a, **kw):
            parsers.append(parser)
            return parse_args(parser, *a, **kw)

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        cfg = write_config(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", "--config", cfg, "--out", str(first), "--format", "both"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["sweep", "--config", cfg, "--out", str(second), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert sorted(p.name for p in first.iterdir()) == ["sweep.csv", "sweep.s2p"]
        assert [p.name for p in second.iterdir()] == ["sweep.csv"]
