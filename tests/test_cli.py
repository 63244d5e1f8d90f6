import math
import os

import numpy as np
import pytest

from asrrkit.cli import main

REFERENCE_CONFIG = """
# reconstructed 200 GHz pixel, matched coupling
f0 = 200 GHz
lsrr = 54.12456 pH
q_off = 10
q_on = 54
z0 = 50 ohm
beta_l = 0.35 rad
"""


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

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["sweep", "--quiet"]) == 1
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 1

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

    def test_infeasible_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("il_budget = 0.08474576",
                                                           "il_budget = 0.5"),
                           name="bad.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "coupling limit" in capsys.readouterr().err

    def test_budget_allowing_unit_coupling_exits_2(self, tmp_path, capsys):
        # the budget allows k >= 1, so it cannot bind: infeasible by name,
        # not a config error
        cfg = write_config(tmp_path, DESIGN_CONFIG.replace("il_budget = 0.08474576",
                                                           "il_budget = 0.9"),
                           name="loose.cfg")
        assert main(["design", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "coupling limit" in capsys.readouterr().err


class TestMatchedCommands:
    @pytest.mark.parametrize("command", ["nonlin", "noise", "snr"])
    def test_off_locus_k_refused(self, tmp_path, capsys, command):
        # matched k is 1/sqrt(0.35*54) = 0.230; these commands use the
        # matched split, so an explicit off-locus k is a config error
        cfg = write_config(tmp_path, REFERENCE_CONFIG + "k = 0.05\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "matched locus" in err and "0.953" in err
        assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "snr.txt").exists()

    def test_explicit_matched_k_accepted(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG + f"k = {1 / math.sqrt(0.35 * 54)!r}\n")
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0

    def test_non_finite_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, REFERENCE_CONFIG.replace("200 GHz", "1e999 GHz"))
        assert main(["snr", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1


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
