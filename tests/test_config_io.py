import math

import numpy as np
import pytest

from asrrkit.config import ConfigError, parse_config_text, parse_quantity, require
from asrrkit.resonator import s_parameters
from asrrkit.sweepio import write_sweep_csv, write_touchstone


class TestQuantities:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("200 GHz", 200e9),
            ("200GHz", 200e9),
            ("54.1 pH", 54.1e-12),
            ("11.7 fF", 11.7e-15),
            ("50 ohm", 50.0),
            ("2 kohm", 2e3),
            ("0.35 rad", 0.35),
            ("30 um", 30e-6),
            ("1.2 mS", 1.2e-3),
            ("300 mV", 0.3),
            ("10 uW", 10e-6),
            ("250 uA/V^2", 250e-6),
            ("1e-10", 1e-10),
            ("-3.5", -3.5),
        ],
    )
    def test_parse(self, text, value):
        assert parse_quantity(text) == pytest.approx(value, rel=1e-12)

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 lightyears")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_quantity("fast")

    @pytest.mark.parametrize("text", ["1e999 GHz", "1e999", "1e300 TF", "-1e400 ohm"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(text)


class TestConfigText:
    def test_basic_file(self):
        cfg = parse_config_text(
            """
            # reference pixel
            f0 = 200 GHz
            lsrr = 54.124 pH   # ring inductance
            q_off = 10
            label = nightly
            """
        )
        assert cfg["f0"] == pytest.approx(200e9)
        assert cfg["lsrr"] == pytest.approx(54.124e-12)
        assert cfg["q_off"] == 10
        assert cfg["label"] == "nightly"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("f0 200 GHz")

    def test_require(self):
        cfg = parse_config_text("a = 1\nb = text")
        assert require(cfg, "a") == 1.0
        with pytest.raises(ConfigError, match="missing"):
            require(cfg, "zz")
        with pytest.raises(ConfigError, match="numeric"):
            require(cfg, "b")


@pytest.fixture
def small_sweep(fx):
    srr = fx.boosted_srr()
    line = fx.line()
    grid = np.linspace(fx.w0 * 0.99, fx.w0 * 1.01, 21)
    return s_parameters(srr, line, grid, z0_ref=fx.z0)


class TestSweepFiles:
    def test_csv_schema_and_roundtrip(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, small_sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
        assert len(lines) == 22
        row = [float(v) for v in lines[11].split(",")]
        i = 10
        assert row[0] == pytest.approx(small_sweep.freqs_hz[i], rel=1e-11)
        assert row[1] + 1j * row[2] == pytest.approx(small_sweep.s11[i], rel=1e-11)
        assert row[5] == pytest.approx(20 * math.log10(abs(small_sweep.s21[i])), rel=1e-10)

    def test_csv_deterministic(self, small_sweep, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(p1, small_sweep)
        write_sweep_csv(p2, small_sweep)
        assert p1.read_bytes() == p2.read_bytes()

    def test_touchstone_header_and_symmetry(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.s2p"
        write_touchstone(path, small_sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# Hz S RI R 50"
        fields = [float(v) for v in lines[1].split()]
        assert len(fields) == 9
        # reciprocal symmetric network: S21 duplicated into S12, S11 into S22
        assert fields[3] == fields[5] and fields[4] == fields[6]
        assert fields[1] == fields[7] and fields[2] == fields[8]

    def test_touchstone_parses_with_frequencies_in_hz(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.s2p"
        write_touchstone(path, small_sweep)
        first = [float(v) for v in path.read_text().strip().splitlines()[1].split()]
        assert first[0] == pytest.approx(small_sweep.freqs_hz[0], rel=1e-11)
