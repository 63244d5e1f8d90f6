"""Seeded fuzzing of the commands: configs drawn the way the benchmark draws
its pixels (bench/inputs.py), each command run in process through cli.main,
and the rows it wrote checked against the physics the README states."""

import math

import numpy as np

from asrrkit import active
from asrrkit.cli import main
from asrrkit.config import Pixel, parse_config_text

NONLIN_DRAWS = 100
P_IN_MAX_LIN = 300.0  # the largest p_in_max drawn, in units of p_in_lin
# a row is printed with 12 significant digits, so the linear rows' Q may
# print up to half a unit of the 12th digit above q_on
FMT12_REL = 5e-12
MATCHED_S11_DB = 20.0 * math.log10(1.0 / 3.0)  # every match_locus.csv row
LOCUS_TOL_DB = 1e-9


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def drawn_pixels(bench_inputs, tmp_path):
    """NONLIN_DRAWS seeded pixel configs, each with a p_in_max drawn
    log-uniform up to P_IN_MAX_LIN x p_in_lin: (config path, state) pairs.
    The compression floor sits near 27*(q_on/q_off) x p_in_lin, 45-270 x
    over the bench's boosts, so nonlin's draws land on both sides of it."""
    rng = np.random.default_rng(20261020)
    for i in range(NONLIN_DRAWS):
        text = bench_inputs.draw_pixel(rng).text
        state = Pixel(parse_config_text(text)).state
        p_in_max = active.linear_power_limit(state) * P_IN_MAX_LIN ** rng.uniform()
        cfg = tmp_path / f"pixel{i}.cfg"
        cfg.write_text(text + f"p_in_max = {p_in_max!r}\n")
        yield cfg, state


def run(command, cfg, out, codes=(0, 1, 2)):
    """command on cfg into out, in process; its exit code, which must be
    one of codes and, when non-zero, leave no file in out.  A traceback
    fails the test where it is raised."""
    code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code in codes, cfg.read_text()
    if code != 0:
        assert not out.exists() or not any(out.iterdir()), cfg.read_text()
    return code


def test_nonlin_rows_stay_between_q_off_and_q_on(tmp_path, bench_inputs):
    codes = []
    for i, (cfg, state) in enumerate(drawn_pixels(bench_inputs, tmp_path)):
        out = tmp_path / f"out{i}"
        codes.append(run("nonlin", cfg, out, codes=(0, 1)))
        if codes[-1] != 0:
            continue
        data = csv_rows(out / "nonlin.csv")
        swing, q = data[:, 2], data[:, 3]
        assert np.all(state.srr.q_off <= q), cfg.read_text()
        assert np.all(q <= active.q_on(state) * (1.0 + FMT12_REL)), cfg.read_text()
        assert np.all(np.diff(swing) >= 0.0), cfg.read_text()
    assert 0 < codes.count(1) < NONLIN_DRAWS


def test_snr_writes_two_positive_finite_snrs(tmp_path, bench_inputs):
    for i, (cfg, _) in enumerate(drawn_pixels(bench_inputs, tmp_path)):
        out = tmp_path / f"out{i}"
        if run("snr", cfg, out) != 0:
            continue
        values = dict(line.split(" = ") for line in (out / "snr.txt").read_text().splitlines())
        for key in ("snr_delta_c", "snr_delta_r"):
            snr = float(values[key])
            assert 0.0 < snr < math.inf, cfg.read_text()


def test_match_rows_reflect_at_most_the_incident_wave(tmp_path, bench_inputs):
    for i, (cfg, _) in enumerate(drawn_pixels(bench_inputs, tmp_path)):
        out = tmp_path / f"out{i}"
        if run("match", cfg, out) != 0:
            continue
        locus = csv_rows(out / "match_locus.csv")[:, 2]
        contours = csv_rows(out / "s11_contours.csv")[:, 2]
        assert np.all(locus <= 0.0) and np.all(contours <= 0.0), cfg.read_text()
        assert np.all(np.abs(locus - MATCHED_S11_DB) <= LOCUS_TOL_DB), cfg.read_text()
