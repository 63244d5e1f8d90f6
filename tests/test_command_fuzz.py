"""Seeded fuzzing of the commands: configs drawn the way the benchmark draws
its pixels (bench/inputs.py), each command run in process through cli.main,
and the rows it wrote checked against the physics the README states."""

import numpy as np

from asrrkit import active
from asrrkit.cli import main
from asrrkit.config import Pixel, parse_config_text

NONLIN_DRAWS = 100
P_IN_MAX_LIN = 300.0  # the largest p_in_max drawn, in units of p_in_lin
# a row is printed with 12 significant digits, so the linear rows' Q may
# print up to half a unit of the 12th digit above q_on
FMT12_REL = 5e-12


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def test_nonlin_rows_stay_between_q_off_and_q_on(tmp_path, bench_inputs):
    # the compression floor sits near 27*(q_on/q_off) x p_in_lin: 45-270 x
    # over the bench's boosts, so the draws land on both sides of it
    rng = np.random.default_rng(20261020)
    codes = []
    for i in range(NONLIN_DRAWS):
        text = bench_inputs.draw_pixel(rng).text
        state = Pixel(parse_config_text(text)).state
        p_in_max = active.linear_power_limit(state) * P_IN_MAX_LIN ** rng.uniform()
        cfg = tmp_path / f"pixel{i}.cfg"
        cfg.write_text(text + f"p_in_max = {p_in_max!r}\n")
        out = tmp_path / f"out{i}"
        code = main(["nonlin", "--config", str(cfg), "--out", str(out), "--quiet"])
        codes.append(code)
        assert code in (0, 1), cfg.read_text()
        if code == 1:
            assert not (out / "nonlin.csv").exists(), cfg.read_text()
            continue
        data = csv_rows(out / "nonlin.csv")
        swing, q = data[:, 2], data[:, 3]
        assert np.all(state.srr.q_off <= q), cfg.read_text()
        assert np.all(q <= active.q_on(state) * (1.0 + FMT12_REL)), cfg.read_text()
        assert np.all(np.diff(swing) >= 0.0), cfg.read_text()
    assert 0 < codes.count(1) < NONLIN_DRAWS
