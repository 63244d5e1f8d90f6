"""The four line-coupling laws of resonator.py, functions of the coupling
ratio rho = R'/z0: their matched values, the general forms written on
them, and the rule that keeps the matched-locus constants of active.py and
noise.py coming from them."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import asrrkit
from asrrkit import resonator as rz
from asrrkit.oracle import central_difference
from asrrkit.resonator import (MATCHED_RHO, absorbed_power_fraction, loss_slope_factor,
                               phase_slope_factor, transmitted_power_fraction)

A = absorbed_power_fraction(MATCHED_RHO)
T = transmitted_power_fraction(MATCHED_RHO)
P = phase_slope_factor(MATCHED_RHO)
LS = loss_slope_factor(MATCHED_RHO)
LAWS = ("absorbed_power_fraction", "transmitted_power_fraction", "phase_slope_factor",
        "loss_slope_factor")


def test_laws_at_the_matched_ratio_are_the_literals():
    assert (A, T, P, LS) == (4.0 / 9.0, 4.0 / 9.0, 2.0 / 3.0, 10.0 / 9.0)


@pytest.mark.parametrize("derived, literal", [
    (LS / 8.0, 5.0 / 36.0),  # flicker and alpha prefactor
    (LS / 2.0, 5.0 / 9.0),  # supply prefactor, sample phase-slope term
    (LS / 4.0, 5.0 / 18.0),  # loss-shift SNR
    (A / 4.0, 1.0 / 9.0),  # white output noise
    (1.0 / (2.0 * A), 9.0 / 8.0),  # linear power limit
    (P / 2.0, 1.0 / 3.0),  # sample phase through the resonance shift
    (2.0 / P, 3.0),  # the same, as the divisor of Q_on
    (4.0 / P, 6.0),  # capacitive-shift SNR
])
def test_derived_constants_equal_their_literals_exactly(derived, literal):
    assert derived == literal


def random_pixels(n=200, seed=20261018):
    """Seeded pixels, every other one on the matched locus and the rest at
    a random coupling off it."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        w0 = 2.0 * math.pi * rng.uniform(50e9, 300e9)
        z0 = rng.uniform(40.0, 75.0)
        beta_l = rng.uniform(0.05, 0.5)
        q = rng.uniform(5.0, 300.0)
        lsrr = rng.uniform(20e-12, 200e-12)
        line = rz.TransmissionLineSection.from_electrical(z0, beta_l, w0, length=30e-6)
        k_matched = 1.0 / math.sqrt(beta_l * q)
        k = k_matched if i % 2 == 0 and k_matched < 1.0 else rng.uniform(0.02, 0.6)
        yield rz.SrrParams(lsrr=lsrr, csrr=1.0 / (w0**2 * lsrr), q_off=q, k=k), line, z0


def test_general_forms_match_the_circuit_expressions():
    # the expressions in R', z0 and the equivalent resonator the laws replace
    worst = 0.0
    for srr, line, z0 in random_pixels():
        res = rz.equivalent_resonator(srr, line)
        r, w0 = res.r_eq, res.w0
        slope = 2.0 * r**2 / ((r + 2.0 * z0) * w0**2 * res.l_eq)
        m2_over_l2 = (rz.mutual_inductance(srr, line) / srr.lsrr) ** 2
        dsdr = res.q * (2.0 / w0) * (r + 4.0 * z0) / (r + 2.0 * z0) ** 2 * m2_over_l2
        absorbed = 4.0 * r * z0 / (r + 2.0 * z0) ** 2
        worst = max(worst,
                    abs(rz.output_phase_slope(res, z0) / slope - 1.0),
                    abs(rz.effective_q_out(res, z0) / (slope * w0 / 2.0) - 1.0),
                    abs(rz.phase_slope_vs_resistance(srr, line, z0) / dsdr - 1.0),
                    abs(absorbed_power_fraction(r / z0) / absorbed - 1.0))
    assert worst <= 1.3e-15


def test_laws_match_the_two_port_off_the_locus():
    # power split and phase slope read off the S-parameters at resonance
    for srr, line, z0 in random_pixels(n=40, seed=7):
        res = rz.equivalent_resonator(srr, line)
        rho = res.r_eq / z0
        sweep = rz.s_parameters(srr, line, np.array([srr.w0, 1.001 * srr.w0]), z0_ref=z0)
        s11, s21 = abs(sweep.s11[0]), abs(sweep.s21[0])
        assert s21**2 == pytest.approx(transmitted_power_fraction(rho), rel=1e-9)
        assert 1.0 - s11**2 - s21**2 == pytest.approx(absorbed_power_fraction(rho), rel=1e-9)

        def phase(w):
            return -np.angle(rz.reflected_impedance(srr, line, w) + 2.0 * z0)

        fd = central_difference(phase, srr.w0)
        assert fd == pytest.approx(phase_slope_factor(rho) * srr.q_off / srr.w0, rel=1e-5)


def test_each_law_is_defined_once():
    package = Path(asrrkit.__file__).parent
    homes = {law: [] for law in (*LAWS, "MATCHED_RHO")}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in homes:
                homes[node.name].append(path.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in homes:
                        homes[target.id].append(path.name)
    assert homes == {name: ["resonator.py"] for name in homes}


def literal_ratios(source: str) -> list[str]:
    """Each division of one numeric literal by another in the source."""

    def numeric(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and numeric(node.left) and numeric(node.right)]


def test_scan_sees_a_literal_ratio():
    assert sorted(literal_ratios("d = (10.0 / 9.0) * c * r\ne = -5 / 36 + x / 2.0")) \
        == ["-5 / 36", "10.0 / 9.0"]


@pytest.mark.parametrize("name", ["active", "noise"])
def test_no_literal_ratio_in_the_matched_closed_forms(name):
    # matched-locus constants come from the laws at MATCHED_RHO
    path = Path(asrrkit.__file__).parent / f"{name}.py"
    assert literal_ratios(path.read_text()) == []
