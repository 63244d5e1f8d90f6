"""Mutation ratchet: does `validate` notice when a closed form is wrong?

Each mutant scales one law's result by a constant factor, in every asrrkit
module that holds the law under its own name (`active` and `noise` import
the laws they use by name), and runs `validate.run_all()`.  A mutant is
killed when a check fails.  SURVIVORS lists the mutants that pass every
check today: a mutant may leave the list when a second route kills it,
and none may join it, so the set can only shrink.

THRESHOLDS holds, for each killed law, the smallest power of ten t at which
law x (1 + t) and law x (1 - t) both fail `run_all()`; both mutants at 10 t
must die, so a tolerance loosened past what the suite sees fails by name.
"""

import functools
import sys

import pytest

from asrrkit import validate  # loads every module that defines or binds a law

# (module, law, factor)
MUTANTS = [
    ("resonator", "phase_slope_factor", 1.003),
    ("resonator", "reflected_amplitude", 1.0005),
    ("resonator", "detection_band", 1 + 1e-12),
    ("resonator", "loss_slope_factor", 1.005),
    ("resonator", "absorbed_power_fraction", 1.01),
    ("resonator", "transmitted_power_fraction", 1.2),
    ("active", "asrr_voltage_swing", 1.001),
    ("active", "linear_power_limit", 1.01),
    ("active", "gm_avg_exact", 1.001),
    ("active", "resonance_shift", 1.003),
    ("noise", "white_output_noise_density", 2.23),
    ("noise", "detected_power", 0.9),
    ("noise", "supply_sres_sensitivity", 1.5),
    ("noise", "flicker_rms", 1.1),
    ("design", "power_from_gm_slope", 2.0),
]

# the laws that have no second route in validate yet
SURVIVORS = {
    "transmitted_power_fraction",
    "asrr_voltage_swing",
    "linear_power_limit",
    "white_output_noise_density",
    "detected_power",
    "supply_sres_sensitivity",
    "power_from_gm_slope",
}

# measured on the reference pixel (ROADMAP item 16); the catch of each comes
# from the check named
THRESHOLDS = {
    "absorbed_power_fraction": 1e-14,  # mesh-properties
    "detection_band": 1e-13,  # detection-band
    "phase_slope_factor": 1e-12,  # phase-slope-law, snr-invariance
    "gm_avg_exact": 1e-12,  # nonlinear-gm
    "flicker_rms": 1e-12,  # noise-laws
    "reflected_amplitude": 1e-11,  # design-roundtrip
    "loss_slope_factor": 1e-5,  # sensitivity-anchors
    "resonance_shift": 1e-3,  # sensitivity-anchors
}
KILLED = [(module, law) for module, law, _ in MUTANTS if law not in SURVIVORS]


def scaled(law, factor):
    """law with its result, or each element of a tuple result, times factor."""
    @functools.wraps(law)
    def mutant(*args, **kwargs):
        out = law(*args, **kwargs)
        return tuple(v * factor for v in out) if isinstance(out, tuple) else out * factor
    return mutant


def failed_checks(monkeypatch, module, law, factor):
    """The checks of run_all() that fail with law scaled by factor wherever
    an asrrkit module binds it."""
    original = getattr(sys.modules[f"asrrkit.{module}"], law)
    mutant = scaled(original, factor)
    for name, mod in list(sys.modules.items()):
        if name == "asrrkit" or name.startswith("asrrkit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, mutant)
    return [r.name for r in validate.run_all() if not r.passed]


@pytest.mark.parametrize("module, law, factor", MUTANTS, ids=[m[1] for m in MUTANTS])
def test_mutant_is_killed_or_a_known_survivor(monkeypatch, module, law, factor):
    failed = failed_checks(monkeypatch, module, law, factor)
    assert failed or law in SURVIVORS, f"{law} x{factor} passes every check"


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
@pytest.mark.parametrize("module, law", KILLED, ids=[law for _, law in KILLED])
def test_killed_law_dies_at_ten_times_its_threshold(monkeypatch, module, law, sign):
    factor = 1.0 + sign * 10.0 * THRESHOLDS[law]
    assert failed_checks(monkeypatch, module, law, factor), f"{law} x{factor!r} passes every check"
