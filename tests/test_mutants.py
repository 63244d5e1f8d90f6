"""Mutation ratchet: does `validate` notice when a closed form is wrong?

Each mutant scales one law's result by a constant factor, in every asrrkit
module that holds the law under its own name (`active` and `noise` import
the laws they use by name), and runs `validate.run_all()`.  A mutant is
killed when a check fails.  SURVIVORS lists the mutants that pass every
check today: a mutant may leave the list when a second route kills it,
and none may join it, so the set can only shrink.
"""

import functools
import sys

import pytest

from asrrkit import validate  # loads every module that defines or binds a law

# (module, law, factor)
MUTANTS = [
    ("resonator", "phase_slope_factor", 1.003),
    ("resonator", "reflected_amplitude", 1.0005),
    ("resonator", "detection_band", 1 + 2e-5),
    ("resonator", "loss_slope_factor", 1.005),
    ("resonator", "absorbed_power_fraction", 1.01),
    ("resonator", "transmitted_power_fraction", 1.2),
    ("active", "asrr_voltage_swing", 1.001),
    ("active", "linear_power_limit", 1.01),
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


def scaled(law, factor):
    """law with its result, or each element of a tuple result, times factor."""
    @functools.wraps(law)
    def mutant(*args, **kwargs):
        out = law(*args, **kwargs)
        return tuple(v * factor for v in out) if isinstance(out, tuple) else out * factor
    return mutant


@pytest.mark.parametrize("module, law, factor", MUTANTS, ids=[m[1] for m in MUTANTS])
def test_mutant_is_killed_or_a_known_survivor(monkeypatch, module, law, factor):
    original = getattr(sys.modules[f"asrrkit.{module}"], law)
    mutant = scaled(original, factor)
    for name, mod in list(sys.modules.items()):
        if name == "asrrkit" or name.startswith("asrrkit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, mutant)
    failed = [r.name for r in validate.run_all() if not r.passed]
    assert failed or law in SURVIVORS, f"{law} x{factor} passes every check"
