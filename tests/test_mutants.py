"""Mutation ratchet: does `validate` notice when a closed form is wrong?

LAWS is the one table of what the suite sees of each law.  A mutant scales
one law's result by a constant factor, in every asrrkit module that holds
the law under its own name (`active` and `noise` import the laws they use
by name), and runs `validate.run_all()`.  A mutant is killed when a check
fails.

A killed law's row holds its threshold, the smallest power of ten t at
which law x (1 + t) and law x (1 - t) both fail `run_all()` on the
reference pixel, and the checks that both mutants at 10 t fail, exactly.
So a tolerance loosened past what the suite sees fails by name, and so does
a check that stops or starts seeing the law.  A survivor's row has no
threshold and no check: its mutant at factor passes every check.  A row
may trade survivor for threshold when a second route kills it, and none may
go the other way, so the survivors can only shrink.  README.md renders the
table, and tests/test_docs.py holds it to this one.
"""

import functools
import sys

import pytest

from asrrkit import validate  # loads every module that defines or binds a law

# law: (module, factor, threshold, the checks that fail at 1 +- 10 threshold)
LAWS = {
    "absorbed_power_fraction": ("resonator", 1.01, 1e-14, {"mesh-properties"}),
    "coupling_ratio": ("resonator", 1.001, 1e-13, {"mesh-properties"}),
    "detection_band": ("resonator", 1 + 1e-12, 1e-13, {"detection-band"}),
    "phase_slope_factor": ("resonator", 1.003, 1e-12, {"phase-slope-law", "snr-invariance"}),
    "output_phase_slope": ("resonator", 1.001, 1e-12, {"phase-slope-law", "snr-invariance"}),
    "reflected_amplitude": ("resonator", 1.0005, 1e-11, {"design-roundtrip"}),
    "phase_slope_vs_resistance": ("resonator", 1.001, 1e-11, {"snr-invariance"}),
    "loss_slope_factor": ("resonator", 1.005, 1e-5, {"sensitivity-anchors"}),
    "gm_avg_exact": ("active", 1.001, 1e-12, {"nonlinear-gm"}),
    "resonance_shift": ("active", 1.003, 1e-3, {"sensitivity-anchors"}),
    "flicker_rms": ("noise", 1.1, 1e-12, {"noise-laws"}),
    "snr_delta_c": ("noise", 1.001, 1e-12, {"snr-invariance"}),
    "flicker_sres_sensitivity": ("noise", 1.001, 1e-11, {"snr-invariance"}),
    "snr_delta_r": ("noise", 1.001, 1e-11, {"snr-invariance"}),
    "pm_to_am_gain": ("noise", 1.001, 1e-8, {"pm-to-am"}),
    # the survivors: no second route in validate sees them yet
    "transmitted_power_fraction": ("resonator", 1.2, None, set()),
    "asrr_voltage_swing": ("active", 1.001, None, set()),
    "linear_power_limit": ("active", 1.01, None, set()),
    "white_output_noise_density": ("noise", 2.23, None, set()),
    "detected_power": ("noise", 0.9, None, set()),
    "supply_sres_sensitivity": ("noise", 1.5, None, set()),
    "power_from_gm_slope": ("design", 2.0, None, set()),
}
KILLED = [law for law, (_, _, threshold, _) in LAWS.items() if threshold is not None]


def scaled(law, factor):
    """law with its result, or each element of a tuple result, times factor."""
    @functools.wraps(law)
    def mutant(*args, **kwargs):
        out = law(*args, **kwargs)
        return tuple(v * factor for v in out) if isinstance(out, tuple) else out * factor
    return mutant


def failed_checks(monkeypatch, law, factor):
    """The checks of run_all() that fail with law scaled by factor wherever
    an asrrkit module binds it."""
    original = getattr(sys.modules[f"asrrkit.{LAWS[law][0]}"], law)
    mutant = scaled(original, factor)
    for name, mod in list(sys.modules.items()):
        if name == "asrrkit" or name.startswith("asrrkit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, mutant)
    return {r.name for r in validate.run_all() if not r.passed}


@pytest.mark.parametrize("law", LAWS)
def test_mutant_is_killed_or_a_known_survivor(monkeypatch, law):
    factor = LAWS[law][1]
    failed = failed_checks(monkeypatch, law, factor)
    if law in KILLED:
        assert failed, f"{law} x{factor} passes every check"
    else:
        assert not failed, f"survivor {law} x{factor} fails {sorted(failed)}: give it a threshold"


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
@pytest.mark.parametrize("law", KILLED)
def test_killed_law_dies_at_ten_times_its_threshold(monkeypatch, law, sign):
    _, _, threshold, checks = LAWS[law]
    factor = 1.0 + sign * 10.0 * threshold
    assert failed_checks(monkeypatch, law, factor) == checks, f"{law} x{factor!r}"
