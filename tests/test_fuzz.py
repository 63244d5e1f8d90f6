"""Seeded fuzzing of the input boundary: the config parser and the
constructors.  Every draw comes from numpy.random.default_rng with a fixed
seed, so a failure names a reproducible case."""

import math

import numpy as np
import pytest

from asrrkit.active import MAX_BOOST, AsrrState, GmBlockParams, q_on
from asrrkit.config import ConfigError, parse_config_text, parse_quantity
from asrrkit.design import DesignSpec, InfeasibleDesignError, synthesize
from asrrkit.noise import NoiseContext
from asrrkit.resonator import SrrParams, TransmissionLineSection

DRAWS = 1000
PREFIXES = {"": 1.0, "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
            "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}
UNITS = ["Hz", "H", "F", "Ohm", "ohm", "Ω", "V", "W", "S", "A", "m", "rad", "s", "K",
         "A/V^2", "V^2"]
NON_NUMBERS = ["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e999", "-1e999", "1e", ".",
               "e5", "--1", "0x10", "1_000", "", "   ", "GHz", "1.2.3"]
JUNK_CHARS = list("0123456789.eE+-=# \tkMGpfnuµΩHzFVWSA/^xyz_") + ["\r", "\x00", " "]


def number_text(rng) -> tuple[str, float]:
    """A well-formed number in one of the spellings the parser accepts."""
    kind = rng.integers(4)
    if kind == 0:
        value = float(rng.integers(-10**6, 10**6))
        return str(int(value)), value
    x = rng.normal() * 10.0 ** rng.uniform(-30, 30)
    if kind == 1:
        text = repr(x)
    elif kind == 2:
        text = f"{x:.{rng.integers(1, 17)}e}".replace("e", "eE"[rng.integers(2)])
    else:
        text = f"{abs(x):.6f}".lstrip("0") or "0"
    return text, float(text)


def junk(rng) -> str:
    return "".join(rng.choice(JUNK_CHARS, size=rng.integers(0, 16)))


def random_value_text(rng) -> tuple[str, float | None]:
    """(text, expected SI value) or (text, None) where the text is not a
    finite quantity or may not be one."""
    kind = rng.integers(5)
    if kind == 0:
        return junk(rng), None
    if kind == 1:
        suffix = junk(rng) if rng.integers(2) else ""
        return str(rng.choice(NON_NUMBERS)) + suffix, None
    text, value = number_text(rng)
    if kind == 2:
        return text, value
    prefix = str(rng.choice(list(PREFIXES)))
    unit = str(rng.choice(UNITS))
    space = " " * int(rng.integers(0, 3))
    if kind == 3:
        return f"{text}{space}{prefix}{unit}", value * PREFIXES[prefix]
    # huge magnitudes that overflow once the prefix applies
    return f"{rng.uniform(1, 9):.3f}e{rng.integers(300, 330)}{space}{prefix}{unit}", None


def test_parse_quantity_is_finite_or_config_error():
    rng = np.random.default_rng(20260501)
    parsed = refused = 0
    for _ in range(DRAWS):
        text, expect = random_value_text(rng)
        try:
            value = parse_quantity(text)
        except ConfigError:
            assert expect is None, text
            refused += 1
            continue
        assert isinstance(value, float) and math.isfinite(value), text
        if expect is not None:
            assert value == pytest.approx(expect, rel=1e-15, abs=0.0), text
        parsed += 1
    assert parsed > DRAWS // 4 and refused > DRAWS // 10  # both branches exercised


def test_parse_config_text_values_are_finite_or_strings():
    rng = np.random.default_rng(20260502)
    for _ in range(DRAWS):
        lines = []
        for _ in range(rng.integers(0, 6)):
            kind = rng.integers(6)
            key = "".join(rng.choice(list("abcxyz_0"), size=rng.integers(0, 5)))
            if kind == 0:
                lines.append(junk(rng))
            elif kind == 1:
                lines.append("# " + junk(rng))
            else:
                value, _ = random_value_text(rng)
                lines.append(f"{key} = {value}" + (" # note" if kind == 2 else ""))
        try:
            cfg = parse_config_text("\n".join(lines))
        except ConfigError:
            continue
        for key, value in cfg.items():
            assert key == key.strip().lower() and key
            assert isinstance(value, str) or (isinstance(value, float) and math.isfinite(value))


def bad_value(rng, allow_zero=False):
    """A non-finite or non-positive draw (zero only when it is invalid)."""
    choices = [math.nan, math.inf, -math.inf, -float(10.0 ** rng.uniform(-20, 20))]
    if not allow_zero:
        choices += [0.0, -0.0]
    return choices[rng.integers(len(choices))]


def refuses(rng, build, valid, positive, other_bad=None):
    """build(**valid) succeeds; with one positive field (or one of
    other_bad's fields) replaced by a bad draw it raises ValueError."""
    build(**valid)
    fields = list(positive) + list(other_bad or {})
    name = fields[rng.integers(len(fields))]
    value = bad_value(rng) if name in positive else other_bad[name](rng)
    try:
        build(**{**valid, name: value})
    except ValueError:
        return
    pytest.fail(f"{name} = {value!r} accepted")


def draw_line(rng):
    w0 = 2.0 * math.pi * rng.uniform(50e9, 300e9)
    return TransmissionLineSection.from_electrical(rng.uniform(40.0, 75.0),
                                                   rng.uniform(0.08, 0.5), w0, length=30e-6)


# a line for draws that fix k, so that the state's line does not matter
REFERENCE_LINE = TransmissionLineSection.from_electrical(50.0, 0.35, 2.0 * math.pi * 200e9)


def draw_state(rng):
    q_off = rng.uniform(5.0, 30.0)
    return AsrrState.from_targets(rng.uniform(50e9, 300e9), rng.uniform(20e-12, 200e-12), q_off,
                                  line=draw_line(rng), q_on=q_off * rng.uniform(1.1, 10.0),
                                  k=rng.uniform(0.02, 0.25))


def bad_coupling(rng):
    return [math.nan, math.inf, -math.inf, 1.0, 1.0 + rng.uniform(0, 10),
            -rng.uniform(1e-9, 1.0)][rng.integers(6)]


def bad_nonnegative(rng):
    return bad_value(rng, allow_zero=True)


def test_srr_params_refuse_bad_draws():
    rng = np.random.default_rng(20260503)
    for _ in range(DRAWS):
        valid = dict(lsrr=rng.uniform(1e-12, 1e-9), csrr=rng.uniform(1e-15, 1e-13),
                     q_off=rng.uniform(1.0, 500.0), k=rng.uniform(0.0, 0.99))
        refuses(rng, SrrParams, valid, ("lsrr", "csrr", "q_off"), {"k": bad_coupling})


def test_line_section_refuses_bad_draws():
    rng = np.random.default_rng(20260504)
    for _ in range(DRAWS):
        ltl, ctl = rng.uniform(1e-13, 1e-10), rng.uniform(1e-17, 1e-14)
        valid = dict(z0=math.sqrt(ltl / ctl), ltl=ltl, ctl=ctl, length=rng.uniform(1e-6, 1e-3))
        refuses(rng, TransmissionLineSection, valid, ("z0", "ltl", "ctl", "length"))


def test_gm_block_refuses_bad_draws():
    rng = np.random.default_rng(20260505)
    positive = ("gm0", "k_wl", "vdd", "vth", "kf", "gamma")
    for _ in range(DRAWS):
        valid = dict(gm0=rng.uniform(1e-4, 1e-1), k_wl=rng.uniform(1e-4, 1e-1),
                     vdd=rng.uniform(0.5, 3.0),
                     vth=rng.uniform(0.1, 0.6), kf=10.0 ** rng.uniform(-14, -8), gamma=rng.uniform(0.5, 3.0),
                     lam=rng.uniform(0.0, 0.5))
        refuses(rng, GmBlockParams, valid, positive, {"lam": bad_nonnegative})


def test_from_targets_refuses_bad_draws():
    rng = np.random.default_rng(20260506)
    for _ in range(DRAWS):
        f0 = rng.uniform(50e9, 300e9)
        lsrr = rng.uniform(20e-12, 200e-12)
        q_off = rng.uniform(5.0, 30.0)
        c_asrr = 1.0 / ((2.0 * math.pi * f0) ** 2 * lsrr)
        valid = dict(f0=f0, lsrr=lsrr, q_off=q_off, k=rng.uniform(0.02, 0.25),
                     c_asrr=c_asrr, vdd=rng.uniform(0.8, 2.0), vth=rng.uniform(0.1, 0.35),
                     kf=10.0 ** rng.uniform(-14, -8), gamma=rng.uniform(0.5, 3.0))
        if rng.integers(2):
            valid["q_on"] = q_off * rng.uniform(1.1, 10.0)
        else:
            valid["gm0"] = rng.uniform(0.1, 0.9) / (2.0 * math.pi * f0 * lsrr * q_off)
        positive = ["f0", "lsrr", "q_off", "c_asrr", "vdd", "vth", "kf", "gamma",
                    "q_on" if "q_on" in valid else "gm0"]

        def build(f0, lsrr, q_off, **kw):
            return AsrrState.from_targets(f0, lsrr, q_off, line=REFERENCE_LINE, **kw)

        refuses(rng, build, valid, positive, {"k": bad_coupling})


def test_design_spec_refuses_bad_draws():
    rng = np.random.default_rng(20260507)
    positive = ("f0", "snr_dc_target", "snr_dr_target", "delta_r_ref", "z0", "kn", "kp", "vth",
                "vdd", "kf_area", "c_per_area", "l_srr_max", "q_off")
    for _ in range(DRAWS):
        valid = dict(f0=rng.uniform(50e9, 300e9), n_pixels=int(rng.integers(1, 64)),
                     il_budget=rng.uniform(0.01, 0.99), snr_dc_target=rng.uniform(1, 1e4),
                     snr_dr_target=rng.uniform(1, 1e3), delta_r_ref=rng.uniform(0.1, 10),
                     z0=rng.uniform(40, 75), line=draw_line(rng), kn=rng.uniform(1e-5, 1e-3),
                     kp=rng.uniform(1e-5, 1e-3), vth=rng.uniform(0.1, 0.6),
                     vdd=rng.uniform(0.8, 2.0), kf_area=10.0 ** rng.uniform(-25, -21),
                     c_per_area=rng.uniform(1e-3, 0.05), l_srr_max=rng.uniform(20e-12, 200e-12),
                     q_off=rng.uniform(5, 30))
        refuses(rng, DesignSpec, valid, positive, {
            "il_budget": lambda r: [math.nan, math.inf, 0.0, 1.0, -r.uniform(0, 1),
                                    1.0 + r.uniform(0, 1)][r.integers(6)],
            "n_pixels": lambda r: [math.nan, -int(r.integers(0, 100))][r.integers(2)],
            "flicker_band": lambda r: [(0.0, 1e3), (1e3, 1.0), (1.0, math.inf),
                                       (math.nan, 1e3), (-1.0, 1e3)][r.integers(5)],
        })


def test_noise_context_refuses_bad_draws():
    rng = np.random.default_rng(20260508)
    states = [draw_state(rng) for _ in range(8)]
    for _ in range(DRAWS):
        valid = dict(state=states[rng.integers(len(states))],
                     p_in=10.0 ** rng.uniform(-9, -3), temperature=rng.uniform(4, 400),
                     delta_omega_s=rng.normal() * 1e9)
        refuses(rng, NoiseContext, valid, ("p_in", "temperature"), {
            "delta_omega_s": lambda r: [math.nan, math.inf, -math.inf][r.integers(3)],
        })


def test_boost_is_built_exactly_or_refused_by_name():
    # up to MAX_BOOST the state carries Q_on to a few ulps times the boost;
    # past it the state and the synthesizer refuse the boost by name (the
    # boundary itself is only decided to rounding, so draws near it are not
    # judged)
    rng = np.random.default_rng(20260509)
    for _ in range(DRAWS // 4):
        q_off = rng.uniform(5.0, 30.0)
        boost = 10.0 ** rng.uniform(0.01, 12.0)
        if abs(math.log10(boost / MAX_BOOST)) < 1e-6:
            continue
        build = dict(f0=rng.uniform(50e9, 300e9), lsrr=rng.uniform(20e-12, 200e-12),
                     q_off=q_off, q_on=q_off * boost, k=rng.uniform(0.02, 0.25))
        build["line"] = REFERENCE_LINE
        if boost <= MAX_BOOST:
            assert q_on(AsrrState.from_targets(**build)) == pytest.approx(q_off * boost, rel=1e-6)
        else:
            with pytest.raises(ValueError, match=r"boost Q_on/Q_off = \S+ exceeds 1e\+08"):
                AsrrState.from_targets(**build)
    built = refused = 0
    for _ in range(DRAWS // 4):
        spec = DesignSpec(f0=rng.uniform(50e9, 300e9), n_pixels=1,
                          il_budget=10.0 ** rng.uniform(-25.0, -3.0), snr_dc_target=1e-9,
                          snr_dr_target=1e-9, delta_r_ref=1.0, z0=rng.uniform(40, 75),
                          line=draw_line(rng), kn=250e-6, kp=250e-6, vth=0.3, vdd=1.0,
                          kf_area=3.9e-23, c_per_area=0.015,
                          l_srr_max=rng.uniform(20e-12, 200e-12), q_off=rng.uniform(5, 30))
        try:
            result = synthesize(spec)
        except InfeasibleDesignError as exc:
            assert exc.constraint == "boost limit", exc
            refused += 1
            continue
        assert result.q_on / spec.q_off <= MAX_BOOST
        # the pixel its gm builds has the boost the design reports
        state = AsrrState.from_targets(spec.f0, result.l_srr, spec.q_off, line=spec.line,
                                       gm0=result.gm_required, k=result.k,
                                       c_asrr=result.c_asrr)
        assert q_on(state) == pytest.approx(result.q_on, rel=1e-6)
        built += 1
    assert built > 50 and refused > 50  # both sides of the bound exercised
