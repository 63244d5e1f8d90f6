"""Command-line front end.

Subcommands: sweep, match, nonlin, noise, snr, design, validate.  Inputs
come from a flat key-value config (see config.py); outputs are CSV,
Touchstone and key-value report files written into --out (or $ASRRKIT_OUT,
or the working directory).

Exit codes: 0 success, 1 config or usage error, 2 numerical or validation
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, active, noise, resonator
from .active import AsrrState
from .config import ConfigError, optional, parse_config_file, require
from .design import DesignSpec, InfeasibleDesignError, synthesize
from .resonator import SrrParams, TransmissionLineSection
from .sweepio import (
    fmt,
    write_keyvalues,
    write_lines,
    write_noise_csv,
    write_sweep,
    write_table_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

GRID_POINTS_PER_BANDWIDTH = 100  # keeps spacing <= w0/(100*Q)

# optional config keys -> AsrrState.from_targets keywords; absent keys take
# its defaults
STATE_KEYS = {"k": "k", "c_asrr": "c_asrr", "vdd": "vdd", "vth": "vth", "kn_wl": "kn_wl",
              "kp_wl": "kp_wl", "kf": "kf", "gamma": "gamma", "lambda": "lam"}
MATCH_TOL = 1e-6  # largest |beta_l*k^2*Q_on - 1| the matched closed forms accept

# every key some command reads, so that one config can serve all of them;
# any other key is refused as a likely typo
CONFIG_KEYS = frozenset({
    "f0", "lsrr", "q_off", "q_on", "gm0", "k",  # pixel
    "z0", "beta_l",  # line
    *STATE_KEYS,  # active block
    "p_in_min", "p_in_max", "p_in_points",  # nonlin
    "p_in", "temperature", "delta_f_s", "offset_min", "offset_max", "supply_psd",
    "pm_am_offset",  # noise
    "f_lo", "f_hi", "delta_r_ref",  # snr and design
    "n_pixels", "il_budget", "snr_dc_target", "snr_dr_target", "kn", "kp", "kf_area",
    "c_per_area", "l_srr_max", "cap_weight",  # design
})


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _outdir(args) -> str:
    out = args.out or os.environ.get("ASRRKIT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _line(cfg) -> tuple[TransmissionLineSection, float]:
    """The host line at f0, from z0 and beta_l, and the z0 every command
    references its ports to."""
    w0 = 2.0 * math.pi * require(cfg, "f0")
    z0 = optional(cfg, "z0", 50.0)
    return TransmissionLineSection.from_electrical(z0, require(cfg, "beta_l"), w0), z0


def _build_srr(cfg, line) -> tuple[SrrParams, float]:
    """Resonator from config at q_on, the Q_on that gm0 gives, or q_off if
    unboosted; its capacitance is c_asrr, by default resonant with lsrr at
    f0, and k defaults to the matched value for that Q at f0.  Returns
    (srr, w0) with w0 = 2*pi*f0."""
    w0 = 2.0 * math.pi * require(cfg, "f0")
    lsrr = require(cfg, "lsrr")
    c_asrr = optional(cfg, "c_asrr", 1.0 / (w0 * w0 * lsrr))
    q = (active.q_on(_state(cfg, line)) if "gm0" in cfg
         else optional(cfg, "q_on", None) or require(cfg, "q_off"))
    k = optional(cfg, "k", None)
    if k is None:
        k = resonator.optimum_k_for_q(q, line, w0)
    srr = SrrParams(lsrr=lsrr, csrr=c_asrr, q_off=q, k=k)
    return srr, w0


def _state(cfg, line) -> AsrrState:
    """Active pixel from config: q_off plus either gm0 or q_on."""
    boost = {"gm0": require(cfg, "gm0")} if "gm0" in cfg else {"q_on": require(cfg, "q_on")}
    extra = {arg: require(cfg, key) for key, arg in STATE_KEYS.items() if key in cfg}
    return AsrrState.from_targets(require(cfg, "f0"), require(cfg, "lsrr"), require(cfg, "q_off"),
                                  line=line, **boost, **extra)


def _matched_state(cfg, line) -> AsrrState:
    """Active pixel from config.  nonlin, noise and snr use the
    matched-coupling closed forms, so a k off the locus
    beta_l*k^2*Q_on = 1 is refused."""
    state = _state(cfg, line)
    residual = abs(line.beta_l(state.w0) * state.srr.k**2 * active.q_on(state) - 1.0)
    if not residual <= MATCH_TOL:
        raise ConfigError(
            f"k = {state.srr.k:g} is off the matched locus: |beta_l*k^2*q_on - 1| = "
            f"{residual:.3g} > {MATCH_TOL:g}; nonlin, noise and snr assume matched coupling"
        )
    return state


def _flicker_band(cfg) -> tuple[float, float]:
    return (optional(cfg, "f_lo", noise.FLICKER_BAND[0]),
            optional(cfg, "f_hi", noise.FLICKER_BAND[1]))


def _grid(args, w0, q) -> np.ndarray:
    if args.grid:
        try:
            start, stop, count = args.grid.split(":")
            f_lo, f_hi, n = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ConfigError(f"bad --grid {args.grid!r}, want START:STOP:N in Hz") from exc
        if not (0 < f_lo < f_hi and n >= 2):
            raise ConfigError("grid needs 0 < START < STOP and N >= 2")
        return 2.0 * np.pi * np.linspace(f_lo, f_hi, n)
    return resonator.auto_grid(w0, q, 3.0, GRID_POINTS_PER_BANDWIDTH)


def cmd_sweep(args, cfg):
    line, z0 = _line(cfg)
    srr, w0 = _build_srr(cfg, line)
    grid = _grid(args, w0, srr.q_off)
    sweep = resonator.s_parameters(srr, line, grid, z0_ref=z0)
    out = _outdir(args)
    paths = {kind: os.path.join(out, f"sweep.{kind}")
             for kind in ("csv", "s2p") if args.format in (kind, "both")}
    write_sweep(sweep, paths)
    if grid[0] <= srr.w0 <= grid[-1]:
        i0 = int(np.argmin(np.abs(grid - srr.w0)))
        at_ring = f"|S21({sweep.freqs_hz[i0]:g} Hz)| = {sweep.s21_db()[i0]:.3f} dB"
    else:
        at_ring = (f"ring resonance {srr.w0 / 2 / math.pi:g} Hz is outside the grid "
                   f"{grid[0] / 2 / math.pi:g}..{grid[-1] / 2 / math.pi:g} Hz")
    _say(args, f"wrote {', '.join(paths.values())}; {at_ring}")
    return EXIT_OK


def cmd_match(args, cfg):
    """|S11| at f0 over coupling k and boosted Q: the matched locus and a
    contour grid, both read off the coupling ratio rho = beta_l*k^2*Q."""
    line, _ = _line(cfg)
    w0 = 2.0 * math.pi * require(cfg, "f0")
    beta_l = line.beta_l(w0)
    out = _outdir(args)

    def row(k, q):
        return k, q, 20.0 * math.log10(resonator.reflected_amplitude(beta_l * k**2 * q))

    locus_path = os.path.join(out, "match_locus.csv")
    write_table_csv(locus_path, ("k", "q_on", "s11_db_at_f0"),
                    [row(k, resonator.optimum_q_for_k(k, line, w0))
                     for k in np.linspace(0.02, 0.3, 57)])
    contour_path = os.path.join(out, "s11_contours.csv")
    write_table_csv(contour_path, ("k", "q_on", "s11_db_at_f0"),
                    [row(k, q) for k in np.linspace(0.02, 0.3, 29)
                     for q in np.geomspace(5.0, 500.0, 25)])
    _say(args, f"wrote {locus_path}, {contour_path}")
    return EXIT_OK


def cmd_nonlin(args, cfg):
    state = _matched_state(cfg, _line(cfg)[0])
    p_lin = active.linear_power_limit(state)
    p_lo = optional(cfg, "p_in_min", 0.01 * p_lin)
    p_hi = optional(cfg, "p_in_max", 30.0 * p_lin)
    n = int(optional(cfg, "p_in_points", 41))
    rows = []
    for p_in in np.geomspace(p_lo, p_hi, n):
        v_lin = active.asrr_voltage_swing(state, p_in)
        q_nl, v_nl = active.q_on_nonlinear(state, p_in)
        rows.append((p_in, v_lin, v_nl, q_nl))
    out = _outdir(args)
    path = os.path.join(out, "nonlin.csv")
    write_table_csv(
        path,
        ("p_in_w", "v_asrr_linear_v", "v_asrr_v", "q_on_nonlin"),
        rows,
        comments=(f"p_in_lin_w = {fmt(p_lin)}", f"q_on_linear = {fmt(active.q_on(state))}"),
    )
    _say(args, f"wrote {path}; p_in_lin = {p_lin:.3e} W")
    return EXIT_OK


def cmd_noise(args, cfg):
    line, z0 = _line(cfg)
    state = _matched_state(cfg, line)
    ctx = noise.NoiseContext(
        state=state,
        z0=z0,
        p_in=optional(cfg, "p_in", 10e-6),
        temperature=optional(cfg, "temperature", 290.0),
        delta_omega_s=2.0 * math.pi * optional(cfg, "delta_f_s", 20e6),
    )
    q = active.q_on(state)
    results = []
    offsets = np.geomspace(optional(cfg, "offset_min", 100.0),
                           optional(cfg, "offset_max", 1e8), 31)
    white = noise.white_ssb_phase_noise(ctx)
    supply_psd = optional(cfg, "supply_psd", None)  # off unless asked for
    for off in offsets:
        results.append(noise.PhaseNoiseResult(off, white, "white"))
        results.append(noise.PhaseNoiseResult(
            off, noise.flicker_phase_noise(ctx, off), "flicker"))
        gain_db = 10.0 * math.log10(noise.input_phase_transfer(q, state.w0, 2 * math.pi * off))
        results.append(noise.PhaseNoiseResult(off, gain_db, "input"))
        if supply_psd is not None:
            results.append(noise.PhaseNoiseResult(
                off, noise.supply_phase_noise(ctx, supply_psd), "supply"))

    # PM-to-AM conversion vs carrier detuning, computed before either file
    # is written, so that a failure leaves neither
    grid = resonator.auto_grid(state.w0, q, 2.0, 200.0)
    sweep = resonator.s_parameters(state.effective_srr(), line, grid, z0_ref=z0)
    rows = []
    offset = 2.0 * math.pi * optional(cfg, "pm_am_offset", 1e6)
    start = len(grid) // 2 % 10  # keep the zero-detune row in the table
    if start < 5:
        start += 10
    for w_in in grid[start:-5:10]:
        gain = noise.pm_to_am_gain(sweep, float(w_in), offset)
        rows.append(((w_in - state.w0) / (2 * math.pi), gain if math.isfinite(gain) else -300.0))

    out = _outdir(args)
    noise_path = os.path.join(out, "phase_noise.csv")
    write_noise_csv(noise_path, results)
    pm_path = os.path.join(out, "pm_to_am.csv")
    write_table_csv(pm_path, ("detune_hz", "conversion_db"), rows)
    _say(args, f"wrote {noise_path}, {pm_path}")
    return EXIT_OK


def cmd_snr(args, cfg):
    state = _matched_state(cfg, _line(cfg)[0])
    band = _flicker_band(cfg)
    kf = state.gm.kf
    snr_c = noise.snr_delta_c(state, kf, band)
    snr_r = noise.snr_delta_r(state, kf, band, optional(cfg, "delta_r_ref", 1.0))
    out = _outdir(args)
    path = os.path.join(out, "snr.txt")
    write_keyvalues(path, [
        ("snr_delta_c", snr_c),
        ("snr_delta_r", snr_r),
        ("q_on", active.q_on(state)),
        ("r_asrr_ohm", active.boosted_resistance(state)),
        ("p_in_lin_w", active.linear_power_limit(state)),
    ])
    _say(args, f"wrote {path}; SNR_dC = {snr_c:.4g}, SNR_dR = {snr_r:.4g}")
    return EXIT_OK


def cmd_design(args, cfg):
    line, z0 = _line(cfg)
    spec = DesignSpec(
        f0=require(cfg, "f0"),
        n_pixels=int(optional(cfg, "n_pixels", 1)),
        il_budget=require(cfg, "il_budget"),
        snr_dc_target=require(cfg, "snr_dc_target"),
        snr_dr_target=require(cfg, "snr_dr_target"),
        delta_r_ref=optional(cfg, "delta_r_ref", 1.0),
        z0=z0,
        line=line,
        kn=require(cfg, "kn"),
        kp=require(cfg, "kp"),
        vth=require(cfg, "vth"),
        vdd=require(cfg, "vdd"),
        kf_area=require(cfg, "kf_area"),
        c_per_area=require(cfg, "c_per_area"),
        l_srr_max=require(cfg, "l_srr_max"),
        q_off=optional(cfg, "q_off", 10.0),
        cap_weight=optional(cfg, "cap_weight", 1.0),
        flicker_band=_flicker_band(cfg),
    )
    try:
        result = synthesize(spec)
    except InfeasibleDesignError as exc:
        print(f"infeasible: binding constraint = {exc.constraint}; {exc.detail}",
              file=sys.stderr)
        return EXIT_NUMERIC
    out = _outdir(args)
    machine = os.path.join(out, "design.txt")
    pairs = [(k, getattr(result, k)) for k in (
        "k", "q_on", "r_srr", "l_srr", "c_asrr", "c_gm", "c_srr", "gm_required",
        "wl_ratio_n", "wl_ratio_p", "w_n", "l_n", "w_p", "l_p", "gate_area",
        "alpha_1_over_f", "kf_device", "v_fn_rms", "snr_dc", "snr_dr",
        "p_in_lin", "power_estimate",
    )]
    write_keyvalues(machine, pairs)
    report = os.path.join(out, "design_report.txt")
    lines = [
        "pixel design report",
        f"  coupling k          : {result.k:.4f}",
        f"  boosted Q           : {result.q_on:.2f}",
        f"  ring L              : {result.l_srr * 1e12:.3f} pH",
        f"  total C             : {result.c_asrr * 1e15:.3f} fF",
        f"  ring loss (par)     : {result.r_srr:.1f} ohm",
        f"  required gm         : {result.gm_required * 1e3:.4f} mS",
        f"  device W/L (n, p)   : {result.wl_ratio_n:.2f}, {result.wl_ratio_p:.2f}",
        f"  device W x L (n)    : {result.w_n * 1e6:.3f} um x {result.l_n * 1e9:.1f} nm",
        f"  achieved SNR dC     : {result.snr_dc:.1f}",
        f"  achieved SNR dR     : {result.snr_dr:.1f}",
        f"  linear input power  : {result.p_in_lin * 1e6:.2f} uW",
        f"  supply power        : {result.power_estimate * 1e6:.2f} uW",
    ]
    for note in result.notes:
        lines.append(f"  note: {note}")
    write_lines(report, lines)
    _say(args, f"wrote {machine}, {report}")
    return EXIT_OK


def cmd_validate(args, cfg):
    # imported here, so that no other command compiles validate and oracle
    from . import validate

    ignored = sorted(set(cfg) - set(validate.FIXTURE_KEYS))
    if ignored:
        # not an error: one config serves every command
        print(f"validate ignores config key {', '.join(map(repr, ignored))}: "
              f"it reads only {', '.join(validate.FIXTURE_KEYS)}", file=sys.stderr)
    results = validate.run_all(cfg if cfg else None)
    failed = [r for r in results if not r.passed]
    for r in results:
        _say(args, r.line())
    _say(args, f"{len(results) - len(failed)}/{len(results)} checks passed "
               f"in {sum(r.elapsed for r in results):.1f} s")
    if failed:
        # always name failures, even under --quiet
        for r in failed:
            print(r.line(), file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


COMMANDS = {
    "sweep": cmd_sweep,
    "match": cmd_match,
    "nonlin": cmd_nonlin,
    "noise": cmd_noise,
    "snr": cmd_snr,
    "design": cmd_design,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG; argparse's own 2 would read as
    a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asrrkit",
        description="Analytic models and design tools for actively boosted "
                    "split-ring sensing pixels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("sweep", "S-parameter sweep of a configured pixel (CSV / Touchstone)"),
        ("match", "optimum coupling locus and S11 contours"),
        ("nonlin", "swing and quality factor versus input power"),
        ("noise", "phase-noise breakdown and PM-to-AM conversion"),
        ("snr", "detection SNR figures"),
        ("design", "synthesize a pixel from targets"),
        ("validate", "run the full analytic-vs-numeric check suite"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--out", help="output directory (default $ASRRKIT_OUT or '.')")
        p.add_argument("--quiet", action="store_true")
        if name == "sweep":
            p.add_argument("--format", choices=("csv", "s2p", "both"), default="csv")
            p.add_argument("--grid", help="frequency grid START:STOP:N in Hz")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg: dict = {}
    try:
        if args.config:
            cfg = parse_config_file(args.config)
            unknown = sorted(set(cfg) - CONFIG_KEYS)
            if unknown:
                raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
            if "q_on" in cfg and "gm0" in cfg:
                raise ConfigError("config gives both 'q_on' and 'gm0': give the boost one way")
        elif args.command != "validate":
            raise ConfigError(f"'{args.command}' needs --config")
        return COMMANDS[args.command](args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
