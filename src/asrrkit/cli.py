"""Command-line front end.

Subcommands: sweep, match, nonlin, noise, snr, design, validate.  Inputs
come from a flat key-value config (see config.py); outputs are CSV,
Touchstone and key-value report files written into --out (or $ASRRKIT_OUT,
or the working directory).

Exit codes: 0 success, 1 config or usage error, 2 numerical or validation
failure.

Each command imports the modules that only it runs (noise, design,
validate) when it runs, so no other command pays to load them.

The program (``python -m asrrkit.cli`` or the ``asrrkit`` script) enters
through run(); main() is the in-process API and leaves the garbage
collector alone, as importing this module does.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # the program's imports make objects that live until exit, so a
    # collection during them finds nothing to free; run() turns the
    # collector back on once they are frozen
    gc.disable()

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__, active, resonator
from .config import STATE_KEYS, ConfigError, Pixel, optional, parse_config_file, require
from .resonator import require_positive
from .sweepio import (
    fmt,
    keyvalue_lines,
    noise_csv_lines,
    table_csv_lines,
    write_keyvalues,
    write_sweep,
    write_table_csv,
    write_text_files,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

GRID_POINTS_PER_BANDWIDTH = 100  # keeps spacing <= w0/(100*Q)

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
    "c_per_area", "l_srr_max",  # design
})


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _outdir(args) -> str:
    out = args.out or os.environ.get("ASRRKIT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc.strerror}") from exc
    return out


def _count(key, n) -> int:
    """The value n of a config key that counts something, refused unless a
    positive integer."""
    if not (n >= 1 and n == int(n)):
        raise ConfigError(f"{key} must be a positive integer, got {n:g}")
    return int(n)


def _flicker_band(cfg) -> tuple[float, float]:
    from .noise import FLICKER_BAND

    return optional(cfg, "f_lo", FLICKER_BAND[0]), optional(cfg, "f_hi", FLICKER_BAND[1])


def _grid(args, w0, q) -> np.ndarray:
    if args.grid:
        try:
            start, stop, count = args.grid.split(":")
            f_lo, f_hi, n = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ConfigError(f"bad --grid {args.grid!r}, want START:STOP:N in Hz") from exc
        for name, text, value in (("START", start, f_lo), ("STOP", stop, f_hi)):
            if not math.isfinite(value):
                raise ConfigError(f"--grid {name} must be finite, got {text!r}")
        if not (0 < f_lo < f_hi and n >= 2):
            raise ConfigError("grid needs 0 < START < STOP and N >= 2")
        return 2.0 * np.pi * np.linspace(f_lo, f_hi, n)
    try:
        return resonator.auto_grid(w0, q, 3.0, GRID_POINTS_PER_BANDWIDTH)
    except ValueError as exc:
        raise ConfigError(f"{exc}; give sweep a --grid") from None


def cmd_sweep(args, cfg):
    pixel = Pixel(cfg)
    srr = pixel.ring
    grid = _grid(args, srr.w0, srr.q_off)
    sweep = resonator.s_parameters(srr, pixel.line, grid)
    if not (np.all(np.isfinite(sweep.s11)) and np.all(np.isfinite(sweep.s21))):
        raise ConfigError("sweep S-parameters must be finite: the model overflows on this grid")
    out = _outdir(args)
    paths = {kind: os.path.join(out, f"sweep.{kind}")
             for kind in ("csv", "s2p") if args.format in (kind, "both")}
    write_sweep(sweep, paths)
    if grid[0] <= srr.w0 <= grid[-1]:
        i0 = int(np.argmin(np.abs(grid - srr.w0)))
        s21_db = 20.0 * math.log10(abs(sweep.s21[i0]))
        at_ring = f"|S21({sweep.freqs_hz[i0]:g} Hz)| = {s21_db:.3f} dB"
    else:
        at_ring = (f"ring resonance {srr.w0 / 2 / math.pi:g} Hz is outside the grid "
                   f"{grid[0] / 2 / math.pi:g}..{grid[-1] / 2 / math.pi:g} Hz")
    _say(args, f"wrote {', '.join(paths.values())}; {at_ring}")
    return EXIT_OK


def cmd_match(args, cfg):
    """|S11| at f0 over coupling k and boosted Q: the matched locus and a
    contour grid, both read off the coupling ratio rho = beta_l*k^2*Q."""
    line = Pixel(cfg).line
    w0 = 2.0 * math.pi * require(cfg, "f0")
    beta_l = line.beta_l(w0)
    out = _outdir(args)

    def row(k, q):
        return k, q, 20.0 * math.log10(resonator.reflected_amplitude(beta_l * k**2 * q))

    header = ("k", "q_on", "s11_db_at_f0")
    locus_path = os.path.join(out, "match_locus.csv")
    contour_path = os.path.join(out, "s11_contours.csv")
    write_text_files({
        locus_path: table_csv_lines(header, [row(k, resonator.optimum_q_for_k(k, line, w0))
                                             for k in np.linspace(0.02, 0.3, 57)]),
        contour_path: table_csv_lines(header, [row(k, q) for k in np.linspace(0.02, 0.3, 29)
                                               for q in np.geomspace(5.0, 500.0, 25)]),
    })
    _say(args, f"wrote {locus_path}, {contour_path}")
    return EXIT_OK


def cmd_nonlin(args, cfg):
    state = Pixel(cfg).state
    p_lin = active.linear_power_limit(state)
    p_lo = optional(cfg, "p_in_min", 0.01 * p_lin)
    p_hi = optional(cfg, "p_in_max", 30.0 * p_lin)
    require_positive(p_in_min=p_lo, p_in_max=p_hi)
    n = _count("p_in_points", optional(cfg, "p_in_points", 41))
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
    from . import noise

    state = Pixel(cfg).state
    ctx = noise.NoiseContext(
        state=state,
        p_in=optional(cfg, "p_in", 10e-6),
        temperature=optional(cfg, "temperature", 290.0),
        delta_omega_s=2.0 * math.pi * optional(cfg, "delta_f_s", 20e6),
    )
    q, w0 = active.q_on(state), state.srr.w0
    results = []
    offset_min = optional(cfg, "offset_min", 100.0)
    offset_max = optional(cfg, "offset_max", 1e8)
    require_positive(offset_min=offset_min, offset_max=offset_max)
    offsets = np.geomspace(offset_min, offset_max, 31)
    white = noise.white_ssb_phase_noise(ctx)
    supply_psd = optional(cfg, "supply_psd", None)  # off unless asked for
    if supply_psd is not None:
        require_positive(supply_psd=supply_psd)
        supply = noise.supply_phase_noise(ctx, supply_psd)
        if not math.isfinite(supply):  # the supply row scales with delta_f_s**2
            raise ConfigError(f"supply_psd needs a nonzero delta_f_s: at delta_f_s = "
                              f"{ctx.delta_omega_s / (2.0 * math.pi):g} Hz the supply row "
                              f"is {supply:g} dBc/Hz")
    for off in offsets:
        results.append(noise.PhaseNoiseResult(off, white, "white"))
        # the flicker notch bottoms out at the white level, not at -inf
        results.append(noise.PhaseNoiseResult(
            off, max(noise.flicker_phase_noise(ctx, off), white), "flicker"))
        gain_db = 10.0 * math.log10(noise.input_phase_transfer(q, w0, 2 * math.pi * off))
        results.append(noise.PhaseNoiseResult(off, gain_db, "input"))
        if supply_psd is not None:
            results.append(noise.PhaseNoiseResult(off, supply, "supply"))

    # PM-to-AM conversion at the carrier detunings j*w0/(20*Q_on), computed
    # before either file is written, so that a failure leaves neither
    pm_am_offset = optional(cfg, "pm_am_offset", 1e6)
    require_positive(pm_am_offset=pm_am_offset)
    w_in = w0 + np.arange(-39, 40) * (w0 / (20.0 * q))
    if not np.all(np.diff(w_in) > 0):
        raise ConfigError(f"Q = {q:g} is too high for the PM-to-AM table: its rows "
                          f"w0 + j*w0/(20*Q) are not distinct doubles")
    gains = noise.pm_to_am_gain(state.effective_srr(), state.line, w_in,
                                2.0 * math.pi * pm_am_offset)
    rows = zip((w_in - w0) / (2 * math.pi), np.where(np.isfinite(gains), gains, -300.0))

    out = _outdir(args)
    noise_path = os.path.join(out, "phase_noise.csv")
    pm_path = os.path.join(out, "pm_to_am.csv")
    write_text_files({noise_path: noise_csv_lines(results),
                      pm_path: table_csv_lines(("detune_hz", "conversion_db"), rows)})
    _say(args, f"wrote {noise_path}, {pm_path}")
    return EXIT_OK


def cmd_snr(args, cfg):
    from . import noise

    state = Pixel(cfg).state
    band = _flicker_band(cfg)
    kf = state.gm.kf
    delta_r_ref = optional(cfg, "delta_r_ref", 1.0)
    require_positive(delta_r_ref=delta_r_ref)
    snr_c = noise.snr_delta_c(state, kf, band)
    snr_r = noise.snr_delta_r(state, kf, band, delta_r_ref)
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
    from .design import DesignSpec, InfeasibleDesignError, synthesize

    line = Pixel(cfg).line
    spec = DesignSpec(
        f0=require(cfg, "f0"),
        n_pixels=_count("n_pixels", optional(cfg, "n_pixels", 1)),
        il_budget=require(cfg, "il_budget"),
        snr_dc_target=require(cfg, "snr_dc_target"),
        snr_dr_target=require(cfg, "snr_dr_target"),
        delta_r_ref=optional(cfg, "delta_r_ref", 1.0),
        z0=line.z0,
        line=line,
        kn=require(cfg, "kn"),
        kp=require(cfg, "kp"),
        vth=require(cfg, "vth"),
        vdd=require(cfg, "vdd"),
        kf_area=require(cfg, "kf_area"),
        c_per_area=require(cfg, "c_per_area"),
        l_srr_max=require(cfg, "l_srr_max"),
        q_off=optional(cfg, "q_off", 10.0),
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
    write_text_files({machine: keyvalue_lines([(f.name, getattr(result, f.name))
                                               for f in dataclasses.fields(result)
                                               if f.name != "notes"]),
                      report: lines})
    _say(args, f"wrote {machine}, {report}")
    return EXIT_OK


def cmd_validate(args, cfg):
    from . import validate

    results = validate.run_all(cfg)
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
    except OSError as exc:  # an output file: the config and --out raise ConfigError
        print(f"config error: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> int:
    """The program: main() on sys.argv, with every object made so far (the
    imports', alive until exit) frozen out of the cyclic collector, so its
    collections, the one at exit included, walk only the command's own."""
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
