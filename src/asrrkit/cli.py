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
import functools
import math
import os
import sys

import numpy as np

from . import __version__, active, resonator
from .config import DRIVE_SPAN, KEYS, ConfigError, Pixel, parse_config_file, read
from .sweepio import (NOISE_COLUMNS, fmt, keyvalue_lines, table_csv_lines, write_sweep,
                      write_text_files)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _commit(args, files, note=None, write=None):
    """Write files, a dict from file name to what write takes for it, into
    the output directory as one commit by write(a dict from path to that),
    say so, and return EXIT_OK.  write defaults to write_text_files, which
    takes text lines, looked up at the call so that a wrapper of the module
    name sees it.  The directory is made only once a command's rows exist,
    so a failure leaves no file."""
    out = args.out or os.environ.get("ASRRKIT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc.strerror}") from exc
    paths = {os.path.join(out, name): value for name, value in files.items()}
    (write or write_text_files)(paths)
    _say(args, f"wrote {', '.join(paths)}" + (f"; {note}" if note else ""))
    return EXIT_OK


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
        return resonator.auto_grid(w0, q)
    except ValueError as exc:
        raise ConfigError(f"{exc}; give sweep a --grid") from None


def cmd_sweep(args, cfg):
    pixel = Pixel(cfg)
    srr = pixel.ring
    grid = _grid(args, srr.w0, srr.q_off)
    sweep = resonator.s_parameters(srr, pixel.line, grid)
    if not (np.all(np.isfinite(sweep.s11)) and np.all(np.isfinite(sweep.s21))):
        raise ConfigError("sweep S-parameters must be finite: the model overflows on this grid")
    if grid[0] <= srr.w0 <= grid[-1]:
        i0 = int(np.argmin(np.abs(grid - srr.w0)))
        s21_db = 20.0 * math.log10(abs(sweep.s21[i0]))
        at_ring = f"|S21({sweep.freqs_hz[i0]:g} Hz)| = {s21_db:.3f} dB"
    else:
        at_ring = (f"ring resonance {srr.w0 / 2 / math.pi:g} Hz is outside the grid "
                   f"{grid[0] / 2 / math.pi:g}..{grid[-1] / 2 / math.pi:g} Hz")
    kinds = {f"sweep.{kind}": kind for kind in ("csv", "s2p") if args.format in (kind, "both")}
    return _commit(args, kinds, at_ring, write=lambda paths: write_sweep(
        sweep, {kind: path for path, kind in paths.items()}))


def cmd_match(args, cfg):
    """|S11| at f0 over coupling k and boosted Q: the matched locus and a
    contour grid, both read off the coupling ratio rho = beta_l*k^2*Q."""
    line = Pixel(cfg).line
    w0 = 2.0 * math.pi * read(cfg, "f0")
    beta_l = line.beta_l(w0)

    def row(k, q):
        return k, q, 20.0 * math.log10(resonator.reflected_amplitude(beta_l * k**2 * q))

    header = ("k", "q_on", "s11_db_at_f0")
    return _commit(args, {
        "match_locus.csv": table_csv_lines(header, [row(k, resonator.optimum_q_for_k(k, line, w0))
                                                    for k in np.linspace(0.02, 0.3, 57)]),
        "s11_contours.csv": table_csv_lines(header, [row(k, q) for k in np.linspace(0.02, 0.3, 29)
                                                     for q in np.geomspace(5.0, 500.0, 25)]),
    })


def cmd_nonlin(args, cfg):
    state = Pixel(cfg).state
    p_lin = active.linear_power_limit(state)
    rows = []
    lo, hi = DRIVE_SPAN
    for p_in in np.geomspace(read(cfg, "p_in_min") or lo * p_lin,
                             read(cfg, "p_in_max") or hi * p_lin, read(cfg, "p_in_points")):
        v_lin = active.asrr_voltage_swing(state, p_in)
        q_nl, v_nl = active.q_on_nonlinear(state, p_in)
        rows.append((p_in, v_lin, v_nl, q_nl))
    header = ("p_in_w", "v_asrr_linear_v", "v_asrr_v", "q_on_nonlin")
    comments = (f"p_in_lin_w = {fmt(p_lin)}", f"q_on_linear = {fmt(active.q_on(state))}")
    return _commit(args, {"nonlin.csv": table_csv_lines(header, rows, comments)},
                   f"p_in_lin = {p_lin:.3e} W")


def cmd_noise(args, cfg):
    from . import noise

    state = Pixel(cfg).state
    delta_omega_s = 2.0 * math.pi * read(cfg, "delta_f_s")
    q, w0 = active.q_on(state), state.srr.w0
    # Python floats: an extreme offset overflows a level to inf without a
    # numpy warning, and the finite check below refuses it
    offsets = np.geomspace(read(cfg, "offset_min"), read(cfg, "offset_max"), 31).tolist()
    white = noise.white_ssb_phase_noise(state, read(cfg, "p_in"), read(cfg, "temperature"))
    supply_psd = read(cfg, "supply_psd")  # off unless asked for
    if supply_psd is not None:
        supply = noise.supply_phase_noise(state, delta_omega_s, supply_psd)
        if not math.isfinite(supply):  # the supply row scales with delta_f_s**2
            raise ConfigError(f"supply_psd needs a nonzero delta_f_s: at delta_f_s = "
                              f"{delta_omega_s / (2.0 * math.pi):g} Hz the supply row "
                              f"is {supply:g} dBc/Hz")
    noise_rows = []  # (offset_hz, contributor, ssb_dbch)
    for off in offsets:
        gain_db = 10.0 * math.log10(noise.input_phase_transfer(q, w0, 2 * math.pi * off))
        flicker = noise.flicker_phase_noise(state, delta_omega_s, off)
        # the flicker notch bottoms out at the white level, not at -inf
        noise_rows += [(off, "white", white),
                       (off, "flicker", max(flicker, white)),
                       (off, "input", gain_db)]
        if supply_psd is not None:
            noise_rows.append((off, "supply", supply))
    # an extreme offset or delta_f_s overflows a level
    for off, contributor, level in noise_rows:
        if not math.isfinite(level):
            raise ConfigError(f"the {contributor} phase noise at offset {off:g} Hz is "
                              f"{level:g} dBc/Hz; every level must be finite")

    # PM-to-AM conversion at the carrier detunings j*w0/(20*Q_on), computed
    # before either file is written, so that a failure leaves neither
    w_in = w0 + np.arange(-39, 40) * (w0 / (20.0 * q))
    if not np.all(np.diff(w_in) > 0):
        raise ConfigError(f"Q = {q:g} is too high for the PM-to-AM table: its rows "
                          f"w0 + j*w0/(20*Q) are not distinct doubles")
    gains = noise.pm_to_am_gain(state.effective_srr(), state.line, w_in,
                                2.0 * math.pi * read(cfg, "pm_am_offset"))
    rows = zip((w_in - w0) / (2 * math.pi), np.where(np.isfinite(gains), gains, -300.0))
    return _commit(args, {"phase_noise.csv": table_csv_lines(NOISE_COLUMNS, noise_rows),
                          "pm_to_am.csv": table_csv_lines(("detune_hz", "conversion_db"), rows)})


def cmd_snr(args, cfg):
    from . import noise

    state = Pixel(cfg).state
    band = read(cfg, "f_lo"), read(cfg, "f_hi")
    snr_c = noise.snr_delta_c(state, band)
    snr_r = noise.snr_delta_r(state, band, read(cfg, "delta_r_ref"))
    return _commit(args, {"snr.txt": keyvalue_lines([
        ("snr_delta_c", snr_c),
        ("snr_delta_r", snr_r),
        ("q_on", active.q_on(state)),
        ("r_asrr_ohm", active.boosted_resistance(state)),
        ("p_in_lin_w", active.linear_power_limit(state)),
    ])}, f"SNR_dC = {snr_c:.4g}, SNR_dR = {snr_r:.4g}")


def cmd_design(args, cfg):
    from .design import InfeasibleDesignError, synthesize

    try:
        result = synthesize(Pixel(cfg).spec)
    except InfeasibleDesignError as exc:
        print(f"infeasible: binding constraint = {exc.constraint}; {exc.detail}",
              file=sys.stderr)
        return EXIT_NUMERIC
    values = [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)
              if f.name != "notes"]
    # with no block (gm_required = 0) both SNRs and the linear input power are infinite
    unbounded = ("snr_dc", "snr_dr", "p_in_lin") if result.gm_required == 0 else ()
    overflowed = [name for name, value in values
                  if not (math.isfinite(value) or name in unbounded)]
    if overflowed:
        raise ConfigError(f"design {', '.join(overflowed)} must be finite: the synthesis "
                          f"overflows on this config")
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
    return _commit(args, {"design.txt": keyvalue_lines(values), "design_report.txt": lines})


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


COMMANDS = {  # name: (command, help line)
    "sweep": (cmd_sweep, "S-parameter sweep of a configured pixel (CSV / Touchstone)"),
    "match": (cmd_match, "optimum coupling locus and S11 contours"),
    "nonlin": (cmd_nonlin, "swing and quality factor versus input power"),
    "noise": (cmd_noise, "phase-noise breakdown and PM-to-AM conversion"),
    "snr": (cmd_snr, "detection SNR figures"),
    "design": (cmd_design, "synthesize a pixel from targets"),
    "validate": (cmd_validate, "run the full analytic-vs-numeric check suite"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG; argparse's own 2 would read as
    a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache  # built at the first call, then shared by every main() of the process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asrrkit",
        description="Analytic models and design tools for actively boosted "
                    "split-ring sensing pixels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in COMMANDS.items():
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
            unknown = sorted(set(cfg) - KEYS.keys())
            if unknown:
                raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
            if "q_on" in cfg and "gm0" in cfg:
                raise ConfigError("config gives both 'q_on' and 'gm0': give the boost one way")
        elif args.command != "validate":
            raise ConfigError(f"'{args.command}' needs --config")
        return COMMANDS[args.command][0](args, cfg)
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
