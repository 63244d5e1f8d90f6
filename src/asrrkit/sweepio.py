"""File emission for sweep and noise results: CSV and Touchstone v1.

Floats are written with 12 significant digits so identical inputs produce
byte-identical files.  Writes go to a temp file first and are renamed into
place.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .resonator import TwoPortSweep

SWEEP_COLUMNS = "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
NOISE_COLUMNS = "offset_hz,contributor,ssb_dbch"


def fmt(x: float) -> str:
    return f"{x:.12g}"


def write_lines(path, lines):
    """Text lines, each ended by a newline, written through a temp file
    that is renamed into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_sweep_csv(path, sweep: TwoPortSweep):
    mag_db = sweep.s21_db()
    phase_deg = np.degrees(np.unwrap(np.angle(sweep.s21)))
    lines = [SWEEP_COLUMNS]
    for i, f_hz in enumerate(sweep.freqs_hz):
        lines.append(
            ",".join(
                fmt(v)
                for v in (
                    f_hz,
                    sweep.s11[i].real,
                    sweep.s11[i].imag,
                    sweep.s21[i].real,
                    sweep.s21[i].imag,
                    mag_db[i],
                    phase_deg[i],
                )
            )
        )
    write_lines(path, lines)


def write_touchstone(path, sweep: TwoPortSweep):
    """Two-port Touchstone v1, real/imaginary, Hz.  The network is
    reciprocal and symmetric, so S12 = S21 and S22 = S11."""
    lines = [f"# Hz S RI R {fmt(sweep.z0_ref)}"]
    for i, f_hz in enumerate(sweep.freqs_hz):
        s11, s21 = sweep.s11[i], sweep.s21[i]
        lines.append(
            " ".join(
                fmt(v)
                for v in (
                    f_hz,
                    s11.real, s11.imag,
                    s21.real, s21.imag,
                    s21.real, s21.imag,
                    s11.real, s11.imag,
                )
            )
        )
    write_lines(path, lines)


def write_noise_csv(path, results):
    """results: iterable of PhaseNoiseResult-like (offset_freq, ssb_dbchz,
    contributor)."""
    lines = [NOISE_COLUMNS]
    for r in results:
        lines.append(f"{fmt(r.offset_freq)},{r.contributor},{fmt(r.ssb_dbchz)}")
    write_lines(path, lines)


def write_table_csv(path, header, rows, comments=()):
    """Generic CSV with optional leading '#' comment lines."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    write_lines(path, lines)


def write_keyvalues(path, pairs, comments=()):
    lines = [f"# {c}" for c in comments]
    for key, val in pairs:
        lines.append(f"{key} = {val if isinstance(val, str) else fmt(val)}")
    write_lines(path, lines)
