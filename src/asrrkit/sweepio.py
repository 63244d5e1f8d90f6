"""File emission for sweep and noise results: CSV and Touchstone v1.

Floats are written with 12 significant digits so identical inputs produce
byte-identical files.  Writes go to a temp file first and are renamed into
place.  Sweep files are streamed a chunk of rows at a time, so their
memory does not grow with the length of the text.
"""

from __future__ import annotations

import os

import numpy as np

from .resonator import TwoPortSweep

SWEEP_COLUMNS = "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
NOISE_COLUMNS = "offset_hz,contributor,ssb_dbch"
CHUNK_ROWS = 4096  # rows formatted and written per step of _write_rows


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_atomic(path, write):
    """Call write(fh) on a text file beside path, then rename it into place.
    The temp file is created as open() creates a file, mode 0666 less the
    umask (mkstemp would make it 0600), under a random name that O_EXCL
    refuses to reuse; on any failure it is removed and path is untouched."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_lines(path, lines):
    """Text lines, each ended by a newline, written through a temp file
    that is renamed into place."""
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def _write_rows(path, header, columns, sep, layout):
    """The header line, then one line per index of the equal-length float
    columns: the strings of columns[k] for k in layout, joined by sep.
    Rows go out CHUNK_ROWS at a time and each column of a chunk is
    formatted once, however often layout names it, so memory stays at one
    chunk's text however long the columns are."""

    def write(fh):
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [col[i:i + CHUNK_ROWS].tolist() for col in columns]
            # one % call formats a whole column, cheaper than one per value
            template = "\n".join(["%.12g"] * len(chunk[0]))
            cells = [(template % tuple(values)).split("\n") for values in chunk]
            fh.write("\n".join(map(sep.join, zip(*[cells[k] for k in layout]))) + "\n")

    _write_atomic(path, write)


def write_sweep_csv(path, sweep: TwoPortSweep):
    columns = (
        sweep.freqs_hz,
        sweep.s11.real, sweep.s11.imag,
        sweep.s21.real, sweep.s21.imag,
        sweep.s21_db(),
        np.degrees(sweep.s21_phase()),
    )
    _write_rows(path, SWEEP_COLUMNS, columns, ",", range(7))


def write_touchstone(path, sweep: TwoPortSweep):
    """Two-port Touchstone v1, real/imaginary, Hz.  The network is
    reciprocal and symmetric, so S12 = S21 and S22 = S11."""
    columns = (sweep.freqs_hz, sweep.s11.real, sweep.s11.imag, sweep.s21.real, sweep.s21.imag)
    _write_rows(path, f"# Hz S RI R {fmt(sweep.z0_ref)}", columns, " ",
                (0, 1, 2, 3, 4, 3, 4, 1, 2))


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
