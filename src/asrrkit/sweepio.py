"""File emission for sweep and noise results: CSV and Touchstone v1.

Floats are written with 12 significant digits so identical inputs produce
byte-identical files.  Writes go to a temp file first and are renamed into
place.  Sweep files are streamed a chunk of rows at a time, so their
memory does not grow with the length of the text, and one pass serves
the CSV and the Touchstone file together: the columns they share are
formatted once.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .resonator import TwoPortSweep

SWEEP_COLUMNS = "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
NOISE_COLUMNS = "offset_hz,contributor,ssb_dbch"
CHUNK_ROWS = 4096  # rows formatted and written per step of write_sweep


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_atomic(paths, write):
    """Call write(*handles) on one text file beside each of paths, then
    rename them all into place.  Each temp file is created as open()
    creates a file, mode 0666 less the umask (mkstemp would make it 0600),
    under a random name that O_EXCL refuses to reuse; on any failure every
    temp file is removed and no path is touched."""
    tmps = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                                   f"tmp{os.urandom(8).hex()}.tmp")
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmps.append(tmp)
                handles.append(stack.enter_context(os.fdopen(fd, "w")))
            write(*handles)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def write_lines(path, lines):
    """Text lines, each ended by a newline, written through a temp file
    that is renamed into place."""
    _write_atomic([path], lambda fh: fh.write("\n".join(lines) + "\n"))


# per sweep file format: the separator and a row's columns, as indices into
# (freq, re S11, im S11, re S21, im S21, |S21| dB, S21 deg); Touchstone reuses
# S21 as S12 and S11 as S22, the network being reciprocal and symmetric
SWEEP_LAYOUTS = {"csv": (",", range(7)), "s2p": (" ", (0, 1, 2, 3, 4, 3, 4, 1, 2))}


def write_sweep(sweep: TwoPortSweep, paths):
    """Write the sweep to paths, a dict from format ("csv", Touchstone v1
    "s2p") to file path, in one pass.  Rows go out CHUNK_ROWS at a time;
    each column of a chunk is formatted once, however many files and
    layouts name it, and each file joins its rows from those strings, so
    memory stays at one chunk's text however long the sweep is."""
    headers = {"csv": SWEEP_COLUMNS, "s2p": f"# Hz S RI R {fmt(sweep.z0_ref)}"}
    columns = [sweep.freqs_hz, sweep.s11.real, sweep.s11.imag, sweep.s21.real, sweep.s21.imag]
    if "csv" in paths:
        columns += [sweep.s21_db(), np.degrees(sweep.s21_phase())]
    layouts = [SWEEP_LAYOUTS[kind] for kind in paths]

    def write(*handles):
        for fh, kind in zip(handles, paths):
            fh.write(headers[kind] + "\n")
        for i in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [col[i:i + CHUNK_ROWS].tolist() for col in columns]
            # one % call formats a whole column, cheaper than one per value
            template = "\n".join(["%.12g"] * len(chunk[0]))
            cells = [(template % tuple(values)).split("\n") for values in chunk]
            for fh, (sep, layout) in zip(handles, layouts):
                fh.write("\n".join(map(sep.join, zip(*[cells[k] for k in layout]))) + "\n")

    _write_atomic(list(paths.values()), write)


def write_sweep_csv(path, sweep: TwoPortSweep):
    """The CSV file alone; see write_sweep."""
    write_sweep(sweep, {"csv": path})


def write_touchstone(path, sweep: TwoPortSweep):
    """The Touchstone v1 file alone (real/imaginary, Hz); see write_sweep."""
    write_sweep(sweep, {"s2p": path})


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
