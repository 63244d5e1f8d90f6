"""File emission for sweep and noise results: CSV and Touchstone v1.

Floats are written with 12 significant digits, exactly as ``"%.12g"``
writes them, so identical inputs produce byte-identical files.  Writes go
to a temp file first and are renamed into place.  Sweep files are
written a chunk of rows at a time, and one pass serves the CSV and the
Touchstone file together: the columns they share are formatted once.  The
chunks are packed on every usable core and written in order, so at most
one chunk per core, plus one, is held as text (the TwoPortSweep is held
whole).

A sweep's columns are formatted by a numpy kernel, ``_format_12g``, a
whole chunk at a time.  It is exact because it only decides what it can
prove.  For ``|x|`` in [1e-11, 1e34) it scales by 10**(11 - e), with
e = floor(log10|x|), into [1e11, 1e12).  That power of ten is an exact
double, so the one rounding moves the product by at most 2**-53 of it,
under 1.2e-4.  The nearest integer to the product is then the 12-digit
significand ``%`` would round to, unless the product lies within 1e-3 of
a half-integer.  The digits go into place through a table of the 552
``%g`` layouts, one per (exponent, trailing zeros).  Everything else
falls back to ``%``, one value at a time: zeros, nan, infinities,
magnitudes outside that window (subnormals among them) and the near-ties,
which include every exact tie, where ``%`` rounds half to even.

The kernel's cells are 21 bytes: a sign byte ('-' or NUL), the digits and
literals, NUL padding and a separator slot.  Each file's rows are one take
of the cells, with separators in the slots and the NULs dropped, in numpy
calls that release the GIL: no bytes object per cell, no join in Python.
The kernel's tables are built once, on the writing thread, and read-only,
so the chunk jobs on the pool's threads share nothing any thread writes.
"""

from __future__ import annotations

import collections
import contextlib
import errno
import functools
import os

import numpy as np

from .resonator import TwoPortSweep

SWEEP_COLUMNS = "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
NOISE_COLUMNS = ("offset_hz", "contributor", "ssb_dbch")
CHUNK_ROWS = 4096  # rows formatted and written per step of write_sweep


def fmt(x: float) -> str:
    return f"{x:.12g}"


# decimal exponents e = floor(log10|x|) the kernel scales itself: 10**(11 - e)
# is then an exact double, both as a factor (e <= 11) and as a divisor
_EXP_MIN, _EXP_MAX = -11, 33
# the bytes a %g layout takes from outside the digits: NUL pads a cell, and
# the last, the value's sign ('-' or NUL), makes a row whole uint32 words
_LITERALS = b"\0-.e+0123456789\0"
_KEYS = (_EXP_MAX + 2 - _EXP_MIN) * 12  # (exponent, trailing zeros)
_CELL = 21  # "-1.23456789012e-308" is 19 bytes; the last is the separator's slot
# each literal character's place in a row of the kernel: 12 plus its first
# index in _LITERALS
_LITERAL_INDEX = {chr(c): 12 + i for i, c in enumerate(_LITERALS[:-1])}


def _layout(exp, nd):
    """Where each byte of a %.12g cell comes from, for a value with decimal
    exponent exp and nd significant digits, the sign's byte first: an index
    0-11 into its 12 digits, or 12 plus an index into _LITERALS."""
    if -4 <= exp < 12:  # %g's fixed notation
        point = max(exp + 1, 0)
        whole, frac = list(range(point)), list(range(point, nd))
        places = (whole or ["0"]) + (["."] + ["0"] * (-exp - 1) + frac if frac else [])
    else:
        places = [0] + (["."] + list(range(1, nd)) if nd > 1 else []) + list(f"e{exp:+03d}")
    places = [12 + len(_LITERALS) - 1] + places + ["\0"] * (_CELL - 1 - len(places))
    return [p if isinstance(p, int) else _LITERAL_INDEX[p] for p in places]


@functools.cache
def _tables():
    """The kernel's tables, built once, on the writing thread, and read-only:
    each 4-digit group's ASCII bytes as one uint32 and its trailing zero
    count, the factors and divisors 10**(11 - e), and the layout of every
    key (exponent - _EXP_MIN)*12 + trailing zeros."""
    groups = np.arange(10_000)
    digits4 = (groups[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    zeros4 = sum(groups % 10**k == 0 for k in range(1, 5))
    shifts = range(11 - _EXP_MAX, 12 - _EXP_MIN)
    scale = np.array([[float(10 ** max(s, 0)), float(10 ** max(-s, 0))] for s in shifts])
    layouts = np.array([_layout(k // 12 + _EXP_MIN, 12 - k % 12) for k in range(_KEYS)],
                       np.intp)
    tables = digits4.view(np.uint32).ravel(), zeros4, scale, layouts
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_each(values):
    """The kernel's fallback: % itself, one value at a time."""
    return [b"%.12g" % v for v in values]


def _format_12g(values) -> np.ndarray:
    """An S21 array of values' shape whose cells' non-NUL bytes are
    b"%.12g" % v, for each double v, laid out as the module docstring says;
    the NULs are the writer's to drop.  See there too why the fast path is
    exact and what falls back."""
    digits4, zeros4, scale, layouts = _tables()
    values = np.asarray(values, dtype=float)
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e34)  # false for 0, nan and inf
    a[~fast] = 1.0
    # e = floor(log10|x|), put right by one where log10 rounded across an integer
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), _EXP_MIN, _EXP_MAX)
    y = a * scale[_EXP_MAX - e, 0] / scale[_EXP_MAX - e, 1]
    off = np.flatnonzero((y < 1e11) | (y >= 1e12))
    if off.size:
        e[off] += np.where(y[off] < 1e11, -1, 1)
        fast[off] &= (e[off] >= _EXP_MIN) & (e[off] <= _EXP_MAX)
        k = _EXP_MAX - np.clip(e[off], _EXP_MIN, _EXP_MAX)
        y[off] = a[off] * scale[k, 0] / scale[k, 1]
    m = np.rint(y)
    fast &= np.abs(y - m) < 0.5 - 1e-3
    carry = m == 1e12  # 999999999999.5 and up round to the next decade
    m[carry] = 1e11
    e[carry] += 1
    fast &= (m >= 1e11) & (m < 1e12)
    m[~fast] = 1e11
    # the 12 digits as three 4-digit groups; float division is exact here
    hi = np.floor(m / 1e8)
    mid = np.floor((m - hi * 1e8) / 1e4)
    lo = m - hi * 1e8 - mid * 1e4
    hi, mid, lo = hi.astype(np.intp), mid.astype(np.intp), lo.astype(np.intp)
    tz = zeros4[lo]
    z = np.flatnonzero(lo == 0)
    tz[z] += zeros4[mid[z]] + (mid[z] == 0) * zeros4[hi[z]]
    key = (e - _EXP_MIN) * 12 + tz
    key[~fast] = 0
    # one row per value: its 12 digit bytes, then _LITERALS with its sign
    n, width = x.size, 12 + len(_LITERALS)
    src = np.empty((n, width // 4), np.uint32)
    src[:, 0], src[:, 1], src[:, 2] = digits4[hi], digits4[mid], digits4[lo]
    src[:, 3:] = np.frombuffer(_LITERALS, np.uint32)
    src.view(np.uint8)[np.signbit(x), -1] = ord("-")
    index = layouts.take(key, axis=0)
    index += np.arange(0, n * width, width)[:, None]
    cells = src.view(np.uint8).ravel().take(index).view(f"S{_CELL}").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = _format_each(x[slow].tolist())
    return cells.reshape(values.shape)


def _write_atomic(paths, write):
    """Call write(*handles) on one binary file beside each of paths, then
    rename them all into place.  Each temp file is created as open()
    creates a file, mode 0666 less the umask (mkstemp would make it 0600),
    under a random name that O_EXCL refuses to reuse; on any failure every
    temp file is removed and no path is touched, and an OSError is raised
    again naming the paths, not the temp file.  A path that is a directory
    is refused before the first rename, so several paths commit together
    unless a rename itself fails part way."""
    tmps = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in paths:
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                                   f"tmp{os.urandom(8).hex()}.tmp")
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmps.append(tmp)
                handles.append(stack.enter_context(os.fdopen(fd, "wb")))
            write(*handles)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, f"cannot write {', '.join(map(str, paths))}: "
                                     f"{exc.strerror or exc}") from exc
        raise


def write_text_files(files):
    """files: a dict from path to its text lines, each line ended by a
    newline; all of them are written by one _write_atomic call, so they
    commit together."""
    texts = [("\n".join(lines) + "\n").encode() for lines in files.values()]

    def write(*handles):
        for fh, text in zip(handles, texts):
            fh.write(text)

    _write_atomic(list(files), write)


# per sweep file format: the separator and a row's columns, as indices into
# (freq, re S11, im S11, re S21, im S21, |S21| dB, S21 deg); Touchstone reuses
# S21 as S12 and S11 as S22, the network being reciprocal and symmetric
SWEEP_LAYOUTS = {"csv": (b",", range(7)), "s2p": (b" ", (0, 1, 2, 3, 4, 3, 4, 1, 2))}


def write_sweep(sweep: TwoPortSweep, paths):
    """Write the sweep to paths, a dict from format ("csv", Touchstone v1
    "s2p") to file path, in one pass.  Rows go out CHUNK_ROWS at a time.
    One job turns a chunk into each file's bytes: each column is formatted
    once by _format_12g, however many files and layouts name it; each
    file's rows are one take of its columns' cells, the separators and
    newlines go into the cells' last bytes, and a boolean mask drops the
    NULs.  This thread builds the kernel's tables, then a pool with one
    thread per usable core runs the jobs, at most one more than there are
    threads in flight, and this thread writes their bytes in chunk order,
    so memory stays at that many chunks' text however long the sweep is.
    A sweep of one chunk runs its job here and starts no thread.  On a
    failure the pending jobs are cancelled and no file is touched."""
    headers = {"csv": SWEEP_COLUMNS, "s2p": f"# Hz S RI R {fmt(sweep.z0_ref)}"}
    columns = [sweep.freqs_hz, sweep.s11.real, sweep.s11.imag, sweep.s21.real, sweep.s21.imag]
    if "csv" in paths:
        columns += [sweep.s21_db(), np.degrees(sweep.s21_phase())]
    layouts = [SWEEP_LAYOUTS[kind] for kind in paths]
    starts = range(0, len(columns[0]), CHUNK_ROWS)

    def pack(i):
        cells = _format_12g(np.stack([col[i:i + CHUNK_ROWS] for col in columns], axis=1))
        cells = cells.view(np.uint8).reshape(*cells.shape, _CELL)
        packed = []
        for sep, layout in layouts:
            rows = cells.take(layout, axis=1)
            rows[:, :, -1] = ord(sep)
            rows[:, -1, -1] = ord("\n")
            packed.append(rows[rows != 0])
        return packed

    def write(*handles):
        for fh, kind in zip(handles, paths):
            fh.write(headers[kind].encode() + b"\n")

        def emit(packed):
            for fh, data in zip(handles, packed):
                fh.write(data)

        _tables()  # once, on this thread, so that no two jobs build them
        if len(starts) <= 1:
            for i in starts:
                emit(pack(i))
            return
        # imported here, so a sweep that starts no pool does not load it
        from concurrent.futures import ThreadPoolExecutor

        workers = len(os.sched_getaffinity(0))
        pool = ThreadPoolExecutor(workers)
        pending = collections.deque()
        try:
            for i in starts:
                pending.append(pool.submit(pack, i))
                if len(pending) > workers:
                    emit(pending.popleft().result())
            while pending:
                emit(pending.popleft().result())
        finally:
            # cancels the jobs not yet started and joins the threads
            pool.shutdown(cancel_futures=True)

    _write_atomic(list(paths.values()), write)


def table_csv_lines(header, rows, comments=()):
    """Generic CSV with optional leading '#' comment lines."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    return lines


def keyvalue_lines(pairs):
    return [f"{key} = {val if isinstance(val, str) else fmt(val)}" for key, val in pairs]


# One file each.  The package no longer calls these five: every command
# writes through write_sweep or write_text_files.  The benchmark's tracer
# still looks each one up by name, so they go with ROADMAP item 1, which
# moves the tracer onto those two writers.

def write_sweep_csv(path, sweep: TwoPortSweep):
    """The CSV file alone; see write_sweep."""
    write_sweep(sweep, {"csv": path})


def write_touchstone(path, sweep: TwoPortSweep):
    """The Touchstone v1 file alone (real/imaginary, Hz); see write_sweep."""
    write_sweep(sweep, {"s2p": path})


def write_noise_csv(path, results):
    """results: (offset_hz, contributor, ssb_dbch) rows."""
    write_text_files({path: table_csv_lines(NOISE_COLUMNS, results)})


def write_table_csv(path, header, rows, comments=()):
    write_text_files({path: table_csv_lines(header, rows, comments)})


def write_keyvalues(path, pairs):
    write_text_files({path: keyvalue_lines(pairs)})
