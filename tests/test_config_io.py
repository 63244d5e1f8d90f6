import dataclasses
import functools
import math
import os
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from asrrkit import sweepio
from asrrkit.config import KEYS, ConfigError, parse_config_text, parse_quantity, read
from asrrkit.design import DesignSpec
from asrrkit.resonator import TwoPortSweep, s_parameters
from asrrkit.sweepio import (
    CHUNK_ROWS,
    SWEEP_COLUMNS,
    write_sweep,
    write_sweep_csv,
    write_touchstone,
)


class TestQuantities:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("200 GHz", 200e9),
            ("200GHz", 200e9),
            ("54.1 pH", 54.1e-12),
            ("11.7 fF", 11.7e-15),
            ("50 ohm", 50.0),
            ("2 kohm", 2e3),
            ("0.35 rad", 0.35),
            ("30 um", 30e-6),
            ("1.2 mS", 1.2e-3),
            ("300 mV", 0.3),
            ("10 uW", 10e-6),
            ("250 uA/V^2", 250e-6),
            ("1e-10", 1e-10),
            ("-3.5", -3.5),
        ],
    )
    def test_parse(self, text, value):
        assert parse_quantity(text) == pytest.approx(value, rel=1e-12)

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 lightyears")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_quantity("fast")

    @pytest.mark.parametrize("text", ["1e999 GHz", "1e999", "1e300 TF", "-1e400 ohm"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(text)


class TestConfigText:
    def test_basic_file(self):
        cfg = parse_config_text(
            """
            # reference pixel
            f0 = 200 GHz
            lsrr = 54.124 pH   # ring inductance
            q_off = 10
            label = nightly
            """
        )
        assert cfg["f0"] == pytest.approx(200e9)
        assert cfg["lsrr"] == pytest.approx(54.124e-12)
        assert cfg["q_off"] == 10
        assert cfg["label"] == "nightly"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("f0 200 GHz")

    def test_read_applies_the_key_table(self):
        cfg = parse_config_text("f0 = 1\nlsrr = text\nq_on = 0\nk = 0\np_in_points = 2.5\n"
                                "offset_max = 1e101\nn_pixels = 3")
        assert read(cfg, "f0") == 1.0 and read(cfg, "k") == 0.0
        assert read(cfg, "n_pixels") == 3 and isinstance(read(cfg, "n_pixels"), int)
        # a default, written once in the table, or None for an absent key
        assert read(cfg, "q_off") == KEYS["q_off"].default == 10.0
        assert read(cfg, "c_asrr") is None
        for key, message in [("beta_l", "missing required config key 'beta_l'"),
                             ("lsrr", "config key 'lsrr' must be numeric"),
                             ("q_on", "q_on must be positive and finite, got 0.0"),
                             ("p_in_points", "p_in_points must be a positive integer"),
                             ("offset_max", "offset_max must be at most 1e+100, got 1e+101")]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                read(cfg, key)
        with pytest.raises(KeyError):
            read(cfg, "zz")  # a key outside the table is no key

    def test_every_default_lies_inside_its_bounds(self):
        for key, (default, lo, hi, _) in KEYS.items():
            if isinstance(default, (int, float)):
                assert (default > 0 if lo is None else lo <= default) and default <= hi, key

    def test_every_design_spec_field_but_line_and_band_is_a_key(self):
        # Pixel.spec reads each by its key name: a field with no key would
        # reach `asrrkit design` as a TypeError traceback
        names = {f.name for f in dataclasses.fields(DesignSpec)} - {"line", "flicker_band"}
        assert names - KEYS.keys() == set()


@pytest.fixture
def small_sweep(fx):
    srr = fx.ring
    line = fx.line
    grid = np.linspace(fx.w0 * 0.99, fx.w0 * 1.01, 21)
    return s_parameters(srr, line, grid, z0_ref=fx.line.z0)


class TestSweepFiles:
    def test_csv_schema_and_roundtrip(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, small_sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,re_s11,im_s11,re_s21,im_s21,mag_s21_db,phase_s21_deg"
        assert len(lines) == 22
        row = [float(v) for v in lines[11].split(",")]
        i = 10
        assert row[0] == pytest.approx(small_sweep.freqs_hz[i], rel=1e-11)
        assert row[1] + 1j * row[2] == pytest.approx(small_sweep.s11[i], rel=1e-11)
        assert row[5] == pytest.approx(20 * math.log10(abs(small_sweep.s21[i])), rel=1e-10)

    def test_csv_deterministic(self, small_sweep, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(p1, small_sweep)
        write_sweep_csv(p2, small_sweep)
        assert p1.read_bytes() == p2.read_bytes()

    def test_touchstone_header_and_symmetry(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.s2p"
        write_touchstone(path, small_sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# Hz S RI R 50"
        fields = [float(v) for v in lines[1].split()]
        assert len(fields) == 9
        # reciprocal symmetric network: S21 duplicated into S12, S11 into S22
        assert fields[3] == fields[5] and fields[4] == fields[6]
        assert fields[1] == fields[7] and fields[2] == fields[8]

    def test_touchstone_parses_with_frequencies_in_hz(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.s2p"
        write_touchstone(path, small_sweep)
        first = [float(v) for v in path.read_text().strip().splitlines()[1].split()]
        assert first[0] == pytest.approx(small_sweep.freqs_hz[0], rel=1e-11)


def _fmt(v):
    return f"{v:.12g}"


def reference_csv(sweep):
    """The per-row writer that the chunked one replaced."""
    mag_db = sweep.s21_db()
    phase_deg = np.degrees(np.unwrap(np.angle(sweep.s21)))
    lines = [SWEEP_COLUMNS]
    for i, f_hz in enumerate(sweep.freqs_hz):
        s11, s21 = sweep.s11[i], sweep.s21[i]
        lines.append(",".join(_fmt(v) for v in (f_hz, s11.real, s11.imag, s21.real, s21.imag,
                                                 mag_db[i], phase_deg[i])))
    return ("\n".join(lines) + "\n").encode()


def reference_touchstone(sweep):
    lines = [f"# Hz S RI R {_fmt(sweep.z0_ref)}"]
    for i, f_hz in enumerate(sweep.freqs_hz):
        s11, s21 = sweep.s11[i], sweep.s21[i]
        lines.append(" ".join(_fmt(v) for v in (f_hz, s11.real, s11.imag, s21.real, s21.imag,
                                                 s21.real, s21.imag, s11.real, s11.imag)))
    return ("\n".join(lines) + "\n").encode()


EXTREMES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]


def extreme_sweep(n, seed=5):
    """n points whose S values hold every value of EXTREMES (n >= 2), the
    rest random over sixty decades, in a seeded order."""
    rng = np.random.default_rng(seed)
    size = 4 * n - len(EXTREMES)
    rest = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
    re11, im11, re21, im21 = rng.permutation(np.concatenate([EXTREMES, rest])).reshape(4, n)
    # complex(), not re + 1j*im, which turns an imaginary -0.0 into 0.0
    return TwoPortSweep(freqs=np.linspace(1e9, 2e12, n),
                        s11=list(map(complex, re11, im11)), s21=list(map(complex, re21, im21)),
                        z0_ref=50.0)


def count_fallbacks(monkeypatch):
    """A list that grows by the number of values each call of the kernel's
    % fallback formats."""
    counts = []
    real_format_each = sweepio._format_each

    def counted(values):
        counts.append(len(values))
        return real_format_each(values)

    monkeypatch.setattr(sweepio, "_format_each", counted)
    return counts


def fail_second_chunk(monkeypatch, failing):
    """Make the failing-th file that sweepio opens raise on its third
    write: after the header and the first chunk, at the second chunk."""
    real_fdopen = os.fdopen
    opened = []

    class FailingSecondChunk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0
            self.fails = len(opened) == failing
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            self.writes += 1
            if self.fails and self.writes == 3:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(sweepio.os, "fdopen",
                        lambda fd, mode: FailingSecondChunk(real_fdopen(fd, mode)))


def old_sweep_files(tmp_path):
    paths = {"csv": tmp_path / "sweep.csv", "s2p": tmp_path / "sweep.s2p"}
    for path in paths.values():
        path.write_bytes(f"old {path.name}\n".encode())
    return paths


def assert_old_sweep_files(tmp_path, paths):
    for path in paths.values():
        assert path.read_bytes() == f"old {path.name}\n".encode()
    assert not list(tmp_path.glob("*.tmp"))


class TestStreamedWriter:
    @pytest.mark.parametrize("n", [2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   int(2.5 * CHUNK_ROWS)])
    def test_bytes_match_the_per_row_writer(self, tmp_path, n):
        sweep = extreme_sweep(n)
        s_values = np.concatenate([sweep.s11.real, sweep.s11.imag, sweep.s21.real,
                                   sweep.s21.imag])
        assert {_fmt(v) for v in EXTREMES} <= {_fmt(v) for v in s_values}
        with np.errstate(divide="ignore", invalid="ignore"):
            write_sweep_csv(tmp_path / "s.csv", sweep)
            write_touchstone(tmp_path / "s.s2p", sweep)
            # and both files from one pass, which formats their shared columns once
            write_sweep(sweep, {"csv": tmp_path / "one.csv", "s2p": tmp_path / "one.s2p"})
            csv = reference_csv(sweep)
        touchstone = reference_touchstone(sweep)
        for name in ("s", "one"):
            assert (tmp_path / f"{name}.csv").read_bytes() == csv
            assert (tmp_path / f"{name}.s2p").read_bytes() == touchstone

    def test_bytes_match_when_every_value_falls_back(self, tmp_path, monkeypatch):
        # frequencies above 1e34 Hz, S values that are zeros, nan, infinities,
        # ties or outside the kernel's window, and an S21 whose dB and phase
        # are each one of -inf, inf, nan, 0 or -0
        n = CHUNK_ROWS + 1
        rng = np.random.default_rng(11)
        s11 = rng.choice(EXTREMES + [123456789012.5, -12345678901.25, 1e-300, -3e300], (n, 2))
        s21 = rng.choice([0j, complex(0.0, -0.0), complex(math.inf, 0.0),
                          complex(math.nan, math.nan)], n)
        sweep = TwoPortSweep(freqs=2 * np.pi * 1e40 * np.arange(1, n + 1),
                             s11=list(map(complex, *s11.T)), s21=s21, z0_ref=50.0)
        fallbacks = count_fallbacks(monkeypatch)
        with np.errstate(divide="ignore", invalid="ignore"):
            write_sweep(sweep, {"csv": tmp_path / "s.csv", "s2p": tmp_path / "s.s2p"})
            csv = reference_csv(sweep)
        assert sum(fallbacks) == 7 * n
        assert (tmp_path / "s.csv").read_bytes() == csv
        assert (tmp_path / "s.s2p").read_bytes() == reference_touchstone(sweep)

    @pytest.mark.parametrize("writer", [write_sweep_csv, write_touchstone])
    def test_failure_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "sweep.out"
        path.write_bytes(b"old bytes\n")
        fail_second_chunk(monkeypatch, 0)
        sweep = extreme_sweep(2 * CHUNK_ROWS)
        with pytest.raises(OSError, match="disk full"), np.errstate(all="ignore"):
            writer(path, sweep)
        assert path.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("failing", [0, 1], ids=["csv-fails", "s2p-fails"])
    def test_failure_mid_stream_of_one_pass_keeps_both_old_files(self, tmp_path, monkeypatch,
                                                                 failing):
        paths = old_sweep_files(tmp_path)
        fail_second_chunk(monkeypatch, failing)
        with pytest.raises(OSError, match="disk full"), np.errstate(all="ignore"):
            write_sweep(extreme_sweep(2 * CHUNK_ROWS), paths)
        assert_old_sweep_files(tmp_path, paths)

    def test_failure_creating_the_second_temp_file_keeps_the_old_files(self, tmp_path,
                                                                        monkeypatch):
        paths = old_sweep_files(tmp_path)
        real_open = os.open
        calls = []

        def second_open_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("no space for the second temp file")
            return real_open(*args)

        monkeypatch.setattr(sweepio.os, "open", second_open_fails)
        with pytest.raises(OSError, match="second temp file"), np.errstate(all="ignore"):
            write_sweep(extreme_sweep(2 * CHUNK_ROWS), paths)
        assert len(calls) == 2
        assert_old_sweep_files(tmp_path, paths)


def late_key_sweep(chunks, seed=9):
    """A sweep of chunks chunks.  All but the last hold random values over
    the kernel's exponent window, both signs; the last holds a value of
    every layout key (1 to 12 significant digits), EXTREMES, subnormals
    and ties in S11, so most keys first appear there.  S21 holds no zero,
    nan or infinity, whose dB and phase would warn."""
    rng = np.random.default_rng(seed)
    n = chunks * CHUNK_ROWS
    sign = rng.choice([-1.0, 1.0], (4, n))
    values = sign * rng.uniform(1, 10, (4, n)) * 10.0 ** rng.integers(-11, 34, (4, n))
    late = np.concatenate([every_layout_key(), EXTREMES, [5e-324, -2.5e-310, 123456789012.5,
                                                         -12345678901.25]])
    values[:2, n - len(late):] = rng.permutation(late), rng.permutation(late)
    values[2:, n - 4:] = [[5e-324, -1e-320, 123456789012.5, -0.5]] * 2
    re11, im11, re21, im21 = values
    return TwoPortSweep(freqs=np.linspace(1e9, 2e12, n),
                        s11=list(map(complex, re11, im11)), s21=list(map(complex, re21, im21)),
                        z0_ref=50.0)


class TestParallelWriter:
    def test_bytes_match_with_every_core_and_late_layout_keys(self, tmp_path, monkeypatch):
        # the chunk jobs run on pool threads, which do not inherit numpy's
        # errstate (a context variable), so the job itself must raise no
        # floating-point warning: none is silenced here
        workers = len(os.sched_getaffinity(0))
        sweep = late_key_sweep(3 * workers + 1)
        head = 3 * workers * CHUNK_ROWS
        early = TwoPortSweep(freqs=sweep.freqs[:head], s11=sweep.s11[:head],
                             s21=sweep.s21[:head], z0_ref=50.0)
        monkeypatch.setattr(sweepio, "_tables", functools.cache(sweepio._tables.__wrapped__))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_sweep(early, {"csv": tmp_path / "early.csv", "s2p": tmp_path / "early.s2p"})
            write_sweep(sweep, {"csv": tmp_path / "s.csv", "s2p": tmp_path / "s.s2p"})
            csv, touchstone = reference_csv(sweep), reference_touchstone(sweep)
        assert (tmp_path / "s.csv").read_bytes() == csv
        assert (tmp_path / "s.s2p").read_bytes() == touchstone
        assert (tmp_path / "early.csv").read_bytes() == reference_csv(early)

    def test_kernel_tables_are_read_only_and_hold_no_lock(self):
        tables = sweepio._tables()
        assert all(isinstance(table, np.ndarray) for table in tables)
        assert not any(table.flags.writeable for table in tables)

    def test_concurrent_kernel_calls_write_percent_12g(self):
        # more threads than cores, switching often, each formatting a value
        # of every layout key at once
        keyed = every_layout_key()
        expect = [b"%.12g" % v for v in keyed.tolist()]
        results = []
        threads = [threading.Thread(target=lambda: results.append(sweepio._format_12g(keyed)))
                   for _ in range(4 * len(os.sched_getaffinity(0)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        assert all(cell_bytes(cells) == expect for cells in results)

    def test_kernel_tables_are_built_once_on_the_writing_thread(self, tmp_path, monkeypatch):
        build_tables, builds = sweepio._tables.__wrapped__, []

        def recorded_build():
            builds.append(threading.get_ident())
            return build_tables()

        # a cold cache, as in a new process
        monkeypatch.setattr(sweepio, "_tables", functools.cache(recorded_build))
        workers = len(os.sched_getaffinity(0))
        write_sweep(late_key_sweep(2 * workers + 2), {"csv": tmp_path / "s.csv"})
        assert builds == [threading.get_ident()]
        assert len(sweepio._tables()[3]) == 552

    def test_failing_job_reaches_the_caller_and_stops_the_pool(self, tmp_path, monkeypatch):
        # at most workers + 1 chunks are in flight: while chunk 0's job
        # sleeps, the idle threads start no chunk past that window, and once
        # chunk 2's job fails no more than workers + 3 of the sweep's chunks
        # start.  A job is known by its chunk's first frequency, not by the
        # order in which the jobs reach the kernel
        paths = old_sweep_files(tmp_path)
        workers = len(os.sched_getaffinity(0))
        sweep = late_key_sweep(2 * workers + 4)
        chunk_of = {f: i for i, f in enumerate(sweep.freqs_hz[::CHUNK_ROWS].tolist())}
        real_format_12g, lock = sweepio._format_12g, threading.Lock()
        started, started_while_first_slept = [], []

        def chunk_0_slow_chunk_2_fails(values):
            chunk = chunk_of[values[0, 0]]
            with lock:
                started.append(chunk)
            if chunk == 0:
                time.sleep(0.2)
                started_while_first_slept.append(len(started))
            if chunk == 2:
                raise RuntimeError("third chunk")
            return real_format_12g(values)

        monkeypatch.setattr(sweepio, "_format_12g", chunk_0_slow_chunk_2_fails)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third chunk"):
            write_sweep(sweep, paths)
        assert threading.active_count() == threads
        assert started_while_first_slept[0] <= workers + 1
        assert len(started) <= workers + 3
        assert_old_sweep_files(tmp_path, paths)


def kernel_cases(rng):
    """Over 1e6 doubles that probe every branch of sweepio._format_12g."""
    n = 280_000
    spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-32, 38, n)  # seventy decades
    powers = np.array([float(f"1e{k}") for k in range(-25, 36)])
    near_powers = [np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)]
    # 13 significant digits ending in 5: ties at the 12th digit, exact in
    # binary, and the nearest doubles to decimal ties, which the kernel's
    # scaling can round onto a half-integer
    mantissas = rng.integers(10**11, 10**12, 10_000) + 0.5
    ties = [mantissas, mantissas * 10, mantissas * 1000, mantissas / 8 + 1e11, [123456789012.5],
            mantissas / 1e3, mantissas / 1e9, mantissas * 1e7]
    carries = np.array([9.9999999999995, 99.99999999999949, 999999999999.5, 9999999999995e20])
    near_carries = [np.nextafter(carries, 0), carries, np.nextafter(carries, np.inf)]
    # every count of significant digits from 1 to 12 and of decimal places from 0 to 12
    plain = rng.uniform(-1, 1, 8_000) * 10.0 ** rng.integers(-6, 14, 8_000)
    rounded = ([[float(f"{v:.{d}g}") for v in plain] for d in range(1, 13)]
               + [np.round(plain, d) for d in range(13)])
    values = np.concatenate([spread, *near_powers, *ties, *near_carries, *rounded, EXTREMES])
    return np.concatenate([values, -values])


def cell_bytes(cells):
    """The kernel's cells as bytes, each with its leading NUL (the sign byte
    of a value that is not negative) and its trailing NULs stripped.  The
    last byte of every cell, the writer's separator slot, is NUL."""
    assert cells.dtype == f"S{sweepio._CELL}"
    assert not cells.view(np.uint8).reshape(-1, sweepio._CELL)[:, -1].any()
    return [cell.removeprefix(b"\0") for cell in cells.ravel().tolist()]


def every_layout_key():
    """One value per layout key of the kernel: each decimal exponent it
    scales, 1 to 12 significant digits (12 to 0 trailing zeros) and either
    sign, and the values that carry past its largest exponent to 1e+34."""
    digits = "123456789123"
    values = [float(f"{digits[0]}.{digits[1:nd]}e{exp}") for exp in range(-11, 34)
              for nd in range(1, 13)] + [np.nextafter(1e34, 0)]
    return np.array(values + [-v for v in values])


def test_kernel_writes_the_bytes_of_percent_12g(monkeypatch):
    values = kernel_cases(np.random.default_rng(2024))
    assert values.size >= 1_000_000
    fallbacks = count_fallbacks(monkeypatch)
    cells = sweepio._format_12g(values.reshape(2, -1))
    assert cells.shape == (2, values.size // 2)
    assert cell_bytes(cells) == [b"%.12g" % v for v in values.tolist()]
    # both paths ran: most values on the numpy path, the rest through %
    assert 0 < sum(fallbacks) < values.size / 2
    # every (exponent, trailing zeros) layout with either sign, each on the
    # numpy path
    keyed = every_layout_key()
    fallbacks.clear()
    assert cell_bytes(sweepio._format_12g(keyed)) == [b"%.12g" % v for v in keyed.tolist()]
    assert not fallbacks
