"""The three workloads: what one unit runs and how its outputs are checked.

A unit is one CLI command, one export or one suite run.  Each unit can run
as a child process (untraced runs: interpreter start and import included)
or in process (traced runs).  Either way it writes into a fresh output
directory, and ``check`` returns the problems found there; an empty list
means the unit passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from asrrkit import cli, resonator, validate
from asrrkit.resonator import SrrParams, TransmissionLineSection

import inputs
import suite

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TWO_THIRDS_DB = 20.0 * math.log10(2.0 / 3.0)  # |S21(f0)| on the matched locus
S21_TOL_DB = 0.05
LOCUS_TOL = 1e-9
ROW_SAMPLE = 256
# A value printed with 12 significant digits is within half a unit of the
# 12th digit of the exact one: 5e-12 of its magnitude, plus parse rounding.
FMT12_REL_TOL = 5.0001e-12


@dataclass(eq=False)
class Unit:
    label: str
    cli_args: list[str] | None  # None: a suite run
    pixel: inputs.Pixel | None = None


class Workload:
    name = ""
    # Per-layer figures are per pass: one suite run, one export, or one
    # pixel through every CLI command.
    units_per_pass = 1
    # The part of the reference task (reference.py) a unit's time is
    # divided by: "compute" for units that are mostly Python computation,
    # "startup" for units that are mostly interpreter start and import.
    yardstick = "compute"

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "out")
        self.schedule: list[Unit] = []

    def child_argv(self, unit: Unit) -> list[str]:
        if unit.cli_args is None:
            return [sys.executable, os.path.join(BENCH_DIR, "suite.py"), str(self.seed),
                    os.path.join(self.out, "suite.json")]
        return [sys.executable, "-m", "asrrkit.cli", *unit.cli_args]

    def run_in_process(self, unit: Unit) -> int:
        return cli.main(list(unit.cli_args))

    def check(self, unit: Unit, exit_code: int) -> list[str]:
        problems = [] if exit_code == 0 else [f"{unit.label}: exit code {exit_code}"]
        missing = [f for f in self.expected_files(unit)
                   if not os.path.isfile(os.path.join(self.out, f))
                   or os.path.getsize(os.path.join(self.out, f)) == 0]
        if missing:
            return problems + [f"{unit.label}: missing output {', '.join(missing)}"]
        return problems + self.check_outputs(unit)

    def expected_files(self, unit: Unit) -> list[str]:
        raise NotImplementedError

    def check_outputs(self, unit: Unit) -> list[str]:
        raise NotImplementedError

    def _config(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path


class Verify(Workload):
    """The 12-check suite, validate.run_all(seed=<seed>)."""

    name = "verify"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.schedule = [Unit("verify", None)]
        self.suite_records: list[dict] = []

    def run_in_process(self, unit):
        return suite.run(self.seed, os.path.join(self.out, "suite.json"))

    def expected_files(self, unit):
        return ["suite.json"]

    def check_outputs(self, unit):
        with open(os.path.join(self.out, "suite.json")) as fh:
            records = json.load(fh)
        self.suite_records = records
        problems = [f"verify: FAIL {r['name']}: {r['detail']}" for r in records if not r["passed"]]
        if len(records) != len(validate.ALL_CHECKS):
            problems.append(f"verify: {len(records)} checks ran, "
                            f"expected {len(validate.ALL_CHECKS)}")
        return problems


class Export(Workload):
    """`sweep --format both --grid START:STOP:N` of one seeded matched pixel."""

    name = "export"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.spec = inputs.export_input(seed)
        cfg = self._config("export.cfg", self.spec.pixel.text)
        self.schedule = [Unit("export", ["sweep", "--config", cfg, "--out", self.out,
                                         "--format", "both", "--grid", self.spec.grid,
                                         "--quiet"])]
        self.digests: dict[str, str] | None = None

    def expected_files(self, unit):
        return ["sweep.csv", "sweep.s2p"]

    def check_outputs(self, unit):
        blobs = {}
        for name in self.expected_files(unit):
            with open(os.path.join(self.out, name), "rb") as fh:
                blobs[name] = fh.read()
        problems = []
        for name, blob in blobs.items():
            rows = blob.count(b"\n") - 1  # less the header line
            if rows != self.spec.n:
                problems.append(f"export: {name} has {rows} rows, expected {self.spec.n}")
        digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
        if self.digests is None:
            # Repeats are held to the first unit's bytes; only it is parsed.
            self.digests = digests
            if not problems:
                problems += self._check_content(blobs["sweep.csv"].decode(),
                                                blobs["sweep.s2p"].decode())
        elif digests != self.digests:
            problems.append("export: repeat of the same seed is not byte-identical")
        return problems

    def reference(self):
        """The sweep the CLI should write, from the library in process."""
        px = self.spec.pixel
        line = TransmissionLineSection.from_electrical(px.z0, px.beta_l, px.w0, length=30e-6)
        srr = SrrParams(lsrr=px.lsrr, csrr=1.0 / (px.w0 * px.w0 * px.lsrr), q_off=px.q_on,
                        k=resonator.optimum_k_for_q(px.q_on, line, px.w0))
        grid = 2.0 * np.pi * np.linspace(self.spec.f_lo, self.spec.f_hi, self.spec.n)
        return resonator.s_parameters(srr, line, grid, z0_ref=px.z0)

    def _check_content(self, csv_text: str, s2p_text: str) -> list[str]:
        problems = []
        csv_rows = csv_text.split("\n")[1:-1]
        s2p_rows = s2p_text.split("\n")[1:-1]
        for i, row in enumerate(s2p_rows):
            v = row.split(" ")
            if v[5:7] != v[3:5] or v[7:9] != v[1:3]:
                problems.append(f"export: s2p row {i}: S12/S22 differ from S21/S11")
                break
        ref = self.reference()
        phase = np.degrees(np.unwrap(np.angle(ref.s21)))
        mag_db = ref.s21_db()
        rng = np.random.default_rng([self.seed, 3])
        for i in sorted(rng.choice(self.spec.n, ROW_SAMPLE, replace=False)):
            s11, s21 = ref.s11[i], ref.s21[i]
            want_csv = (ref.freqs_hz[i], s11.real, s11.imag, s21.real, s21.imag,
                        mag_db[i], phase[i])
            want_s2p = (ref.freqs_hz[i], s11.real, s11.imag, s21.real, s21.imag,
                        s21.real, s21.imag, s11.real, s11.imag)
            for fname, row, want in (("csv", csv_rows[i].split(","), want_csv),
                                     ("s2p", s2p_rows[i].split(" "), want_s2p)):
                got = [float(x) for x in row]
                if len(got) != len(want) or any(
                        abs(g - w) > FMT12_REL_TOL * abs(w) for g, w in zip(got, want)):
                    problems.append(f"export: {fname} row {i} {row} differs from the model")
        return problems[:5]


class CliMix(Workload):
    """sweep, match, nonlin, noise, snr and design on a few seeded pixels."""

    name = "cli-mix"
    COMMANDS = {
        "sweep": ["sweep.csv"],
        "match": ["match_locus.csv", "s11_contours.csv"],
        "nonlin": ["nonlin.csv"],
        "noise": ["phase_noise.csv", "pm_to_am.csv"],
        "snr": ["snr.txt"],
        "design": ["design.txt", "design_report.txt"],
    }
    units_per_pass = len(COMMANDS)
    yardstick = "startup"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        for i, (pixel, text) in enumerate(inputs.cli_mix_pixels(seed)):
            cfg = self._config(f"pixel{i}.cfg", text)
            self.schedule += [Unit(command, [command, "--config", cfg, "--out", self.out,
                                             "--quiet"], pixel)
                              for command in self.COMMANDS]

    def expected_files(self, unit):
        return self.COMMANDS[unit.label]

    def check_outputs(self, unit):
        pixel = unit.pixel
        if unit.label == "sweep":
            with open(os.path.join(self.out, "sweep.csv")) as fh:
                header, *rows = fh.read().split("\n")[:-1]
            cols = header.split(",")
            data = np.array([[float(x) for x in r.split(",")] for r in rows])
            i0 = int(np.argmin(np.abs(data[:, cols.index("freq_hz")] - pixel.f0)))
            s21_db = data[i0, cols.index("mag_s21_db")]
            if not abs(s21_db - TWO_THIRDS_DB) <= S21_TOL_DB:
                return [f"sweep: |S21(f0)| = {s21_db} dB, want {TWO_THIRDS_DB:.4f} +- {S21_TOL_DB}"]
        if unit.label == "design":
            with open(os.path.join(self.out, "design.txt")) as fh:
                values = dict(line.split(" = ") for line in fh.read().splitlines()
                              if not line.startswith("#"))
            residual = abs(pixel.beta_l * float(values["k"]) ** 2 * float(values["q_on"]) - 1.0)
            if not residual <= LOCUS_TOL:
                return [f"design: off the matched locus, |beta_l*k^2*q_on - 1| = {residual:.2e}"]
        return []


WORKLOADS = {w.name: w for w in (Verify, Export, CliMix)}
