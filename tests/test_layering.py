"""The analytic modules never reach the numerical oracle: it stays an
independent second route to every closed form.  The CLI's start-up
imports stay lean: importing the package loads no module, each command
loads only the modules it runs (no command but validate loads validate
and oracle), neither importing the CLI nor a one-chunk sweep loads a
thread pool and such a sweep starts no thread, validate builds its
pixel without loading the CLI, and it runs without loading numpy.random.
Only the program entry touches the garbage collector, and the console
script is that entry.  Every function the benchmark's tracer wraps
exists, with the parameters its counters read.  Every public function
has a caller outside the tests, the package itself calls all but the
one-file sweep writers the benchmark still wraps, and none takes a z0
beside the line that already holds one."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import asrrkit

ANALYTIC = ["resonator", "active", "noise", "design", "config", "sweepio"]

# the README's reference pixel, matched coupling
README_CONFIG = ("f0 = 200 GHz\nlsrr = 54.12456 pH\nq_off = 10\nq_on = 54\n"
                 "z0 = 50 ohm\nbeta_l = 0.35 rad\n")


def imported_modules(path: Path) -> set[str]:
    """Dotted names a module imports, relative imports resolved against
    the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "asrrkit" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_module_does_not_import_oracle(name):
    path = Path(asrrkit.__file__).parent / f"{name}.py"
    imports = imported_modules(path)
    assert "asrrkit.oracle" not in imports, f"{name} imports the oracle"
    assert not any(m.startswith("asrrkit.oracle.") for m in imports)


def test_detector_sees_oracle_imports():
    # the validation suite does import the oracle, so the parser must see it
    path = Path(asrrkit.__file__).parent / "validate.py"
    assert "asrrkit.oracle" in imported_modules(path)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the oracle's quadrature imports numpy.polynomial when it runs, so no
    # CLI start pays for it; the second print shows the probe sees it
    probe = ("import sys, asrrkit.cli\n"
             "print('numpy.polynomial' in sys.modules)\n"
             "from asrrkit import oracle, validate\n"
             "oracle.time_avg_gm(0.1, validate.Fixture().state.gm)\n"
             "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True"]


def test_validate_leaves_numpy_random_unloaded():
    # the suite draws from Python's seeded generator, so neither importing
    # validate nor running it loads numpy.random; importing it leaves the
    # oracle's lazy numpy.polynomial out too, and the run shows the probe
    # sees a lazily imported module
    probe = ("import sys\n"
             "from asrrkit import validate\n"
             "loaded = lambda: [m in sys.modules for m in ('numpy.random', 'numpy.polynomial')]\n"
             "print(*loaded())\n"
             "assert all(r.passed for r in validate.run_all())\n"
             "print(*loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "False", "False", "True"]


def test_cli_import_leaves_validate_and_oracle_unloaded():
    # only `asrrkit validate` needs them, and it imports them when it runs
    probe = ("import sys, asrrkit.cli\n"
             "loaded = lambda: [m in sys.modules for m in ('asrrkit.validate', 'asrrkit.oracle')]\n"
             "print(*loaded())\n"
             "assert asrrkit.cli.main(['validate', '--quiet']) == 0\n"
             "print(*loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "False", "True", "True"]


def test_cli_import_leaves_concurrent_futures_unloaded(tmp_path):
    # sweepio imports its thread pool where it starts one, so neither a CLI
    # start nor a one-chunk sweep (the README config's 601-point auto grid)
    # pays for it; a sweep of more than one chunk loads it
    config = tmp_path / "pixel.cfg"
    config.write_text(README_CONFIG)
    probe = ("import sys, numpy as np, asrrkit.cli\n"
             "from asrrkit.resonator import TwoPortSweep\n"
             "from asrrkit.sweepio import CHUNK_ROWS, write_sweep\n"
             "print('concurrent.futures' in sys.modules)\n"
             f"assert asrrkit.cli.main(['sweep', '--config', {str(config)!r},\n"
             f"                         '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
             "print('concurrent.futures' in sys.modules)\n"
             "x = np.linspace(1.0, 2.0, 2 * CHUNK_ROWS)\n"
             "write_sweep(TwoPortSweep(x, x + 0j, x + 0j, 50.0),\n"
             f"            {{'csv': {str(tmp_path / 's.csv')!r}}})\n"
             "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "False", "True"]


def test_one_chunk_sweep_starts_no_thread(tmp_path, monkeypatch):
    # the README's reference config sweeps its 601-point auto grid, one
    # chunk, in the calling thread; a two-chunk sweep shows the probe
    # counts the pool's threads
    from asrrkit import cli, sweepio
    from asrrkit.resonator import TwoPortSweep

    starts = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: starts.append(thread) or real_start(thread))
    config = tmp_path / "pixel.cfg"
    config.write_text(README_CONFIG)
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path),
                     "--format", "both", "--quiet"]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 602
    assert starts == []
    x = np.linspace(1.0, 2.0, 2 * sweepio.CHUNK_ROWS)
    sweepio.write_sweep(TwoPortSweep(x, x + 0j, x + 0j, 50.0), {"csv": tmp_path / "two.csv"})
    assert starts


def test_package_import_loads_no_submodule():
    probe = "import sys, asrrkit\nprint([m for m in sys.modules if m.startswith('asrrkit.')])\n"
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[0] == "[]"


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # `python -m asrrkit.cli` as runpy runs it, one command after another in
    # one interpreter; the line after noise and snr shows the probe sees a
    # lazily imported module
    config = tmp_path / "pixel.cfg"
    config.write_text(README_CONFIG)
    probe = ("import runpy, sys\n"
             "def run(command):\n"
             f"    sys.argv = ['asrrkit', command, '--config', {str(config)!r},\n"
             f"                '--out', {str(tmp_path)!r}, '--quiet']\n"
             "    try:\n"
             "        runpy.run_module('asrrkit.cli', run_name='__main__', alter_sys=True)\n"
             "    except SystemExit as done:\n"
             "        assert done.code == 0, command\n"
             "for commands in (['sweep', 'match', 'nonlin'], ['noise', 'snr']):\n"
             "    for command in commands:\n"
             "        run(command)\n"
             "    print(*[m in sys.modules for m in ('asrrkit.noise', 'asrrkit.design')])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[:2] == ["False False", "True False"]


def test_program_entry_freezes_its_imports_and_collects_the_rest(tmp_path):
    # `python -m asrrkit.cli` as runpy runs it: no collection starts while
    # the program imports (numpy loaded, nothing frozen yet), and the
    # command runs with the import-time objects frozen, the collector on
    config = tmp_path / "pixel.cfg"
    config.write_text(README_CONFIG)
    probe = ("import gc, runpy, sys\n"
             "during_import = []\n"
             "gc.callbacks.append(lambda phase, info: during_import.append(phase)\n"
             "                    if phase == 'start' and 'numpy' in sys.modules\n"
             "                    and not gc.get_freeze_count() else None)\n"
             f"sys.argv = ['asrrkit', 'sweep', '--config', {str(config)!r},\n"
             f"            '--out', {str(tmp_path)!r}, '--quiet']\n"
             "try:\n"
             "    runpy.run_module('asrrkit.cli', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as done:\n"
             "    assert done.code == 0\n"
             "print(gc.isenabled(), gc.get_freeze_count() > 0, len(during_import))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True", "True", "0"]


def test_library_use_leaves_the_collector_alone(tmp_path):
    # importing the package's modules and calling main() in process touch
    # no collector state: only the program entry, run(), does
    config = tmp_path / "pixel.cfg"
    config.write_text(README_CONFIG)
    probe = ("import gc, asrrkit.cli, asrrkit.validate\n"
             "print(gc.isenabled(), gc.get_freeze_count())\n"
             f"assert asrrkit.cli.main(['snr', '--config', {str(config)!r},\n"
             f"                         '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
             "print(gc.isenabled(), gc.get_freeze_count())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True", "0", "True", "0"]


def test_console_script_is_the_program_entry():
    # the installed `asrrkit` runs what `python -m asrrkit.cli` runs
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["asrrkit"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    assert entry is sys.modules["asrrkit.cli"].run


def test_validate_import_leaves_the_cli_unloaded():
    # validate builds its pixel through config.Pixel, not through the front end
    probe = "import sys, asrrkit.validate\nprint('asrrkit.cli' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False"]


def test_every_tracer_target_resolves():
    # bench/tracer.py looks each target up in sys.modules with a bare
    # getattr, after bench/run.py has imported only inputs and workloads:
    # a module imported lazily or a renamed function would stop
    # `bench/run.py --trace 1` at install.  So the lookup runs in a fresh
    # interpreter after those imports, as the traced run makes it.
    bench = Path(__file__).parents[1] / "bench"
    probe = ("import sys\n"
             f"sys.path.insert(0, {str(bench)!r})\n"
             "import inputs, workloads\n"
             "import tracer\n"
             "print([f'{m}.{f}' for m, f, *_ in tracer.TARGETS\n"
             "       if not callable(getattr(sys.modules.get(f'asrrkit.{m}'), f, None))])\n"
             "t = tracer.Tracer()\n"
             "original = sys.modules['asrrkit.cli'].main\n"
             "t.install()\n"
             "print(sys.modules['asrrkit.cli'].main is not original)\n"
             "t.uninstall()\n"
             "print(sys.modules['asrrkit.cli'].main is original)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[:3] == ["[]", "True", "True"]
    spec = importlib.util.spec_from_file_location("bench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    # each counter reads the wrapped call's arguments by parameter name, so
    # a renamed parameter would stop the traced run with a KeyError
    read_by_counters = set()
    for module, function, _, count in tracer.TARGETS:
        if count is not None:
            arguments = _RecordingArguments()
            count(defaultdict(float), arguments)
            fn = getattr(importlib.import_module(f"asrrkit.{module}"), function)
            assert arguments.read <= set(inspect.signature(fn).parameters), (
                f"{module}.{function}", arguments.read)
            read_by_counters |= arguments.read
    assert read_by_counters == {"freqs", "w", "samples", "sweep", "path"}


def test_bench_import_layer_finds_numpy_under_the_cli_import(tmp_path, monkeypatch):
    # bench/run.py reads numpy's cumulative time from `-X importtime` of
    # `import asrrkit.cli`: a CLI that stops importing numpy stops every
    # `--trace 1` run there with a KeyError
    spec = importlib.util.spec_from_file_location(
        "bench_run", Path(__file__).parents[1] / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    layer = run.import_layer(str(tmp_path / "child.log"))
    assert set(layer) == {"import.python_s", "import.numpy_s", "import.asrrkit_s"}
    assert layer["import.numpy_s"] > 0


def _names_loaded(paths, strings=False) -> set[str]:
    """Every name the modules at paths load, as a bare name or an attribute,
    and with strings every string constant they hold (the tracer names its
    targets as strings)."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                named.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def _public_functions(package) -> list[tuple[str, str]]:
    """(owner, name) of each public function, method and property of the
    modules in package, the owner a module or module.Class."""
    defined = []
    for path in package:
        body = ast.parse(path.read_text()).body
        scopes = [(path.stem, body)] + [(f"{path.stem}.{node.name}", node.body) for node in body
                                        if isinstance(node, ast.ClassDef)
                                        and not node.name.startswith("_")]
        defined += [(owner, node.name) for owner, nodes in scopes for node in nodes
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    return defined


def test_every_public_function_has_a_caller():
    # code that only its own unit test uses has to justify itself: each
    # public function, method and property of the package is named by the
    # package, the benchmark or the README's code blocks, beyond its def.
    # A string names a function only in the benchmark, whose tracer looks
    # its targets up by name; in the package a message or a key is no call
    root = Path(__file__).parents[1]
    package = sorted(Path(asrrkit.__file__).parent.glob("*.py"))
    named = _names_loaded(package) | _names_loaded((root / "bench").glob("*.py"), strings=True)
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (root / "README.md").read_text(), re.S | re.M)
    named.update(re.findall(r"\w+", "\n".join(blocks)))
    defined = _public_functions(package)
    assert len(defined) > 100
    assert [f"{owner}.{name}" for owner, name in defined if name not in named] == []


def test_only_the_one_file_sweep_writers_wait_on_the_benchmark():
    # a ratchet: the public functions no package module names are the five
    # one-file writers that bench/tracer.py still wraps by name.  They go
    # with the next change to the benchmark, which may only shrink this
    # set; a new function that only the benchmark calls fails here
    package = sorted(Path(asrrkit.__file__).parent.glob("*.py"))
    named = _names_loaded(package)
    unnamed = sorted(f"{owner}.{name}" for owner, name in _public_functions(package)
                     if name not in named)
    assert unnamed == ["sweepio.write_keyvalues", "sweepio.write_noise_csv",
                       "sweepio.write_sweep_csv", "sweepio.write_table_csv",
                       "sweepio.write_touchstone"]


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_no_public_api_takes_a_second_z0():
    # a line keeps the z0 it was built from, and a state holds its line, so
    # a z0 passed beside one is a second copy that can disagree with it.
    # The two left bind the benchmark: bench/workloads.py
    # calls s_parameters(z0_ref=) and bench/inputs.py builds DesignSpec(z0=);
    # they go with the next change to the benchmark.  Until then DesignSpec
    # refuses a z0 other than its line's.  Likewise a state holds its
    # block's kf, so no kf is passed beside a state
    found = []
    for path in sorted(Path(asrrkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names = {stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
            else:
                continue
            if (not node.name.startswith("_") and names & {"z0", "z0_ref", "kf"}
                    and names & {"line", "state"}):
                found.append(f"{path.stem}.{node.name}")
    assert sorted(found) == ["design.DesignSpec", "resonator.s_parameters"]


class _AnyArgument:
    """Stands in for every argument a tracer counter reads: an array-like
    sweep, a count and a file path at once."""

    freqs = (0.0, 1.0)

    def __fspath__(self):
        return __file__

    def __radd__(self, other):
        return other


class _RecordingArguments(dict):
    """Bound arguments that note each parameter name a counter looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return _AnyArgument()
