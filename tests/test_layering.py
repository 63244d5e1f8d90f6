"""The analytic modules never reach the numerical oracle: it stays an
independent second route to every closed form.  The CLI's start-up
imports stay lean: no command but validate loads validate and oracle,
and validate builds its pixel without loading the CLI.  And every
function the benchmark's tracer wraps exists, with the parameters its
counters read."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import asrrkit

ANALYTIC = ["resonator", "active", "noise", "design", "config", "sweepio"]


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
