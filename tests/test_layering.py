"""The analytic modules never reach the numerical oracle: it stays an
independent second route to every closed form.  And the CLI's start-up
imports stay lean."""

import ast
import os
import subprocess
import sys
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
             "oracle.time_avg_gm(0.1, validate.Fixture().state().gm)\n"
             "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(asrrkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True"]
