import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from asrrkit.validate import Fixture


@pytest.fixture
def fx():
    """The reference pixel the validation suite checks: the 200 GHz
    REFERENCE_CONFIG (lsrr 54.12456 pH, Q 10 -> 54, matched coupling),
    built by config.Pixel as every command builds its pixel."""
    return Fixture()


@pytest.fixture
def rng():
    return np.random.default_rng(988)


@pytest.fixture
def bench_inputs(monkeypatch):
    """bench/inputs.py, the module that draws the benchmark's pixels."""
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up there
    spec.loader.exec_module(inputs)
    return inputs
