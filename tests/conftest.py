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
