"""Shared fixtures: fitted models, exact series, and the standard sweeps."""

import numpy as np
import pytest

from starkdim import STANDARD_SWEEP_RANGES, energy_series, standard_model, sweep
from starkdim.coeffs import _energy_table, _symbolic_table
from starkdim.resum import _fitted

# the kept series tables and fits
TABLES = (_energy_table, _symbolic_table, _fitted)

ALPHAS = (3.0, 2.5, 2.0, 1.5)


@pytest.fixture(scope="session")
def models():
    """Fitted continuation models for the four standard dimensions."""
    return {alpha: standard_model(alpha) for alpha in ALPHAS}


@pytest.fixture(scope="session")
def series_map():
    """Order-4 exact energy series for the four standard dimensions."""
    return {alpha: energy_series(alpha, 4) for alpha in ALPHAS}


@pytest.fixture(scope="session")
def standard_sweeps(models):
    """101-point resonance sweeps over the standard field ranges."""
    tops = dict(STANDARD_SWEEP_RANGES)
    return {
        alpha: sweep(models[alpha], np.linspace(0.0, tops[alpha], 101))
        for alpha in ALPHAS
    }


@pytest.fixture
def empty_tables():
    """The kept series tables and fits, emptied for one test, so that a test
    that patches engine internals runs the code it patches.  Yields the
    function that empties them, for a test that fits before it patches."""
    def empty():
        for table in TABLES:
            table.cache_clear()

    empty()
    yield empty
    empty()
