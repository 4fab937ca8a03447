"""Doctest execution for documented modules."""

import doctest

import pytest

import repro.analysis.metrics
import repro.analysis.tables
import repro.geometry.angles
import repro.geometry.points
import repro.knapsack.api
import repro.obs

DOCTEST_MODULES = [
    repro.geometry.angles,
    repro.geometry.points,
    repro.knapsack.api,
    repro.analysis.metrics,
    repro.analysis.tables,
    repro.obs,
]


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=[m.__name__ for m in DOCTEST_MODULES]
)
def test_module_doctests(module):
    """Docstring examples are executable and correct."""
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert results.failed == 0
    assert results.attempted > 0  # the module genuinely has examples

