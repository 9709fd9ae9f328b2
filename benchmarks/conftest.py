"""Configuration for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Every benchmark regenerates one experiment (E1–E13, indexed in
``repro.analysis.experiments.catalog``) and prints the resulting table
(visible with ``-s`` or in the captured output on failure); the row data is
also attached to the pytest-benchmark ``extra_info`` so it ends up in
``--benchmark-json`` exports.
"""

import pathlib

import pytest


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start every benchmark session with an empty ``results/tables.txt``."""
    results = pathlib.Path(__file__).resolve().parent / "results" / "tables.txt"
    if results.exists():
        results.unlink()
    yield
