"""Benchmark suite configuration.

Each benchmark regenerates one table/figure of the paper at the 'bench'
profile, times it with pytest-benchmark (single round — these are
macro-benchmarks, minutes not microseconds), prints the paper-style
artefact, and writes it under ``results/``.

Training runs are cached in ``.repro_cache/`` and *shared across
benchmarks* (Table II, Fig. 6 and Fig. 7 reuse the same jobs; Table V
reuses Table IV's), so the full suite costs far less than the sum of its
parts and re-runs are nearly free.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.reporting import write_artefact

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Default architectures per artefact.  Table II / Fig. 6 / Fig. 7 cover
#: both base models (the paper's headline grid); the sweep-style artefacts
#: default to Fed-NCF to keep the suite's wall-clock in budget — every
#: runner accepts an ``archs`` argument for the full grid.
HEADLINE_ARCHS = ("ncf",)
SWEEP_ARCHS = ("ncf",)
GENERALISATION_ARCHS = ("lightgcn",)


@pytest.fixture()
def artifact():
    """Provide a writer that both prints and persists the artefact."""

    def write(name: str, text: str) -> str:
        print()
        print(text)
        write_artefact(RESULTS_DIR, name, text)
        return text

    return write
