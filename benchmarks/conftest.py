"""Shared infrastructure for the paper-figure benchmarks.

Every figure ``bench_*`` file regenerates one of the paper's tables or
figures: it runs the simulated pipeline over the paper's parameter sweep,
prints the same rows/series the paper reports (``record_result`` also
writes them as text under ``benchmarks/results/``, which git ignores) and
asserts the figure's qualitative shape.  The serving, streaming and
feature-cache scripts are plain scripts, not pytest modules; their SimClock
figures are pinned exactly by ``tests/test_model_pins.py``.  Wall-clock
micro-benchmarks of the one SpGEMM, the SpMM, ITS and bulk sampling
(pytest-benchmark, no backend axis) live in ``bench_kernels.py``;
end-to-end wall-clock numbers come from ``e2e/run.py``.

Figure sweeps run once inside ``benchmark.pedantic(rounds=1)`` so that
``--benchmark-only`` executes them while reporting their (single-shot)
wall time alongside the simulated results.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a named ASCII block to benchmarks/results/ and echo it."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture(scope="session")
def bench_graphs():
    """Sim-scale graphs per workload, generated once per session."""
    from repro.bench import SIM_WORKLOADS, load_bench_graph

    @functools.lru_cache(maxsize=None)
    def _get(name: str):
        wl = SIM_WORKLOADS[name]
        return wl, load_bench_graph(wl)

    return _get
