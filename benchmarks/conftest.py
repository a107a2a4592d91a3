"""Shared fixtures for the benchmark harness.

Heavy artifacts (canonical graphs, full sweeps) are computed once per
session and reused by every benchmark; each bench also writes its
regenerated table/figure to ``results/`` so the paper-vs-measured
comparison survives the run.
"""

import pathlib

import pytest

from repro import Session
from repro.frontend import preprocess
from repro.models import CASE_STUDY, PAPER_BENCHMARKS

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def session_compile(canonical, arch, options, cache=False):
    """Compile one canonical graph through the public Session API.

    Benchmarks default to ``cache=False`` so they measure real
    compilation work, matching the historical uncached path.
    """
    return Session(arch, cache=cache).compile(
        canonical, options, assume_canonical=True
    )


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def tinyyolov4_canonical():
    return preprocess(CASE_STUDY.build(), quantization=None).graph


@pytest.fixture(scope="session")
def canonical_benchmarks():
    """Canonical graphs of all Table II benchmarks, keyed by name."""
    return {
        spec.name: preprocess(spec.build(), quantization=None).graph
        for spec in PAPER_BENCHMARKS
    }


def write_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it to stdout."""
    path = results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====\n{text}\n")
