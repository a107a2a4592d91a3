"""Golden cells: every compiled cell of ``perfbench/expected.json``, exactly.

The paper tests assert loose bounds (a wdup+32 speedup above 15x, say),
so a change that moves makespans by a few percent would pass them.
This test recompiles the 110 cells the benchmark pins (the Fig. 7 grid
of the Table II models and TinyYOLOv4, and the same grid shape for the
``tiny_*`` service models) the way ``perfbench/make_expected.py`` does,
one ``CompilationCache`` per model and ``Session.compile`` per cell,
and compares latency, utilization, speedup, energy and the verifier's
error count with ``==``: JSON floats round-trip exactly.  It only reads
the file.
"""

import json
from pathlib import Path

import pytest

from repro import Session
from repro.analysis.sweep import grid_tasks
from repro.arch.presets import paper_case_study
from repro.core.cache import CompilationCache
from repro.core.pipeline import ScheduleOptions, preprocess_stage
from repro.models.zoo import CASE_STUDY, build
from repro.sim.energy import estimate_energy
from repro.verify.engine import verify_compiled

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)


@pytest.mark.parametrize("model", sorted(EXPECTED["min_pes"]))
def test_golden_cells(model):
    cache = CompilationCache()
    canonical = preprocess_stage(build(model), cache)
    min_pes = EXPECTED["min_pes"][model]
    base_cycles = None
    for task in grid_tasks(CASE_STUDY):
        pes = min_pes + task.extra_pes
        compiled = Session(paper_case_study(pes), cache=cache).compile(
            canonical,
            ScheduleOptions(mapping=task.mapping, scheduling=task.scheduling),
            assume_canonical=True,
        )
        metrics = compiled.evaluate()
        if base_cycles is None:
            base_cycles = metrics.latency_cycles
        expected = EXPECTED["cells"][f"{model}|{pes}|{task.mapping}|{task.scheduling}"]
        assert {
            "latency_cycles": metrics.latency_cycles,
            "utilization": metrics.utilization,
            "speedup": base_cycles / metrics.latency_cycles,
            "energy_uj": estimate_energy(compiled).total_uj,
            "verify_errors": len(verify_compiled(compiled).errors),
        } == expected


def test_every_cell_compiled():
    assert len(EXPECTED["cells"]) == len(grid_tasks(CASE_STUDY)) * len(EXPECTED["min_pes"])
