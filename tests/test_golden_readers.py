"""Outputs of the set-graph readers, pinned on one real compile.

``tinyyolov3`` at 16 extra PEs (wdup+xinf), as ``repro schedule``
compiles it: the command's full stdout with ``--critical-path
--buffers``, and the figures behind it that the summary lines do not
show — each step of the critical path, every tile's buffer peak, and
the cost-model simulation (rows, edge delay, events, stalls).  The
files under ``tests/golden/`` were recorded from the row-by-row
readers these functions replaced, so a reader change that moves any
figure fails here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import critical_path
from repro.arch import paper_case_study
from repro.cli import main
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import build
from repro.sim import NocCostModel, ZeroCostModel, analyze_buffers, simulate

GOLDEN = Path(__file__).parent / "golden"
COMMAND = [
    "schedule", "--model", "tinyyolov3", "--extra-pes", "16", "--critical-path", "--buffers",
]
COLUMNS = ("set_index", "start", "end", "image", "r0", "c0", "r1", "c1")


@pytest.fixture(scope="module")
def compiled():
    canonical = preprocess(build("tinyyolov3"), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return compile_model(
        canonical, paper_case_study(min_pes + 16), ScheduleOptions(), assume_canonical=True
    )


def digest(rows) -> str:
    """SHA-256 of ``rows``' JSON text."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def simulation_record(result) -> dict:
    cols = result.schedule.columns()
    return {
        "finish_cycles": result.finish_cycles,
        "total_edge_delay_cycles": result.total_edge_delay_cycles,
        "events_processed": result.events_processed,
        "per_layer_stall": result.per_layer_stall,
        "rows": len(cols),
        # Row for row, in emission order, each row's layer by name.
        "rows_sha256": digest(
            [[cols.layers[lid] for lid in cols.layer_id.tolist()]]
            + [np.asarray(getattr(cols, name), dtype=np.int64).tolist() for name in COLUMNS]
        ),
    }


def reader_record(compiled) -> dict:
    """Everything the readers compute on ``compiled``, as JSON data."""
    steps = [
        [step.layer, step.set_index, step.start, step.end, step.bound_by]
        for step in critical_path(compiled)
    ]
    return {
        "simulate_noc": simulation_record(
            simulate(compiled, NocCostModel(compiled.mapped, compiled.placement))
        ),
        "simulate_zero_cost": simulation_record(simulate(compiled, ZeroCostModel())),
        "critical_path": {"steps": len(steps), "steps_sha256": digest(steps)},
        "buffer_peaks": {
            str(size): [
                stats.peak_bytes
                for _, stats in sorted(analyze_buffers(compiled, size).tiles.items())
            ]
            for size in (1, 4)
        },
    }


def test_schedule_command_stdout(capsys):
    assert main(COMMAND) == 0
    golden = GOLDEN / "schedule_tinyyolov3_x16.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_reader_figures(compiled):
    golden = json.loads((GOLDEN / "readers_tinyyolov3_x16.json").read_text())
    assert reader_record(compiled) == golden
    assert golden["simulate_noc"]["finish_cycles"] == 16474
    assert golden["simulate_noc"]["total_edge_delay_cycles"] == 23498


def test_loaded_artifact_runs_stage_two_once(compiled, tmp_path, monkeypatch):
    """An artifact saved without dependencies reruns Stage II for its
    first reader only; every reader still reads the pinned figures."""
    from repro.core import pipeline
    from repro.core.pipeline import CompiledModel
    from repro.sim import estimate_energy

    path = tmp_path / "artifact.json"
    compiled.save(str(path))
    loaded = CompiledModel.load(str(path))
    assert loaded.dependencies is None
    calls = []
    stage_two = pipeline.determine_dependencies
    monkeypatch.setattr(
        pipeline, "determine_dependencies", lambda *args: calls.append(args) or stage_two(*args)
    )
    golden = json.loads((GOLDEN / "readers_tinyyolov3_x16.json").read_text())
    assert reader_record(loaded) == golden
    assert estimate_energy(loaded) == estimate_energy(compiled)
    assert len(calls) == 1
    assert loaded.dependencies is None  # the artifact record is unchanged
