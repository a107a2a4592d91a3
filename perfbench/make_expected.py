"""Regenerate ``expected.json``, the benchmark's golden cell values.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py

It compiles every cell any workload can produce (the Fig. 7 grid of
the six Table II models plus TinyYOLOv4, and the same grid shape for
the ``tiny_*`` zoo models that the service mix draws from) one cell at
a time through ``Session.compile``, and records latency, utilization,
speedup, energy and the verifier's error count.  Only regenerate it
when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import json
import os
import sys

from checks import EXPECTED_PATH, cell_key
from workloads import GRID_MODELS, SERVICE_MODELS, grid_shape

from repro import Session
from repro.arch.presets import paper_case_study
from repro.core.cache import CompilationCache
from repro.core.pipeline import ScheduleOptions, preprocess_stage
from repro.mapping.tiling import minimum_pe_requirement
from repro.models.zoo import build
from repro.sim.energy import estimate_energy
from repro.verify.engine import verify_compiled


def main() -> int:
    cells: dict[str, dict] = {}
    min_pes: dict[str, int] = {}
    models = GRID_MODELS + tuple(name for name in SERVICE_MODELS if name not in GRID_MODELS)
    for model in models:
        cache = CompilationCache()
        canonical = preprocess_stage(build(model), cache)
        min_pes[model] = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        base_cycles = None
        for pes, mapping, scheduling in grid_shape(min_pes[model]):
            session = Session(paper_case_study(pes), cache=cache)
            compiled = session.compile(
                canonical, ScheduleOptions(mapping=mapping, scheduling=scheduling),
                assume_canonical=True,
            )
            metrics = compiled.evaluate()
            if base_cycles is None:
                base_cycles = metrics.latency_cycles
            cells[cell_key(model, pes, mapping, scheduling)] = {
                "latency_cycles": metrics.latency_cycles,
                "utilization": metrics.utilization,
                "speedup": base_cycles / metrics.latency_cycles,
                "energy_uj": estimate_energy(compiled).total_uj,
                "verify_errors": len(verify_compiled(compiled).errors),
            }
        print(f"{model}: min_pes={min_pes[model]}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"min_pes": min_pes, "cells": cells}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cells)} cells to {os.path.relpath(EXPECTED_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
