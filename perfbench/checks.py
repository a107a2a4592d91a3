"""The correctness gate: every op's output is checked three ways.

1. Against ``expected.json`` in this directory: per cell the latency in
   cycles, utilization, speedup over the model's layer-by-layer
   baseline, energy, and a verify error count of zero.
2. Against the paper's published reference points (hand-written in
   :data:`PAPER`), on the cells where they apply.
3. Across paths: every workload checks against the same expected file,
   so a cell that runs inline, from the store, over HTTP or in a pool
   worker must produce the same numbers.

Integers compare exactly.  Floats compare to a relative 1e-9, tight
enough that any change to the schedule shows, loose enough that a
re-ordered floating-point sum does not.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Mapping, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Table I/II of the paper: base-layer (conv) counts and minimum PEs.
PAPER = {
    "tinyyolov3": {"base_layers": 13, "min_pes": 142},
    "vgg16": {"base_layers": 13, "min_pes": 233},
    "vgg19": {"base_layers": 16, "min_pes": 314},
    "resnet50": {"base_layers": 53, "min_pes": 390},
    "resnet101": {"base_layers": 104, "min_pes": 679},
    "resnet152": {"base_layers": 155, "min_pes": 936},
    "tinyyolov4": {"base_layers": 21, "min_pes": 117},
}
#: Sec. V-A: TinyYOLOv4 utilization layer-by-layer (implied by Eq. 3
#: from Fig. 6c) and with CLSA-CIM (xinf), as (value, tolerance).
TINYYOLOV4_UTILIZATION = {"layer-by-layer": (0.0165, 0.002), "clsa-cim": (0.041, 0.005)}
#: Sec. V-A: at x=16 the first six convs of TinyYOLOv4 are duplicated.
TINYYOLOV4_DUPLICATED_AT_16 = 6

FLOAT_REL = 1e-9


class CheckError(AssertionError):
    """An op produced an output that differs from the reference."""


def cell_key(model: str, pes: int, mapping: str, scheduling: str) -> str:
    return f"{model}|{pes}|{mapping}|{scheduling}"


def load_expected(path: str = EXPECTED_PATH) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _same(field: str, got: Any, want: Any, where: str) -> None:
    if isinstance(want, int) and not isinstance(want, bool):
        ok = got == want
    else:
        ok = math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0)
    if not ok:
        raise CheckError(f"{where}: {field} = {got!r}, expected {want!r}")


class Checker:
    """Checks op outputs against ``expected.json`` and the paper."""

    def __init__(self, expected: Optional[Mapping[str, Any]] = None) -> None:
        data = expected if expected is not None else load_expected()
        self.cells: Mapping[str, Mapping[str, Any]] = data["cells"]
        self.min_pes: Mapping[str, int] = data["min_pes"]

    def expected(self, model: str, pes: int, mapping: str, scheduling: str) -> Mapping[str, Any]:
        key = cell_key(model, pes, mapping, scheduling)
        try:
            return self.cells[key]
        except KeyError:
            raise CheckError(f"{key}: no expected values for this cell") from None

    def check_metrics(
        self,
        model: str,
        pes: int,
        mapping: str,
        scheduling: str,
        metrics: Any,
        energy_uj: Optional[float] = None,
        verify_errors: Optional[int] = None,
        speedup: Optional[float] = None,
    ) -> None:
        """Check one cell's :class:`~repro.sim.metrics.Metrics` (and more).

        ``speedup`` is the program's own figure where it reports one
        (sweeps); otherwise the speedup is derived from the latency.
        """
        where = cell_key(model, pes, mapping, scheduling)
        want = self.expected(model, pes, mapping, scheduling)
        _same("latency_cycles", metrics.latency_cycles, want["latency_cycles"], where)
        _same("num_pes", metrics.num_pes, pes, where)
        _same("utilization", metrics.utilization, want["utilization"], where)
        if speedup is None:
            base = self.expected(model, self.min_pes[model], "none", "layer-by-layer")
            speedup = base["latency_cycles"] / metrics.latency_cycles
        _same("speedup", speedup, want["speedup"], where)
        if energy_uj is not None:
            _same("energy_uj", energy_uj, want["energy_uj"], where)
        if verify_errors is not None:
            _same("verify_errors", verify_errors, want["verify_errors"], where)
        self._check_paper(model, pes, mapping, scheduling, metrics, where)

    def check_latency(self, model: str, pes: int, mapping: str, scheduling: str,
                      latency_cycles: int) -> None:
        """Check a compiled model's makespan (compile-only results)."""
        where = cell_key(model, pes, mapping, scheduling)
        want = self.expected(model, pes, mapping, scheduling)
        _same("latency_cycles", latency_cycles, want["latency_cycles"], where)

    def check_duplication(self, model: str, pes: int, mapping: str, compiled: Any) -> None:
        """Paper: at x=16 the first six TinyYOLOv4 convs are duplicated."""
        if model != "tinyyolov4" or mapping != "wdup" or pes != PAPER[model]["min_pes"] + 16:
            return
        first = compiled.canonical.base_layers()[:TINYYOLOV4_DUPLICATED_AT_16]
        got = list(compiled.duplication.duplicated_layers)
        if got != first:
            raise CheckError(f"tinyyolov4 wdup+16 duplicated {got}, paper says {first}")

    def _check_paper(self, model: str, pes: int, mapping: str, scheduling: str,
                     metrics: Any, where: str) -> None:
        paper = PAPER.get(model)
        if paper is None or mapping != "none" or pes != paper["min_pes"]:
            return
        if scheduling == "layer-by-layer":
            # The baseline maps the canonical graph one-to-one, so its
            # busy table has one entry per base layer.
            _same("base_layers", len(metrics.per_layer_busy), paper["base_layers"], where)
        if model == "tinyyolov4":
            value, tolerance = TINYYOLOV4_UTILIZATION[scheduling]
            if abs(metrics.utilization - value) > tolerance:
                raise CheckError(
                    f"{where}: utilization {metrics.utilization:.4f} is not the "
                    f"paper's {value} +- {tolerance}"
                )


def check_published_minima(specs: Any) -> None:
    """The zoo's Table II rows must carry the paper's numbers."""
    for spec in specs:
        paper = PAPER[spec.name]
        if (spec.base_layers, spec.min_pes) != (paper["base_layers"], paper["min_pes"]):
            raise CheckError(
                f"{spec.name}: zoo says {spec.base_layers} base layers / "
                f"{spec.min_pes} PEs, paper says {paper['base_layers']} / {paper['min_pes']}"
            )
