"""``BENCHMARK.json`` (workloads and metric table) and the tail rule."""

from __future__ import annotations

import json
import math
import os
from typing import Any, Optional, Sequence

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``: the workloads and the metric table."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``"end_to_end"`` or ``"per_layer"`` metrics,
    in the order ``BENCHMARK.json`` lists them."""
    return {metric["name"]: metric["unit"] for metric in benchmark()[kind]}


def tail(values: Sequence[float]) -> tuple[Optional[int], float]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` using nearest-rank percentiles: at
    percentile ``p`` the value has rank ``ceil(p/100 * n)`` and
    ``n - rank`` samples lie beyond it.  With fewer than 20 samples no
    percentile from the 50th up qualifies; the result is then
    ``(None, max)`` so callers can flag it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1]
    return None, ordered[-1]
