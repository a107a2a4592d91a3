"""Reference implementations the tests and benchmarks compare against."""

from .dependencies import (
    RectIndex,
    build_set_indexes,
    deps_dict,
    graph_from_deps,
    layer_level_dependencies,
    reference_dependencies,
    set_dependencies,
    trace_to_base,
)
from .schedulers import (
    cross_layer_schedule,
    cross_layer_schedule_dynamic,
    reference_batch_schedule,
)
from .sets import rect_grid, reference_partition
from .simulation import (
    ColumnCostModel,
    ScalarNocCostModel,
    reference_simulate,
    scalar_edge_delays,
)

__all__ = [
    "ColumnCostModel",
    "RectIndex",
    "ScalarNocCostModel",
    "build_set_indexes",
    "cross_layer_schedule",
    "cross_layer_schedule_dynamic",
    "deps_dict",
    "graph_from_deps",
    "layer_level_dependencies",
    "reference_batch_schedule",
    "reference_dependencies",
    "reference_partition",
    "reference_simulate",
    "rect_grid",
    "scalar_edge_delays",
    "set_dependencies",
    "trace_to_base",
]
