"""Analysis: sweeps, tables, and reports regenerating the paper's artifacts."""

from .critical_path import (
    CriticalStep,
    critical_layer_summary,
    critical_path,
    format_critical_path,
)
from .export import CSV_HEADER, sweep_to_csv, sweep_to_json
from .frontier import frontier_report, frontier_to_csv, frontier_to_json
from .report import (
    fig6c_report,
    fig7a_report,
    fig7b_report,
    headline_summary,
    layer_utilization_report,
)
from .sweep import (
    PAPER_XS,
    ConfigPoint,
    EvalTask,
    FailedPoint,
    SweepResult,
    SweepTask,
    TaskEval,
    grid_tasks,
)
from .tables import duplication_table, format_table, table1, table2

__all__ = [
    "CSV_HEADER",
    "ConfigPoint",
    "CriticalStep",
    "EvalTask",
    "FailedPoint",
    "PAPER_XS",
    "SweepResult",
    "SweepTask",
    "TaskEval",
    "grid_tasks",
    "critical_layer_summary",
    "critical_path",
    "duplication_table",
    "fig6c_report",
    "fig7a_report",
    "fig7b_report",
    "format_critical_path",
    "format_table",
    "frontier_report",
    "frontier_to_csv",
    "frontier_to_json",
    "headline_summary",
    "layer_utilization_report",
    "sweep_to_csv",
    "sweep_to_json",
    "table1",
    "table2",
]
