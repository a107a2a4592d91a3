"""CLSA-CIM core: the four-stage cross-layer scheduler and baselines."""

from .batch import BatchScheduleResult, cross_layer_schedule_batch
from .cache import CompilationCache, StageStats, graph_fingerprint
from .dependencies import (
    DependencyGraph,
    SetRef,
    determine_dependencies,
)
from .intra_layer import ORDER_POLICIES, intra_layer_order
from .kernels import (
    SetGraphArrays,
    csr_batch_schedule,
    csr_dynamic_schedule,
    csr_replay,
    csr_static_schedule,
)
from .layer_by_layer import layer_by_layer_schedule
from .passes import (
    VERIFY_MODES,
    CompilationContext,
    MappingRule,
    Pass,
    PassError,
    PassManager,
    SchedulerRule,
    default_pass_manager,
    default_passes,
    mapping_names,
    register_mapping,
    register_scheduler,
    resolve_mapping,
    resolve_scheduler,
    scheduler_names,
    unregister_mapping,
    unregister_scheduler,
)
from .pipeline import (
    MAPPINGS,
    SCHEDULERS,
    CompiledModel,
    ScheduleOptions,
    compile_model,
    preprocess_stage,
)
from .schedule import Schedule, ScheduleColumns, SetTask
from .sets import (
    FINEST,
    SetGranularity,
    determine_sets,
    partition_ofm,
    validate_partition,
)

__all__ = [
    "BatchScheduleResult",
    "CompilationCache",
    "CompilationContext",
    "CompiledModel",
    "DependencyGraph",
    "FINEST",
    "MAPPINGS",
    "MappingRule",
    "ORDER_POLICIES",
    "Pass",
    "PassError",
    "PassManager",
    "SCHEDULERS",
    "Schedule",
    "ScheduleColumns",
    "ScheduleOptions",
    "SchedulerRule",
    "SetGranularity",
    "SetGraphArrays",
    "SetRef",
    "SetTask",
    "StageStats",
    "VERIFY_MODES",
    "compile_model",
    "csr_batch_schedule",
    "csr_dynamic_schedule",
    "csr_replay",
    "csr_static_schedule",
    "default_pass_manager",
    "default_passes",
    "mapping_names",
    "register_mapping",
    "register_scheduler",
    "resolve_mapping",
    "resolve_scheduler",
    "scheduler_names",
    "unregister_mapping",
    "unregister_scheduler",
    "cross_layer_schedule_batch",
    "determine_dependencies",
    "determine_sets",
    "graph_fingerprint",
    "intra_layer_order",
    "layer_by_layer_schedule",
    "partition_ofm",
    "preprocess_stage",
    "validate_partition",
]
