"""Reference implementations the tests and benchmarks compare against."""

from .schedulers import (
    cross_layer_schedule,
    cross_layer_schedule_dynamic,
    reference_batch_schedule,
)

__all__ = [
    "cross_layer_schedule",
    "cross_layer_schedule_dynamic",
    "reference_batch_schedule",
]
