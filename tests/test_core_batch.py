"""Tests for batch (multi-inference) cross-layer scheduling."""

import pytest

from repro.core import (
    cross_layer_schedule_batch,
    csr_dynamic_schedule,
    determine_dependencies,
    determine_sets,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder
from repro.models import tiny_dual_head, tiny_sequential
from repro.verify import assert_batch_schedule


def make_deps(graph):
    sets = determine_sets(graph)
    return determine_dependencies(graph, sets)


def chain(num_layers=3, size=8):
    b = GraphBuilder("chain")
    x = b.input((size, size, 3), name="in")
    for i in range(num_layers):
        x = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name=f"c{i}")
    return b.graph


class TestBatchScheduling:
    def test_batch_one_equals_dynamic(self):
        g = chain()
        deps = make_deps(g)
        single = csr_dynamic_schedule(deps.arrays)
        batch = cross_layer_schedule_batch(g, deps, batch_size=1)
        assert batch.makespan == single.makespan
        assert len(batch.schedule.tasks) == len(single.tasks)

    def test_all_images_scheduled(self):
        g = chain()
        deps = make_deps(g)
        result = cross_layer_schedule_batch(g, deps, batch_size=3)
        assert len(result.schedule.tasks) == 3 * deps.num_sets()
        assert_batch_schedule(result, deps)

    def test_pipelining_beats_sequential_batches(self):
        """B pipelined images finish well before B sequential runs."""
        g = chain(num_layers=4)
        deps = make_deps(g)
        single = csr_dynamic_schedule(deps.arrays).makespan
        batch = cross_layer_schedule_batch(g, deps, batch_size=4)
        assert batch.makespan < 4 * single

    def test_steady_state_interval(self):
        g = chain(num_layers=3)
        deps = make_deps(g)
        batch = cross_layer_schedule_batch(g, deps, batch_size=6)
        # steady-state rate is bounded below by the bottleneck layer's
        # busy time (64 cycles for an 8x8 OFM)
        assert batch.steady_state_interval >= 64
        assert batch.steady_state_interval <= batch.makespan

    def test_throughput_units(self):
        g = chain()
        deps = make_deps(g)
        batch = cross_layer_schedule_batch(g, deps, batch_size=2)
        per_ms = batch.throughput_images_per_ms(t_mvm_ns=1400.0)
        expected = 1e6 / (batch.steady_state_interval * 1400.0)
        assert per_ms == pytest.approx(expected)

    def test_image_spans_ordered(self):
        g = chain()
        deps = make_deps(g)
        batch = cross_layer_schedule_batch(g, deps, batch_size=4)
        ends = [span[1] for span in batch.image_spans]
        assert ends == sorted(ends)

    def test_utilization_grows_with_batch(self):
        """Batching fills idle PEs: utilization rises with batch size."""
        g = preprocess(tiny_sequential(), quantization=None).graph
        deps = make_deps(g)
        busy_per_image = sum(
            rect.area for rects in deps.sets.values() for rect in rects
        )

        def utilization(batch_size):
            result = cross_layer_schedule_batch(g, deps, batch_size)
            return batch_size * busy_per_image / result.makespan

        assert utilization(4) > utilization(1)

    def test_rejects_bad_batch_size(self):
        g = chain()
        deps = make_deps(g)
        with pytest.raises(ValueError):
            cross_layer_schedule_batch(g, deps, batch_size=0)

    def test_non_sequential_model(self):
        g = preprocess(tiny_dual_head(), quantization=None).graph
        deps = make_deps(g)
        result = cross_layer_schedule_batch(g, deps, batch_size=3)
        assert_batch_schedule(result, deps)
        assert result.makespan > 0

    def test_validator_catches_violation(self):
        g = chain(num_layers=2)
        deps = make_deps(g)
        result = cross_layer_schedule_batch(g, deps, batch_size=2)
        # corrupt one task: shift a dependent set before its producer
        tasks = sorted(
            (t for t in result.schedule.tasks if t.layer == "c1" and t.image == 1),
            key=lambda t: t.start,
        )
        from repro.core import Schedule, SetTask

        victim = tasks[-1]
        rows = [t for t in result.schedule.tasks if t != victim]
        rows.append(
            SetTask(victim.layer, victim.set_index, victim.rect, 0,
                    victim.rect.area, image=victim.image)
        )
        result.schedule = Schedule(result.schedule.policy, tasks=rows)
        with pytest.raises(AssertionError):
            assert_batch_schedule(result, deps)
