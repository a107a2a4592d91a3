"""Property tests over randomly generated CNN graphs.

Hypothesis builds small random models (chains with optional branches,
pooling, stride-2 valid convs, upsampling, concats and residual adds
over projected or identity shortcuts),
and the whole compiler stack must uphold its invariants on every one of
them:

* schedules are dependency- and resource-valid;
* CLSA-CIM never loses to layer-by-layer;
* busy cycles (total work) are conserved across configurations;
* the duplication rewrite preserves numerical semantics;
* Eq. 3 links utilizations and speedups exactly;
* the per-layer dynamic kernel matches the event-loop oracle on sets
  of mixed stripe heights, free and with random edge delays.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    ColumnCostModel,
    cross_layer_schedule,
    cross_layer_schedule_dynamic,
    reference_batch_schedule,
    reference_simulate,
)

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import (
    ScheduleOptions,
    SetGranularity,
    compile_model,
    csr_dynamic_schedule,
    csr_replay,
    determine_dependencies,
    intra_layer_order,
    partition_ofm,
)
from repro.frontend import preprocess
from repro.ir import Executor, GraphBuilder
from repro.mapping import minimum_pe_requirement
from repro.sim import evaluate, speedup_eq3
from repro.verify import assert_schedule


@st.composite
def random_models(draw):
    """A small random CNN with realistic structural variety."""
    b = GraphBuilder("random")
    size = draw(st.sampled_from([8, 12, 16]))
    x = b.input((size, size, 2), name="in")
    current_size = size
    num_blocks = draw(st.integers(1, 3))
    for _ in range(num_blocks):
        choices = ["conv", "branch", "residual", "identity_residual", "upsample_concat"]
        if current_size >= 4:  # room to downsample
            choices += ["conv_pool", "stride2_valid"]
        choice = draw(st.sampled_from(choices))
        channels = draw(st.sampled_from([2, 4, 6]))
        kernel = draw(st.sampled_from([1, 3]))
        if choice == "conv":
            x = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            x = b.relu(x)
        elif choice == "conv_pool":
            x = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            x = b.maxpool(x, 2)
            current_size //= 2
        elif choice == "stride2_valid":
            x = b.conv2d(x, channels, kernel=kernel, strides=2, padding="valid", use_bias=True)
            current_size = (current_size - kernel) // 2 + 1
        elif choice == "branch":
            left = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            right = b.conv2d(x, channels, kernel=1, padding="same", use_bias=True)
            x = b.concat([left, right])
        elif choice == "upsample_concat":
            # YOLO-style neck: upsample a lateral conv, bring it back to
            # this size with a stride-2 conv, concat with the block input.
            lateral = b.conv2d(x, channels, kernel=1, padding="same", use_bias=True)
            up = b.upsample(lateral, 2)
            down = b.conv2d(up, channels, kernel=kernel, strides=2, padding="same",
                            use_bias=True)
            x = b.concat([down, x])
        elif choice == "identity_residual":
            # ResNet's identity shortcut: the skip is the block input itself.
            inner = b.conv2d(
                x, b.graph.shape_of(x).channels, kernel=kernel, padding="same", use_bias=True
            )
            x = b.relu(b.add([inner, x]))
        else:  # residual
            inner = b.conv2d(x, channels, kernel=kernel, padding="same", use_bias=True)
            skip = b.conv2d(x, channels, kernel=1, padding="same", use_bias=True)
            x = b.add([inner, skip])
            x = b.relu(x)
    return b.graph


@settings(max_examples=25, deadline=None)
@given(model=random_models())
def test_property_compiler_invariants(model):
    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 4)

    compiled = {}
    for mapping in ("none", "wdup"):
        for scheduling in ("layer-by-layer", "clsa-cim"):
            options = ScheduleOptions(mapping=mapping, scheduling=scheduling)
            compiled[options.paper_name] = compile_model(
                canonical, arch, options, assume_canonical=True
            )

    # 1. schedule validity (resource + data dependencies)
    for result in compiled.values():
        result.schedule.validate_intra_layer_order()
        if result.dependencies is not None:
            assert_schedule(result.schedule, result.dependencies)

    # 2. cross-layer never loses to layer-by-layer at equal mapping
    assert (
        compiled["xinf"].latency_cycles
        <= compiled["layer-by-layer"].latency_cycles
    )
    assert compiled["wdup+xinf"].latency_cycles <= compiled["wdup"].latency_cycles

    # 3. total work conserved
    totals = set()
    for result in compiled.values():
        busy = result.schedule.busy_cycles()
        totals.add(
            sum(
                result.placement.tilings[layer].num_pes * cycles
                for layer, cycles in busy.items()
            )
        )
    assert len(totals) == 1

    # 4. Eq. 3 is exact
    baseline = evaluate(compiled["layer-by-layer"])
    for name in ("wdup", "xinf", "wdup+xinf"):
        metrics = evaluate(compiled[name])
        assert speedup_eq3(metrics, baseline) == pytest.approx(
            metrics.speedup_over(baseline), rel=1e-9
        )


@settings(max_examples=15, deadline=None)
@given(model=random_models(), batch_size=st.integers(2, 4))
def test_property_csr_and_python_engines_identical(model, batch_size):
    """The columnar kernels match the reference schedulers row for row.

    For every random graph: the static, dynamic and batch schedules and
    the zero-cost simulator replay equal the pure-Python oracles of
    ``tests/oracles`` in emission order, and the replay reproduces the
    analytical makespan.
    """
    from repro.core import cross_layer_schedule_batch
    from repro.sim import simulate

    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 4)

    def rows(schedule):
        return [
            (t.layer, t.set_index, t.image, t.start, t.end, t.rect)
            for t in schedule.tasks
        ]

    for order_mode in ("static", "dynamic"):
        options = ScheduleOptions(order_mode=order_mode)
        compiled = compile_model(canonical, arch, options, assume_canonical=True)
        deps = compiled.dependencies
        if order_mode == "static":
            order = intra_layer_order(compiled.sets, options.intra_layer_policy)
            reference = cross_layer_schedule(compiled.mapped, deps, order)
        else:
            reference = cross_layer_schedule_dynamic(compiled.mapped, deps)
        assert rows(compiled.schedule) == rows(reference)
        assert_schedule(compiled.schedule, deps)

    fast = cross_layer_schedule_batch(compiled.mapped, deps, batch_size)
    slow = reference_batch_schedule(compiled.mapped, deps, batch_size)
    assert rows(fast.schedule) == rows(slow.schedule)
    assert fast.image_spans == slow.image_spans

    replay = simulate(compiled)
    assert replay.finish_cycles == compiled.schedule.makespan
    assert rows(replay.schedule) == rows(reference)


def two_conv_chain():
    """Two convolutions in a chain: with delays of up to 499 cycles
    (seed 0), the second one's sets arrive out of set order."""
    b = GraphBuilder("chain")
    x = b.input((8, 8, 2), name="in")
    x = b.relu(b.conv2d(x, 4, kernel=3, padding="same", use_bias=True))
    b.conv2d(x, 4, kernel=1, padding="same", use_bias=True)
    return b.graph


@settings(max_examples=100, deadline=None)
@given(
    model=random_models(),
    mapping=st.sampled_from(["none", "wdup"]),
    axis=st.sampled_from(["width", "height"]),
    stripes=st.lists(st.sampled_from([1, 2, 3, 5, 16]), min_size=1, max_size=8),
    delays=st.tuples(st.sampled_from([0, 1, 7, 499]), st.integers(0, 2**32 - 1)),
)
@example(model=two_conv_chain(), mapping="none", axis="width", stripes=[1], delays=(499, 0))
def test_property_dynamic_kernel_mixed_stripes(model, mapping, axis, stripes, delays):
    """Ready order per layer equals the global event loop, row for row,
    free and with a delay drawn per edge.

    Base layer ``i`` gets stripe height ``stripes[i % len(stripes)]``,
    so producers and consumers release sets at different rates;
    height-axis duplication runs one layer's stripes in parallel.  Both
    put some layers' ready order out of row-major order, which the
    kernel's heap fallback must follow.  ``delays`` is the largest
    delay and the seed of the column drawn below it: delays put
    arrivals out of order too.
    """
    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    options = ScheduleOptions(mapping=mapping, duplication_axis=axis)
    mapped = compile_model(
        canonical, paper_case_study(min_pes + 4), options, assume_canonical=True
    ).mapped
    shapes = mapped.infer_shapes()
    sets = {
        layer: partition_ofm(
            shapes[layer], SetGranularity(rows_per_set=stripes[i % len(stripes)])
        )
        for i, layer in enumerate(mapped.base_layers())
    }
    deps = determine_dependencies(mapped, sets)

    def rows(schedule):
        return [(t.layer, t.set_index, t.start, t.end, t.rect) for t in schedule.tasks]

    reference = rows(cross_layer_schedule_dynamic(mapped, deps))
    assert rows(csr_dynamic_schedule(deps.arrays)) == reference
    assert rows(csr_replay(deps.arrays, "clsa-cim")[0]) == reference

    largest, seed = delays
    column = np.random.default_rng(seed).integers(0, largest + 1, deps.arrays.num_edges)
    priced = reference_simulate(deps, ColumnCostModel(deps, column))
    schedule, stalls, events = csr_replay(deps.arrays, "clsa-cim", column)
    assert rows(schedule) == rows(priced.schedule)
    assert stalls == priced.per_layer_stall
    assert events == priced.events_processed


@settings(max_examples=15, deadline=None)
@given(model=random_models(), seed=st.integers(0, 10_000))
def test_property_duplication_preserves_semantics(model, seed):
    """The wdup rewrite never changes the network's function."""
    model.initialize_weights(seed=seed)
    canonical = preprocess(model, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + 3)
    compiled = compile_model(
        canonical, arch, ScheduleOptions(mapping="wdup"), assume_canonical=True
    )
    in_shape = canonical.shape_of(canonical.input_names()[0]).hwc
    image = np.random.default_rng(seed).normal(size=in_shape)
    expected = Executor(canonical).run(image)
    actual = Executor(compiled.mapped).run(image)
    expected_list = sorted(expected.values(), key=lambda a: a.shape)
    actual_list = sorted(actual.values(), key=lambda a: a.shape)
    for exp, act in zip(expected_list, actual_list):
        np.testing.assert_allclose(act, exp, atol=1e-10)
