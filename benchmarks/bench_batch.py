"""Experiment E9 (extension) — batch pipelining utilization ceiling.

The paper notes that single-inference utilization "usually remains
below 10 %" because late layers hold many PEs but little work.  With
stationary weights, consecutive inferences pipeline naturally; this
bench measures how utilization and throughput scale with batch size on
the TinyYOLOv4 case study (wdup+16 mapping), quantifying the headroom
the paper's observation implies.
"""

from conftest import session_compile, write_artifact

from repro.analysis import format_table
from repro.arch import paper_case_study
from repro.core import ScheduleOptions, cross_layer_schedule_batch
from repro.models import CASE_STUDY
from repro.verify import assert_batch_schedule


def test_batch_pipelining(benchmark, results_dir, tinyyolov4_canonical):
    arch = paper_case_study(CASE_STUDY.min_pes + 16)
    compiled = session_compile(
        tinyyolov4_canonical,
        arch,
        ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
    )
    deps = compiled.dependencies
    busy_per_image = sum(
        compiled.placement.tilings[layer].num_pes * cycles
        for layer, cycles in compiled.schedule.busy_cycles().items()
    )

    def run(batch_size):
        result = cross_layer_schedule_batch(compiled.mapped, deps, batch_size)
        assert_batch_schedule(result, deps)
        utilization = batch_size * busy_per_image / (arch.num_pes * result.makespan)
        return result, utilization

    # benchmark the batch-4 run; evaluate the full scaling curve once
    benchmark.pedantic(lambda: run(4), rounds=1, iterations=1)

    rows = []
    previous_utilization = 0.0
    for batch_size in (1, 2, 4, 8):
        result, utilization = run(batch_size)
        assert utilization > previous_utilization  # batching always helps
        previous_utilization = utilization
        rows.append(
            (
                batch_size,
                result.makespan,
                f"{result.steady_state_interval:.0f}",
                f"{result.throughput_images_per_ms(arch.t_mvm_ns):.2f}",
                f"{100 * utilization:.1f}%",
            )
        )

    # single-image latency must be preserved by pipelining (no priority
    # inversion): image 0 in a batch ends close to the single-image end
    single, _ = run(1)
    batch8, _ = run(8)
    assert batch8.image_spans[0][1] <= 1.25 * single.makespan

    write_artifact(
        results_dir,
        "batch_pipelining.txt",
        "Batch pipelining (TinyYOLOv4, wdup+xinf+16; extension E9)\n"
        + format_table(
            ["Batch", "Makespan (cyc)", "Cycles/image", "Images/ms", "Utilization"],
            rows,
        ),
    )
