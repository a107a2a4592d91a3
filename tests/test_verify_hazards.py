"""Mutation corpus for the vectorized schedule hazard detector.

Compiles both zoo case-study models under both Stage IV engines,
asserts the verifier reports **zero diagnostics** on clean compiles
(no false positives) and on save→load round trips, then injects one
seeded mutation per hazard class and asserts the matching named rule
fires:

* ``schedule.raw-race``       — a consumer starts before its producer ends
* ``schedule.exclusivity``    — two sets of one layer overlap in time
* ``schedule.coverage``       — a set is missing / scheduled twice
* ``schedule.duration``       — duration ≠ set area, or rect mismatch
* ``schedule.pe-double-book`` — overlapping layers share PEs concurrently
* ``schedule.buffer-capacity``— peak tile occupancy exceeds the buffer
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.arch import paper_case_study
from repro.core.schedule import Schedule
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import build
from repro.session import Session
from repro.verify import (
    Severity,
    assert_arrays_schedule,
    assert_batch_arrays_schedule,
    assert_schedule,
    verify_artifact,
    verify_compiled,
)

ZOO = ("tinyyolov3", "tinyyolov4")
ENGINES = ("csr", "python")


def roomy_arch(num_pes):
    """Paper architecture with 1 MiB tile buffers.

    The paper's 64 KB buffers overflow on the zoo models (an expected
    advisory finding); the mutation corpus needs a baseline with zero
    diagnostics so every post-mutation diagnostic is attributable.
    """
    arch = paper_case_study(num_pes)
    tile = dataclasses.replace(
        arch.tile, input_buffer_bytes=1 << 20, output_buffer_bytes=1 << 20
    )
    return dataclasses.replace(arch, tile=tile)


@functools.lru_cache(maxsize=None)
def compile_zoo(model: str, engine: str):
    canonical = preprocess(build(model), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    session = Session(roomy_arch(min_pes + 16))
    from repro.core.pipeline import ScheduleOptions

    return session.compile(
        canonical, ScheduleOptions(engine=engine), assume_canonical=True
    )


@pytest.fixture(scope="module")
def compiled():
    """The mutation target: tinyyolov3 on the csr engine."""
    return compile_zoo("tinyyolov3", "csr")


# ---------------------------------------------------------------------------
# mutation helpers
# ---------------------------------------------------------------------------


def with_columns(compiled, cols):
    """A CompiledModel whose schedule is ``cols`` (natively columnar)."""
    schedule = Schedule(compiled.schedule.policy, columns=cols)
    return dataclasses.replace(compiled, schedule=schedule)


def row_of(cols, layer: str, set_index: int) -> int:
    names = [cols.layers[lid] for lid in cols.layer_id.tolist()]
    for i, (name, si) in enumerate(zip(names, cols.set_index.tolist())):
        if name == layer and si == set_index:
            return i
    raise AssertionError(f"no row for ({layer}, {set_index})")


def first_dependent_edge(arrays):
    """A (producer gid, consumer gid) data-dependency edge."""
    for gid in range(arrays.num_sets):
        lo, hi = int(arrays.indptr[gid]), int(arrays.indptr[gid + 1])
        if hi > lo:
            return int(arrays.indices[lo]), gid
    raise AssertionError("set graph has no dependency edges")


def shifted(cols, row: int, new_start: int):
    """Columns with one row moved to ``new_start`` (duration kept)."""
    start = cols.start.copy()
    end = cols.end.copy()
    duration = int(end[row] - start[row])
    start[row] = new_start
    end[row] = new_start + duration
    return dataclasses.replace(cols, start=start, end=end)


# ---------------------------------------------------------------------------
# zero false positives on clean compiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ZOO)
@pytest.mark.parametrize("engine", ENGINES)
def test_clean_zoo_compile_has_zero_diagnostics(model, engine):
    report = verify_compiled(compile_zoo(model, engine))
    assert report.clean, report.format()
    assert len(report) == 0
    for rule in (
        "schedule.raw-race",
        "schedule.exclusivity",
        "schedule.coverage",
        "schedule.duration",
        "schedule.pe-double-book",
        "schedule.buffer-capacity",
    ):
        assert rule in report.rules_run


@pytest.mark.parametrize("model", ZOO)
def test_roundtripped_artifact_verifies_clean(model, tmp_path):
    from repro.ir import save_compiled

    compiled = compile_zoo(model, "csr")
    path = tmp_path / f"{model}.json"
    save_compiled(compiled, path)
    report = verify_artifact(path)
    assert report.clean, report.format()


def test_paper_buffers_warn_but_do_not_fail():
    canonical = preprocess(build("tinyyolov3"), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    compiled = Session(paper_case_study(min_pes + 16)).compile(
        canonical, assume_canonical=True
    )
    report = verify_compiled(compiled)
    assert report.ok  # warnings only
    assert not report.clean
    assert report.fired_rules() == ("schedule.buffer-capacity",)
    diag = report.by_rule("schedule.buffer-capacity")[0]
    assert diag.severity is Severity.WARNING
    assert "exceeds capacity" in diag.message
    assert "input_buffer_bytes" in (diag.hint or "")


# ---------------------------------------------------------------------------
# one mutation per hazard class
# ---------------------------------------------------------------------------


class TestMutations:
    def test_raw_race(self, compiled):
        arrays = compiled.dependencies.arrays
        producer, consumer = first_dependent_edge(arrays)
        cols = compiled.schedule.columns()
        row = row_of(
            cols,
            arrays.layers[int(arrays.layer_of[consumer])],
            int(arrays.set_index[consumer]),
        )
        mutated = with_columns(compiled, shifted(cols, row, 0))
        report = verify_compiled(mutated, rules=("schedule.raw-race",))
        assert report.fired_rules() == ("schedule.raw-race",)
        diags = report.by_rule("schedule.raw-race")
        assert any("data dependency violated" in d.message for d in diags)
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_exclusivity(self, compiled):
        cols = compiled.schedule.columns()
        # two sets of the same layer
        lid = int(np.bincount(cols.layer_id).argmax())
        rows = np.flatnonzero(cols.layer_id == lid)[:2]
        assert len(rows) == 2
        mutated = with_columns(
            compiled, shifted(cols, int(rows[1]), int(cols.start[rows[0]]))
        )
        report = verify_compiled(mutated, rules=("schedule.exclusivity",))
        [diag] = report.by_rule("schedule.exclusivity")
        assert "resource violation" in diag.message
        assert diag.location.layer == cols.layers[lid]

    def test_coverage_missing_set(self, compiled):
        cols = compiled.schedule.columns()
        keep = {
            f: getattr(cols, f)[1:]
            for f in ("layer_id", "set_index", "start", "end", "image",
                      "r0", "c0", "r1", "c1")
        }
        mutated = with_columns(compiled, dataclasses.replace(cols, **keep))
        report = verify_compiled(mutated, rules=("schedule.coverage",))
        assert any(
            "missing from schedule" in d.message
            for d in report.by_rule("schedule.coverage")
        )

    def test_coverage_duplicate_set(self, compiled):
        cols = compiled.schedule.columns()
        doubled = {
            f: np.concatenate([getattr(cols, f), getattr(cols, f)[:1]])
            for f in ("layer_id", "set_index", "start", "end", "image",
                      "r0", "c0", "r1", "c1")
        }
        mutated = with_columns(compiled, dataclasses.replace(cols, **doubled))
        report = verify_compiled(mutated, rules=("schedule.coverage",))
        assert any(
            "scheduled more than once" in d.message
            for d in report.by_rule("schedule.coverage")
        )

    def test_duration_mismatch(self, compiled):
        cols = compiled.schedule.columns()
        end = cols.end.copy()
        end[0] += 5
        mutated = with_columns(compiled, dataclasses.replace(cols, end=end))
        report = verify_compiled(mutated, rules=("schedule.duration",))
        assert any(
            "does not equal the set area" in d.message
            for d in report.by_rule("schedule.duration")
        )

    def test_rect_mismatch(self, compiled):
        cols = compiled.schedule.columns()
        r1 = cols.r1.copy()
        r1[0] += 1
        start = cols.start.copy()
        end = cols.end.copy()
        end[0] += int(r1[0] - cols.r1[0]) * int(cols.c1[0] - cols.c0[0])
        mutated = with_columns(
            compiled, dataclasses.replace(cols, r1=r1, start=start, end=end)
        )
        report = verify_compiled(mutated, rules=("schedule.duration",))
        assert any(
            "does not match the Stage I set rectangle" in d.message
            for d in report.by_rule("schedule.duration")
        )

    def test_pe_double_booking(self, compiled):
        # Cross-layer schedules overlap consecutive layers in time, so
        # colliding their PE ranges manufactures a double-booking.
        stats = compiled.schedule.per_layer_stats()
        layers = [l for l in compiled.placement.pe_ranges if l in stats]
        pair = None
        for a in layers:
            for b in layers:
                if a < b and stats[a][0] < stats[b][1] and stats[b][0] < stats[a][1]:
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None, "no temporally overlapping layer pair"
        a, b = pair
        ranges = dict(compiled.placement.pe_ranges)
        ranges[b] = ranges[a]
        placement = dataclasses.replace(compiled.placement, pe_ranges=ranges)
        mutated = dataclasses.replace(compiled, placement=placement)
        report = verify_compiled(mutated, rules=("schedule.pe-double-book",))
        assert report.fired_rules() == ("schedule.pe-double-book",)
        diag = report.by_rule("schedule.pe-double-book")[0]
        assert "PE double-booking" in diag.message
        assert diag.location.pe is not None

    def test_mutation_summary_caps_detail(self, compiled):
        """Mass corruption collapses into a summarizing diagnostic."""
        cols = compiled.schedule.columns()
        start = np.zeros_like(cols.start)
        end = start + (cols.end - cols.start)
        mutated = with_columns(
            compiled, dataclasses.replace(cols, start=start, end=end)
        )
        report = verify_compiled(mutated, rules=("schedule.raw-race",))
        diags = report.by_rule("schedule.raw-race")
        assert diags
        assert len(diags) <= 9  # MAX_DETAIL + 1 summary line
        assert any("more" in d.message for d in diags)


# ---------------------------------------------------------------------------
# raising wrappers (legacy entry points route through the same detector)
# ---------------------------------------------------------------------------


class TestRaisingWrappers:
    def test_assert_schedule_clean(self, compiled):
        assert_schedule(compiled.schedule, compiled.dependencies)

    def test_assert_schedule_raises_on_race(self, compiled):
        arrays = compiled.dependencies.arrays
        _, consumer = first_dependent_edge(arrays)
        cols = compiled.schedule.columns()
        row = row_of(
            cols,
            arrays.layers[int(arrays.layer_of[consumer])],
            int(arrays.set_index[consumer]),
        )
        bad = Schedule(compiled.schedule.policy, columns=shifted(cols, row, 0))
        with pytest.raises(AssertionError, match="data dependency violated"):
            assert_schedule(bad, compiled.dependencies)

    def test_assert_arrays_schedule(self, compiled):
        arrays = compiled.dependencies.arrays
        cols = compiled.schedule.columns()
        # scatter row intervals onto gid order
        start = np.empty(arrays.num_sets, dtype=np.int64)
        end = np.empty(arrays.num_sets, dtype=np.int64)
        for i in range(len(cols)):
            layer = cols.layers[int(cols.layer_id[i])]
            lid = arrays.layers.index(layer)
            gid = int(arrays.offsets[lid]) + int(cols.set_index[i])
            start[gid] = cols.start[i]
            end[gid] = cols.end[i]
        assert_arrays_schedule(arrays, start, end)
        bad = start.copy()
        _, consumer = first_dependent_edge(arrays)
        bad[consumer] = 0
        with pytest.raises(AssertionError, match="data dependency violated"):
            assert_arrays_schedule(
                arrays, bad, bad + (end - start)
            )

    def test_batch_schedule_validates_by_default(self, compiled):
        from repro.core.kernels import csr_batch_schedule

        arrays = compiled.dependencies.arrays
        schedule, spans = csr_batch_schedule(arrays, 2)  # validate=True default
        assert len(spans) == 2

    def test_assert_batch_arrays_schedule_raises(self, compiled):
        from repro.core.kernels import csr_batch_schedule

        arrays = compiled.dependencies.arrays
        schedule, _ = csr_batch_schedule(arrays, 2)
        cols = schedule.columns()
        n = arrays.num_sets
        start = np.empty(2 * n, dtype=np.int64)
        end = np.empty(2 * n, dtype=np.int64)
        for i in range(len(cols)):
            layer = cols.layers[int(cols.layer_id[i])]
            lid = arrays.layers.index(layer)
            gid = int(arrays.offsets[lid]) + int(cols.set_index[i])
            slot = int(cols.image[i]) * n + gid
            start[slot] = cols.start[i]
            end[slot] = cols.end[i]
        assert_batch_arrays_schedule(arrays, 2, start, end)
        _, consumer = first_dependent_edge(arrays)
        duration = end[n + consumer] - start[n + consumer]
        start[n + consumer] = 0
        end[n + consumer] = duration
        with pytest.raises(
            AssertionError, match="batch data dependency violated for image 1"
        ):
            assert_batch_arrays_schedule(arrays, 2, start, end)
