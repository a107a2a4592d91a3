"""Vectorized schedule hazard detection over columnar schedules.

The centerpiece of the static verifier: every hazard class a Stage IV
schedule can exhibit — RAW dependency races, PE double-booking,
intra-layer order violations, buffer over-capacity windows — is
detected in O(E) NumPy passes over :class:`ScheduleColumns` and the
CSR :class:`SetGraphArrays`, with no discrete-event replay.  The
checks work identically on freshly compiled schedules and on loaded
:class:`~repro.core.pipeline.CompiledModel` artifacts (whose
dependency graph is recomputed by the engine when the artifact was
saved without one).

Two layers of API live here:

* **rules** (``schedule.*``), registered with the verifier registry,
  which report structured :class:`Diagnostic` values; and
* **raising wrappers** (:func:`assert_arrays_schedule`,
  :func:`assert_batch_arrays_schedule`, :func:`assert_schedule`,
  :func:`assert_batch_schedule`) used by the scheduler kernels for
  cheap self-validation, raising ``AssertionError``.

This module stays import-light at runtime (NumPy + the diagnostics
model); core scheduling types appear only under ``TYPE_CHECKING`` so
the kernels can import the wrappers lazily without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from .diagnostics import Diagnostic, Location, Severity
from .registry import builtin

if TYPE_CHECKING:
    from ..core.batch import BatchScheduleResult
    from ..core.dependencies import DependencyGraph
    from ..core.kernels import SetGraphArrays
    from ..core.schedule import Schedule, ScheduleColumns
    from ..mapping.placement import Placement
    from .engine import VerifyContext

#: Per-rule cap on itemized diagnostics; beyond it one summary
#: diagnostic reports the remaining count.
MAX_DETAIL = 8


def _summarize(
    diags: list[Diagnostic], rule: str, total: int, noun: str
) -> list[Diagnostic]:
    """Cap ``diags`` at :data:`MAX_DETAIL` plus a remainder summary."""
    if total <= MAX_DETAIL:
        return diags
    head = diags[:MAX_DETAIL]
    head.append(
        Diagnostic(
            rule=rule,
            severity=head[0].severity,
            message=f"... and {total - MAX_DETAIL} more {noun}",
        )
    )
    return head


# ---------------------------------------------------------------------------
# hazard table: schedule rows scattered onto the dense gid space
# ---------------------------------------------------------------------------


@dataclass
class HazardTable:
    """Schedule columns aligned with a :class:`SetGraphArrays` set graph.

    ``start``/``end`` are flat ``(batch * n,)`` arrays indexed by
    ``slot = image * n + gid``; ``row_gid``/``row_image`` map each
    original column row back into that space.
    """

    arrays: "SetGraphArrays"
    columns: "ScheduleColumns"
    batch: int
    row_gid: np.ndarray
    row_image: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @property
    def num_sets(self) -> int:
        return self.arrays.num_sets


def build_table(
    arrays: "SetGraphArrays", columns: "ScheduleColumns"
) -> tuple[Optional[HazardTable], list[Diagnostic]]:
    """Scatter schedule rows onto the gid space, checking coverage.

    Returns ``(table, diagnostics)``; the table is ``None`` when the
    schedule does not cover the set graph exactly once per image
    (unknown layers, out-of-range set indices, duplicate or missing
    sets) — the coverage diagnostics then explain why, and the
    table-based hazard rules abstain rather than reporting nonsense.
    """
    diags: list[Diagnostic] = []
    n = arrays.num_sets
    rule = "schedule.coverage"

    name_to_lid = {name: lid for lid, name in enumerate(arrays.layers)}
    lid_map = np.empty(len(columns.layers), dtype=np.int64)
    unknown = []
    for i, name in enumerate(columns.layers):
        lid = name_to_lid.get(name)
        lid_map[i] = -1 if lid is None else lid
        if lid is None:
            unknown.append(name)
    if unknown:
        diags.extend(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=(
                    f"scheduled layer '{name}' does not exist in the set graph"
                ),
                location=Location(layer=name),
                hint="the schedule and the Stage I sets come from different models",
            )
            for name in unknown[:MAX_DETAIL]
        )
        return None, _summarize(diags, rule, len(unknown), "unknown layer(s)")

    row_lid = lid_map[columns.layer_id]
    counts = np.diff(arrays.offsets)
    si = columns.set_index.astype(np.int64)
    bad_si = np.flatnonzero((si < 0) | (si >= counts[row_lid]))
    if bad_si.size:
        for row in bad_si[:MAX_DETAIL]:
            layer = arrays.layers[int(row_lid[row])]
            diags.append(
                Diagnostic(
                    rule=rule,
                    severity=Severity.ERROR,
                    message=(
                        f"set index {int(si[row])} of layer '{layer}' is out of "
                        f"range (layer has {int(counts[row_lid[row]])} sets)"
                    ),
                    location=Location(layer=layer, set_index=int(si[row])),
                )
            )
        return None, _summarize(diags, rule, bad_si.size, "out-of-range set(s)")

    row_gid = arrays.offsets[row_lid] + si
    image = columns.image.astype(np.int64)
    if image.size and int(image.min()) < 0:
        diags.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=f"schedule contains a negative image id {int(image.min())}",
            )
        )
        return None, diags
    batch = int(image.max()) + 1 if image.size else 1
    slot = image * n + row_gid
    occupancy = np.bincount(slot, minlength=batch * n)

    def refs(slots: np.ndarray) -> Iterator[tuple[str, int, int]]:
        for s in slots:
            gid = int(s % n) if n else 0
            yield (
                arrays.layers[int(arrays.layer_of[gid])],
                int(arrays.set_index[gid]),
                int(s // n) if n else 0,
            )

    dup = np.flatnonzero(occupancy > 1)
    missing = np.flatnonzero(occupancy == 0)
    for layer, set_index, img in refs(dup[:MAX_DETAIL]):
        diags.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=(
                    f"set ({layer}, {set_index}) is scheduled more than once"
                    + (f" for image {img}" if batch > 1 else "")
                ),
                location=Location(
                    layer=layer,
                    set_index=set_index,
                    image=img if batch > 1 else None,
                ),
            )
        )
    for layer, set_index, img in refs(missing[:MAX_DETAIL]):
        diags.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=(
                    f"set ({layer}, {set_index}) missing from schedule"
                    + (f" for image {img}" if batch > 1 else "")
                ),
                location=Location(
                    layer=layer,
                    set_index=set_index,
                    image=img if batch > 1 else None,
                ),
            )
        )
    if dup.size or missing.size:
        extra = int(dup.size + missing.size) - len(diags)
        if extra > 0:
            diags.append(
                Diagnostic(
                    rule=rule,
                    severity=Severity.ERROR,
                    message=f"... and {extra} more coverage problem(s)",
                )
            )
        return None, diags

    start = np.zeros(batch * n, dtype=np.int64)
    end = np.zeros(batch * n, dtype=np.int64)
    start[slot] = columns.start
    end[slot] = columns.end
    return (
        HazardTable(
            arrays=arrays,
            columns=columns,
            batch=batch,
            row_gid=row_gid,
            row_image=image,
            start=start,
            end=end,
        ),
        diags,
    )


# ---------------------------------------------------------------------------
# schedule rules
# ---------------------------------------------------------------------------


@builtin(
    "schedule.coverage",
    requires=("schedule", "dependencies"),
    description="Every set of the set graph is scheduled exactly once per image.",
)
def check_coverage(ctx: "VerifyContext") -> list[Diagnostic]:
    _, diags = ctx.hazard_table()
    return diags


@builtin(
    "schedule.duration",
    requires=("schedule", "dependencies"),
    description="Task durations and rectangles match the Stage I sets.",
)
def check_durations(ctx: "VerifyContext") -> list[Diagnostic]:
    table, _ = ctx.hazard_table()
    if table is None:
        return []
    arrays = table.arrays
    cols = table.columns
    diags: list[Diagnostic] = []
    gid = table.row_gid

    def loc(row: int) -> Location:
        return Location(
            layer=arrays.layers[int(arrays.layer_of[gid[row]])],
            set_index=int(arrays.set_index[gid[row]]),
            image=int(table.row_image[row]) if table.batch > 1 else None,
            cycle=int(cols.start[row]),
        )

    bad_start = np.flatnonzero(cols.start < 0)
    for row in bad_start[:MAX_DETAIL]:
        diags.append(
            Diagnostic(
                rule="schedule.duration",
                severity=Severity.ERROR,
                message=f"task starts at negative cycle {int(cols.start[row])}",
                location=loc(int(row)),
            )
        )

    duration = cols.end - cols.start
    expected = arrays.area[gid]
    bad_dur = np.flatnonzero(duration != expected)
    for row in bad_dur[:MAX_DETAIL]:
        diags.append(
            Diagnostic(
                rule="schedule.duration",
                severity=Severity.ERROR,
                message=(
                    f"task duration {int(duration[row])} does not equal the "
                    f"set area {int(expected[row])} (one MVM per OFM pixel)"
                ),
                location=loc(int(row)),
                hint="set rectangles and task intervals must agree",
            )
        )

    rect_bad = (
        (cols.r0 != arrays.r0[gid])
        | (cols.c0 != arrays.c0[gid])
        | (cols.r1 != arrays.r1[gid])
        | (cols.c1 != arrays.c1[gid])
    )
    for row in np.flatnonzero(rect_bad)[:MAX_DETAIL]:
        diags.append(
            Diagnostic(
                rule="schedule.duration",
                severity=Severity.ERROR,
                message=(
                    "task rectangle "
                    f"({int(cols.r0[row])},{int(cols.c0[row])})-"
                    f"({int(cols.r1[row])},{int(cols.c1[row])}) does not match "
                    "the Stage I set rectangle"
                ),
                location=loc(int(row)),
            )
        )
    total = int(bad_start.size + bad_dur.size + int(rect_bad.sum()))
    return _summarize(diags, "schedule.duration", total, "malformed task(s)")


@builtin(
    "schedule.raw-race",
    requires=("schedule", "dependencies"),
    description="Every data dependency's producer ends before its consumer starts.",
)
def check_raw_races(ctx: "VerifyContext") -> list[Diagnostic]:
    table, _ = ctx.hazard_table()
    if table is None:
        return []
    arrays = table.arrays
    n = arrays.num_sets
    if not len(arrays.indices):
        return []
    consumer_start = table.start.reshape(table.batch, n)
    producer_end = table.end.reshape(table.batch, n)
    per_edge = np.diff(arrays.indptr)
    bad = producer_end[:, arrays.indices] > np.repeat(
        consumer_start, per_edge, axis=1
    )
    if not bad.any():
        return []
    diags: list[Diagnostic] = []
    hits = np.argwhere(bad)
    for image, edge in hits[:MAX_DETAIL]:
        image, edge = int(image), int(edge)
        gid = int(np.searchsorted(arrays.indptr, edge, side="right")) - 1
        pred = int(arrays.indices[edge])
        layer = arrays.layers[int(arrays.layer_of[gid])]
        diags.append(
            Diagnostic(
                rule="schedule.raw-race",
                severity=Severity.ERROR,
                message=(
                    "data dependency violated: "
                    f"({arrays.layers[arrays.layer_of[pred]]}, "
                    f"{int(arrays.set_index[pred])}) ends at "
                    f"{int(producer_end[image, pred])} but ({layer}, "
                    f"{int(arrays.set_index[gid])}) starts at "
                    f"{int(consumer_start[image, gid])}"
                ),
                location=Location(
                    layer=layer,
                    set_index=int(arrays.set_index[gid]),
                    image=image if table.batch > 1 else None,
                    cycle=int(consumer_start[image, gid]),
                ),
                hint="the producer set must finish before the consumer starts",
            )
        )
    return _summarize(diags, "schedule.raw-race", len(hits), "RAW race(s)")


@builtin(
    "schedule.exclusivity",
    requires=("schedule",),
    description="Sets of one layer never overlap (a layer's PEs run one set at a time).",
)
def check_exclusivity(ctx: "VerifyContext") -> list[Diagnostic]:
    from ..core.schedule import layer_overlaps

    cols = ctx.columns()
    if cols is None or len(cols) == 0:
        return []
    firsts, seconds = layer_overlaps(cols.layer_id, cols.start, cols.end)
    diags: list[Diagnostic] = []
    for earlier, later in zip(firsts[:MAX_DETAIL].tolist(), seconds[:MAX_DETAIL].tolist()):
        layer = cols.layers[int(cols.layer_id[later])]
        batch = int(cols.image.max()) + 1 if len(cols.image) else 1
        diags.append(
            Diagnostic(
                rule="schedule.exclusivity",
                severity=Severity.ERROR,
                message=(
                    f"resource violation in '{layer}': set "
                    f"{int(cols.set_index[later])} starts at "
                    f"{int(cols.start[later])} before set "
                    f"{int(cols.set_index[earlier])} ends at "
                    f"{int(cols.end[earlier])}"
                ),
                location=Location(
                    layer=layer,
                    set_index=int(cols.set_index[later]),
                    image=int(cols.image[later]) if batch > 1 else None,
                    cycle=int(cols.start[later]),
                ),
                hint="a layer's crossbars execute one set at a time (Sec. III)",
            )
        )
    return _summarize(
        diags, "schedule.exclusivity", len(firsts), "overlapping set pair(s)"
    )


@builtin(
    "schedule.pe-double-book",
    requires=("schedule", "placement"),
    description="Layers sharing PEs never execute concurrently.",
)
def check_pe_double_booking(ctx: "VerifyContext") -> list[Diagnostic]:
    cols = ctx.columns()
    placement = ctx.placement
    if cols is None or len(cols) == 0 or placement is None:
        return []
    # Find layer pairs whose PE ranges intersect (a clean placement
    # packs disjointly, so this sweep normally finds nothing).
    ranged = sorted(
        ((lo, hi, layer) for layer, (lo, hi) in placement.pe_ranges.items()),
        key=lambda item: (item[0], item[1]),
    )
    pairs: list[tuple[str, str, int]] = []
    for (lo_a, hi_a, layer_a), (lo_b, hi_b, layer_b) in zip(ranged, ranged[1:]):
        if lo_b < hi_a:
            pairs.append((layer_a, layer_b, lo_b))
    if not pairs:
        return []

    lid_of = {name: i for i, name in enumerate(cols.layers)}
    diags: list[Diagnostic] = []
    for layer_a, layer_b, shared_pe in pairs:
        lid_a = lid_of.get(layer_a)
        lid_b = lid_of.get(layer_b)
        if lid_a is None or lid_b is None:
            continue
        mask_a = cols.layer_id == lid_a
        starts_a = np.sort(cols.start[mask_a])
        ends_sorted = cols.end[mask_a][np.argsort(cols.start[mask_a], kind="stable")]
        running_max = np.maximum.accumulate(ends_sorted)
        rows_b = np.flatnonzero(cols.layer_id == lid_b)
        # b overlaps some a-task iff an a-task starting before b.end is
        # still running past b.start.
        idx = np.searchsorted(starts_a, cols.end[rows_b], side="left")
        conflict = (idx > 0) & (running_max[np.maximum(idx - 1, 0)] > cols.start[rows_b])
        hit = np.flatnonzero(conflict)
        if not hit.size:
            continue
        row = int(rows_b[hit[0]])
        diags.append(
            Diagnostic(
                rule="schedule.pe-double-book",
                severity=Severity.ERROR,
                message=(
                    f"PE double-booking: layers '{layer_a}' and '{layer_b}' "
                    f"share PE {shared_pe} and execute concurrently "
                    f"('{layer_b}' set {int(cols.set_index[row])} runs "
                    f"[{int(cols.start[row])}, {int(cols.end[row])}) during "
                    f"'{layer_a}')"
                ),
                location=Location(
                    layer=layer_b,
                    set_index=int(cols.set_index[row]),
                    pe=shared_pe,
                    cycle=int(cols.start[row]),
                ),
                hint="place the layers on disjoint PE ranges or serialize them",
            )
        )
    return _summarize(
        diags, "schedule.pe-double-book", len(diags), "double-booked pair(s)"
    )


def buffer_peaks(
    table: HazardTable, shapes: dict, placement: "Placement", bytes_per_element: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``(tiles, peak bytes)``: peak forwarded-set liveness per tile.

    Each dependency edge keeps the producer set's output live at the
    consumer layer's home tile over ``[producer end, consumer end)``;
    one sweep per tile pools the timelines of all images (they share
    real time).  Tiles come in increasing order; a tile that never
    holds forwarded data is left out.
    """
    from ..mapping.placement import edge_transfers

    arrays = table.arrays
    n = arrays.num_sets
    _, tile, payload = edge_transfers(arrays, shapes, placement, bytes_per_element)
    consumer = np.repeat(np.arange(n, dtype=np.int64), np.diff(arrays.indptr))
    window_start = table.end.reshape(table.batch, n)[:, arrays.indices]
    window_end = table.end.reshape(table.batch, n)[:, consumer]
    live = (window_end > window_start) & (tile >= 0)[None, :]
    if not live.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    tiles_live = np.broadcast_to(tile, live.shape)[live]
    payload_live = np.broadcast_to(payload, live.shape)[live]
    ev_tile = np.concatenate([tiles_live, tiles_live])
    ev_time = np.concatenate([window_start[live], window_end[live]])
    ev_delta = np.concatenate([payload_live, -payload_live])
    # Primary tile, then time, then delta: removals land before
    # additions at equal timestamps.
    order = np.lexsort((ev_delta, ev_time, ev_tile))
    tile_sorted = ev_tile[order]
    level = np.cumsum(ev_delta[order])
    seg = np.flatnonzero(
        np.concatenate(([True], tile_sorted[1:] != tile_sorted[:-1]))
    )
    base = np.where(seg > 0, level[seg - 1], 0)
    level = level - np.repeat(base, np.diff(np.append(seg, len(level))))
    return tile_sorted[seg], np.maximum.reduceat(level, seg)


@builtin(
    "schedule.buffer-capacity",
    requires=("schedule", "dependencies", "placement", "mapped", "arch"),
    cost="full",
    description="Peak forwarded-set liveness per tile fits the input buffer.",
)
def check_buffer_capacity(ctx: "VerifyContext") -> list[Diagnostic]:
    table, _ = ctx.hazard_table()
    if table is None or not len(table.arrays.indices):
        return []
    shapes = ctx.shapes()
    placement = ctx.placement
    arch = ctx.arch
    if shapes is None or placement is None or arch is None:
        return []
    tiles, peaks = buffer_peaks(table, shapes, placement)
    capacity = arch.tile.input_buffer_bytes
    over = np.flatnonzero(peaks > capacity)
    diags = [
        Diagnostic(
            rule="schedule.buffer-capacity",
            severity=Severity.WARNING,
            message=(
                f"tile {int(tiles[i])}: peak input-buffer "
                f"occupancy {int(peaks[i])} B exceeds capacity {capacity} B"
            ),
            hint=(
                "raise TileSpec.input_buffer_bytes, use coarser Stage I "
                "sets, or rely on the Sec. II-A DRAM spill"
            ),
        )
        for i in over[:MAX_DETAIL]
    ]
    return _summarize(
        diags, "schedule.buffer-capacity", int(over.size), "overflowing tile(s)"
    )


# ---------------------------------------------------------------------------
# raising wrappers (kernel self-validation)
# ---------------------------------------------------------------------------


def assert_arrays_schedule(
    arrays: "SetGraphArrays", start: np.ndarray, end: np.ndarray
) -> None:
    """Vectorized single-image schedule assertion.

    Every data dependency's producer ends before its consumer starts,
    and sets of one layer never overlap; raises ``AssertionError``.
    """
    from ..core.schedule import check_layer_exclusivity

    if len(arrays.indices):
        bad = end[arrays.indices] > start.repeat(np.diff(arrays.indptr))
        if bad.any():
            edge = int(np.flatnonzero(bad)[0])
            gid = int(np.searchsorted(arrays.indptr, edge, side="right")) - 1
            pred = int(arrays.indices[edge])
            raise AssertionError(
                "data dependency violated: "
                f"({arrays.layers[arrays.layer_of[pred]]}, "
                f"{int(arrays.set_index[pred])}) ends at {int(end[pred])} but "
                f"({arrays.layers[arrays.layer_of[gid]]}, "
                f"{int(arrays.set_index[gid])}) starts at {int(start[gid])}"
            )
    check_layer_exclusivity(
        arrays.layer_of, start, end, arrays.set_index, arrays.layers
    )


def assert_batch_arrays_schedule(
    arrays: "SetGraphArrays",
    batch_size: int,
    start: np.ndarray,
    end: np.ndarray,
) -> None:
    """Vectorized batch assertion over flat ``image * n + gid`` arrays."""
    from ..core.schedule import check_layer_exclusivity

    n = arrays.num_sets
    if len(arrays.indices):
        consumer_start = start.reshape(batch_size, n)
        producer_end = end.reshape(batch_size, n)
        per_edge = np.diff(arrays.indptr)
        bad = producer_end[:, arrays.indices] > np.repeat(
            consumer_start, per_edge, axis=1
        )
        if bad.any():
            image, edge = map(int, np.argwhere(bad)[0])
            gid = int(np.searchsorted(arrays.indptr, edge, side="right")) - 1
            pred = int(arrays.indices[edge])
            raise AssertionError(
                f"batch data dependency violated for image {image}: set "
                f"({arrays.layers[arrays.layer_of[pred]]}, "
                f"{int(arrays.set_index[pred])}) ends after "
                f"({arrays.layers[arrays.layer_of[gid]]}, "
                f"{int(arrays.set_index[gid])}) starts"
            )
    check_layer_exclusivity(
        np.tile(arrays.layer_of, batch_size),
        start,
        end,
        np.tile(arrays.set_index, batch_size),
        arrays.layers,
        prefix="batch resource violation",
    )


def covering_table(arrays: "SetGraphArrays", columns: "ScheduleColumns") -> HazardTable:
    """The hazard table of a schedule that covers ``arrays`` exactly once
    per image; raises ``AssertionError`` with the first coverage
    problem (:func:`build_table`) otherwise."""
    table, diags = build_table(arrays, columns)
    if table is None:
        raise AssertionError(diags[0].message)
    return table


def assert_schedule(schedule: "Schedule", dependency_graph: "DependencyGraph") -> None:
    """Assert a schedule against its dependency graph, on the vectorized checks.

    Checks intra-layer order first ("resource violation"), then
    coverage (every set exactly once per image, worded as the
    ``schedule.coverage`` rule), then data dependencies, image by image
    for a batch schedule.
    """
    schedule.validate_intra_layer_order()
    arrays = dependency_graph.arrays
    table = covering_table(arrays, schedule.columns())
    if table.batch == 1:
        assert_arrays_schedule(arrays, table.start, table.end)
    else:
        assert_batch_arrays_schedule(arrays, table.batch, table.start, table.end)


def assert_batch_schedule(
    result: "BatchScheduleResult", dependency_graph: "DependencyGraph"
) -> None:
    """Assert a batch schedule: :func:`assert_schedule` of its rows."""
    assert_schedule(result.schedule, dependency_graph)
