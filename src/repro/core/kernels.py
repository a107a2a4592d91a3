"""Columnar scheduling kernels: CSR set graphs + array-backed schedules.

At the paper's "maximum achievable" granularity (one OFM row per set) a
single darknet model already produces thousands of sets, and the batch
extension multiplies that by the batch size.  Walking
``dict[(str, int)]`` structures and allocating one frozen
:class:`~repro.core.schedule.SetTask` per set is pure interpreter
overhead at that scale.

This module holds the set-level problem as flat NumPy arrays, the
:class:`SetGraphArrays` *CSR set graph*:

* a **global dense set-id space**: set ``(layer, set_index)`` becomes
  ``gid = offsets[layer_id] + set_index``, with per-gid ``layer_of`` /
  ``set_index`` / ``area`` / rect-coordinate columns;
* a **CSR encoding** of the set dependencies (``indptr`` / ``indices``
  over predecessor gids).

Stage II (:func:`repro.core.dependencies.determine_dependencies`)
emits these arrays directly and the
:class:`~repro.core.dependencies.DependencyGraph` stores them, so the
static scheduler, the dynamic list scheduler, the batch pipeline
scheduler, the simulator, the energy model, the store and the verifier
all share one set graph; it is the graph's only form.

These kernels are Stage IV: every compile, batch run and simulator
replay, priced or free, schedules here.  The pure-Python reference
schedulers they must match row for row live with the tests
(``tests/oracles``); the kernels self-validate with vectorized
dependency/resource checks.

Release keys.  Ready order is defined by the reference event loop:
completions pop in ``(end, layer name)`` order, each waking its
consumers in gid order (one whose layer is idle starts at once) before
its own layer starts its lowest-indexed ready set.  With ``L`` layers,
a completion's key ``end * L + lex_rank[layer]`` orders those pops, and
a set is released by its predecessors' largest key (-1 with none).  So
Stage IV schedules one layer at a time, in topological order: the
row-major recurrence ``end_i = max(end_{i-1}, ready_i) + a_i`` is the
layer's ready order when its sets' release keys are non-decreasing;
otherwise a heap over the layer's own sets decides.  One stable sort
of the sets (-2 if started before any event, ``2 * done + 1`` if
started when the layer's previous set completed with key ``done``,
``2 * key`` if started on release) gives the loop's rows.  Keys assume
that every set ends after it starts, so ready order needs empty sets
isolated, as Stage II leaves them.

Arrivals.  The priced replay delays each edge: a set's data arrives at
its predecessors' largest ``end + delay``, and the reference loop
serves a layer's released sets by ``(arrival, gid)``, each starting at
``max(layer free, arrival)``.  The prefix form runs on arrivals where
they and the release keys are non-decreasing; the heap orders
``(arrival, index)`` elsewhere.  Delays must be non-negative, so that
no set arrives before its release.

A batch of ``B`` images is the same problem over (image, set) items:
layer ``l`` owns its ``B * n_l`` items image by image, an item's
predecessors are its own image's, and the loop pops completions in
``(end, image, layer name)`` order and serves ready items earliest
image first, then by set index, which is item order.  So the batch
runs the same per-layer pass with completion keys
``(end * B + image) * L + lex_rank[layer]``.  A list schedule never
idles every layer, so nothing ends after the total work: the pass
raises ``ValueError`` unless ``(work + 1) * B * L`` keeps the keys and
the ranks (twice a key) in int64.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .schedule import Schedule, ScheduleColumns


@dataclass(frozen=True)
class SetGraphArrays:
    """The CSR set graph of one compilation (set ids, rects, edges).

    Attributes
    ----------
    layers:
        Base layer names in Stage I order (graph topological order).
    offsets:
        ``int64[L+1]``; layer ``l`` owns gids ``[offsets[l], offsets[l+1])``,
        with ``gid - offsets[l]`` equal to the set index within the layer.
    layer_of / set_index / area / r0 / c0 / r1 / c1:
        Per-gid columns (layer id, intra-layer set index, pixel count,
        and the set rectangle's coordinates).
    indptr / indices:
        CSR of the data-dependency edges: the predecessors of ``gid``
        are ``indices[indptr[gid]:indptr[gid+1]]``.
    lex_rank:
        Per layer id, the layer's rank when names are sorted
        lexicographically (tie-break parity with the reference
        schedulers' string-keyed event heaps).
    """

    layers: tuple[str, ...]
    offsets: np.ndarray
    layer_of: np.ndarray
    set_index: np.ndarray
    area: np.ndarray
    r0: np.ndarray
    c0: np.ndarray
    r1: np.ndarray
    c1: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    lex_rank: np.ndarray

    @classmethod
    def from_csr(
        cls,
        layers: tuple[str, ...],
        offsets: np.ndarray,
        coords: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "SetGraphArrays":
        """Assemble the set graph from its CSR and the set rectangles.

        ``coords`` is int64 ``(4, n)`` with rows ``r0, c0, r1, c1`` in
        gid order; the per-gid columns are derived.
        """
        layer_of, set_index = gid_columns(offsets)
        lex_rank = np.empty(len(layers), dtype=np.int32)
        lex_rank[sorted(range(len(layers)), key=lambda i: layers[i])] = np.arange(
            len(layers), dtype=np.int32
        )
        r0, c0, r1, c1 = np.ascontiguousarray(coords, dtype=np.int32)
        return cls(
            layers=tuple(layers),
            offsets=np.asarray(offsets, dtype=np.int64),
            layer_of=layer_of,
            set_index=set_index,
            area=(coords[2] - coords[0]) * (coords[3] - coords[1]),
            r0=r0,
            c0=c0,
            r1=r1,
            c1=c1,
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int64),
            lex_rank=lex_rank,
        )

    @property
    def num_sets(self) -> int:
        """Total sets (the size of the global gid space)."""
        return len(self.layer_of)

    @property
    def num_layers(self) -> int:
        """Number of base layers."""
        return len(self.layers)

    @property
    def num_edges(self) -> int:
        """Total data-dependency edges."""
        return len(self.indices)

    def gid(self, layer: str, set_index: int) -> int:
        """Global set id of ``(layer, set_index)``."""
        return int(self.offsets[self.layers.index(layer)]) + set_index


def gid_columns(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gid ``(layer_of, set_index)`` int32 columns of ``offsets``."""
    counts = np.diff(offsets)
    layer_of = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    set_index = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], counts)
    return layer_of, set_index.astype(np.int32)


# ---------------------------------------------------------------------------
# schedule assembly
# ---------------------------------------------------------------------------


def _columns_from(
    arrays: SetGraphArrays,
    emit: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    image: np.ndarray | None = None,
) -> ScheduleColumns:
    """Columns of the gids ``emit``, one row each, in that order.

    ``start``/``end`` (and ``image``, 0 when omitted) are aligned with
    ``emit``: a batch schedule emits each gid once per image.
    """
    return ScheduleColumns(
        layers=arrays.layers,
        layer_id=arrays.layer_of[emit],
        set_index=arrays.set_index[emit],
        start=start,
        end=end,
        image=(
            np.zeros(len(emit), dtype=np.int32)
            if image is None
            else image.astype(np.int32)
        ),
        r0=arrays.r0[emit],
        c0=arrays.c0[emit],
        r1=arrays.r1[emit],
        c1=arrays.c1[emit],
    )


# ---------------------------------------------------------------------------
# Stage IV: one pass per layer, in topological layer order
# ---------------------------------------------------------------------------


def csr_static_schedule(
    arrays: SetGraphArrays,
    order: dict[str, list[int]],
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Earliest-feasible-start schedule; sets and rows in Stage III order."""
    local = chain.from_iterable(order[layer] for layer in arrays.layers)
    seq = np.fromiter(local, dtype=np.int64, count=arrays.num_sets)
    seq += np.repeat(arrays.offsets[:-1], np.diff(arrays.offsets))
    return Schedule(policy=policy, columns=_schedule_image(arrays, seq, validate)[2])


def csr_dynamic_schedule(
    arrays: SetGraphArrays,
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """List scheduling in ready order, one layer at a time (release keys).

    Each layer greedily executes whichever of its sets has all data
    dependencies satisfied, lowest set index first.  With weight
    duplication a producer's stripes emit rows in parallel; ready-order
    sequencing rate-matches producer and consumer and realizes the
    paper's *maximum achievable* utilization (Sec. V).
    """
    return Schedule(policy=policy, columns=_schedule_image(arrays, None, validate)[2])


def csr_batch_schedule(
    arrays: SetGraphArrays,
    batch_size: int,
    policy: str | None = None,
    validate: bool = True,
) -> tuple[Schedule, list[tuple[int, int]]]:
    """Batched list scheduler; returns (schedule, image spans).

    Every image carries the full set graph and all images of a layer
    share its PEs; ready sets are served earliest image first, then by
    set index.  The (image, set) items run through the per-layer pass
    of the single-image schedulers (see the module docstring) and map
    back to flat ``image * n + gid`` slots.

    ``validate=True`` (the default, matching the single-image
    schedulers) runs the vectorized dependency/exclusivity checks of
    the static verifier before returning.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    _check_set_graph(arrays, ready_order=True)
    n, num_layers = arrays.num_sets, arrays.num_layers
    offsets, counts = arrays.offsets, np.diff(arrays.offsets)
    images = np.arange(batch_size)[:, None]
    # Layer l owns items ``batch_size * offsets[l] + image * n_l + set``: its
    # slots ``image * n + gid``, image by image.
    slot = _image_major(images * n + np.arange(n), offsets.tolist())
    image, gid = np.divmod(slot, n)
    # Item (image, gid) waits for the items (image, p), p a predecessor of gid.
    pred_layer = arrays.layer_of[arrays.indices]
    pred_item = _image_major(
        batch_size * offsets[pred_layer]
        + arrays.set_index[arrays.indices]
        + images * counts[pred_layer],
        arrays.indptr[offsets].tolist(),
    )
    start, end, emit = _schedule_layers(
        batch_size * offsets,
        np.concatenate(([0], np.cumsum(np.diff(arrays.indptr)[gid]))),
        pred_item,
        arrays.area[gid],
        image * num_layers + arrays.lex_rank[arrays.layer_of[gid]],
        batch_size * num_layers,
    )
    start_all = np.empty(n * batch_size, dtype=np.int64)
    end_all = np.empty(n * batch_size, dtype=np.int64)
    start_all[slot] = start
    end_all[slot] = end
    if validate:
        from ..verify.hazards import assert_batch_arrays_schedule

        assert_batch_arrays_schedule(arrays, batch_size, start_all, end_all)
    columns = _columns_from(arrays, gid[emit], start[emit], end[emit], image[emit])
    spans = (
        list(
            zip(
                start_all.reshape(batch_size, n).min(axis=1).tolist(),
                end_all.reshape(batch_size, n).max(axis=1).tolist(),
            )
        )
        if n
        else []
    )
    name = policy if policy is not None else f"clsa-cim-batch{batch_size}"
    return Schedule(policy=name, columns=columns), spans


def _image_major(table: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The ``(images, m)`` ``table`` by column blocks ``[bounds[k], bounds[k+1])``,
    each block flattened image by image."""
    blocks = [table[:, lo:hi].ravel() for lo, hi in zip(bounds, bounds[1:])]
    return np.concatenate(blocks) if blocks else table.ravel()


def _schedule_image(
    arrays: SetGraphArrays, seq: np.ndarray | None, validate: bool, delays: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, ScheduleColumns]:
    """``(start, end, columns)`` of one image: the gid order ``seq``, or
    ready order, priced by ``delays`` if given; ``start``/``end`` are
    indexed by gid."""
    _check_set_graph(arrays, ready_order=seq is None)
    start, end, emit = _schedule_layers(
        arrays.offsets,
        arrays.indptr,
        arrays.indices,
        arrays.area,
        arrays.lex_rank[arrays.layer_of],
        arrays.num_layers,
        seq,
        delays,
    )
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    return start, end, _columns_from(arrays, emit, start[emit], end[emit])


def _schedule_layers(
    offsets: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    area: np.ndarray,
    tie: np.ndarray,
    scale: int,
    seq: np.ndarray | None = None,
    delays: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, end, emit)`` of every item: in the order ``seq``, or ready order.

    Layer ``l`` owns items ``[offsets[l], offsets[l+1])``, and the CSR
    ``indptr``/``indices`` lists each item's predecessors, in earlier
    layers.  An item ending at ``end`` completes with key
    ``end * scale + tie``, ``0 <= tie < scale``.  Per layer, one gather
    of the predecessors' completion keys and one segmented max give the
    release keys; the recurrence runs in prefix form,
    ``end_i = S_i + cummax_i(ready_i - S_{i-1})``, ``S_i`` being the
    sum of the first ``i + 1`` areas in sequence.  In ready order, edge
    ``delays`` (aligned with ``indices``) make ``ready_i`` the arrival,
    a second segmented max (see the module docstring).
    """
    n, num_layers = int(offsets[-1]), len(offsets) - 1
    bounds, counts = offsets.tolist(), np.diff(offsets)
    ready = seq is None
    if seq is None:
        seq = np.arange(n, dtype=np.int64)
    # In a layer with edges, an item without predecessors reads slot n
    # (key -1; with delays it arrives at -1, before any set ends).
    fan_in = np.diff(indptr)
    lonely = (fan_in == 0) & np.repeat(np.diff(indptr[offsets]) > 0, counts)
    if lonely.any():
        at = indptr[:-1][lonely]
        indices = np.insert(indices, at, n)
        if delays is not None:
            delays = np.insert(delays, at, 0)
        indptr = np.concatenate(([0], np.cumsum(fan_in + lonely)))
    edge_bounds = indptr[offsets].tolist()
    heads = indptr[:-1] - np.repeat(indptr[offsets[:-1]], counts)
    areas = area[seq]
    # A list schedule idles every layer only while data is in flight, each
    # such wait ending on one edge's delay, so nothing ends after the total
    # work plus the total delay: the keys, and the emission ranks (twice a
    # key), fit.  Totals are Python ints, since an int64 sum could wrap:
    # the largest value times the count first, the exact sum only if that
    # bound fails.
    total = int(areas.max(initial=0)) * n
    if delays is not None:
        total += int(delays.max(initial=0)) * len(delays)
    if (total + 1) * scale > 1 << 62:
        total = sum(areas.tolist()) + (0 if delays is None else sum(delays.tolist()))
        if (total + 1) * scale > 1 << 62:
            raise ValueError(
                f"{total} cycles of work at key scale {scale} overflow "
                "int64 completion keys; schedule fewer images at once"
            )
    work = np.concatenate(([0], np.cumsum(areas, dtype=np.int64)))
    before = work[:-1] - np.repeat(work[offsets[:-1]], counts)  # S_{i-1}
    # ``S_i * scale + tie``: an item's completion key if its layer never waits.
    base = (before + areas) * scale + tie[seq]
    tag = np.full(n + 1, -1, dtype=np.int64)  # completion keys by item
    keys = np.full(n, -1, dtype=np.int64)  # release keys by item
    for lid in range(num_layers):
        lo, hi = bounds[lid], bounds[lid + 1]
        if lo == hi:
            continue
        arrival = None
        if edge_bounds[lid] == edge_bounds[lid + 1]:
            key = keys[lo:hi]
        else:
            edges = slice(edge_bounds[lid], edge_bounds[lid + 1])
            done = tag[indices[edges]]
            key = keys[lo:hi] = np.maximum.reduceat(done, heads[lo:hi])
            if delays is not None:
                arrival = np.maximum.reduceat(done // scale + delays[edges], heads[lo:hi])
        if not ready:
            key = key[seq[lo:hi] - lo]
        elif np.count_nonzero(key[1:] < key[:-1]) or (
            arrival is not None and np.count_nonzero(arrival[1:] < arrival[:-1])
        ):  # released, or arriving, out of item order
            perm, dones = _ready_order(
                key.tolist(), areas[lo:hi].tolist(), tie[lo:hi].tolist(), scale,
                None if arrival is None else arrival.tolist(),
            )
            seq[lo:hi] = lo + np.asarray(perm, dtype=np.int64)
            tag[seq[lo:hi]] = dones
            continue
        lag = (key // scale if arrival is None else arrival) - before[lo:hi]
        if lag[0] < 0:  # an item without predecessors is ready at 0
            lag[0] = 0
        tag[seq[lo:hi]] = base[lo:hi] + np.maximum.accumulate(lag) * scale
    end = tag[:n] // max(scale, 1)
    start = end - area
    if not ready:
        return start, end, seq
    # Each item's layer predecessor in sequence completed with key ``due``.
    due = np.empty(n, dtype=np.int64)
    due[seq[1:]] = tag[seq[:-1]]
    due[seq[offsets[:-1][counts > 0]]] = -1
    rank = np.where(keys < due, 2 * due + 1, 2 * keys)
    return start, end, seq[np.argsort(rank[seq], kind="stable")]


def _ready_order(
    keys: list[int], areas: list[int], ties: list[int], scale: int, arrivals: list | None = None
) -> tuple[list[int], list[int]]:
    """``(order, completion keys)`` of one layer, from a heap over its items.

    When an item completes, the lowest index released before that
    completion (given ``arrivals``: the earliest arrival, then index)
    starts next, at its arrival if later; if there is none, the next
    item released starts when it is.
    """
    count = len(keys)
    if arrivals is None:  # the heap holds indices
        arrivals, entries = [key // scale for key in keys], range(count)
    else:  # the heap holds ``arrival * count + index``
        entries = [arrival * count + i for i, arrival in enumerate(arrivals)]
    released = sorted(range(count), key=keys.__getitem__)  # by (key, index)
    queued: list[int] = []
    order: list[int] = []
    dones: list[int] = []
    done, end, nxt = -1, 0, 0
    for _ in released:
        while nxt < count and keys[released[nxt]] < done:
            heapq.heappush(queued, entries[released[nxt]])
            nxt += 1
        if queued:
            i = heapq.heappop(queued) % count
        else:
            i, nxt = released[nxt], nxt + 1
        end = max(end, arrivals[i]) + areas[i]
        done = end * scale + ties[i]
        order.append(i)
        dones.append(done)
    return order, dones


def _check_set_graph(arrays: SetGraphArrays, ready_order: bool) -> None:
    """Edges must point to earlier layers (``AssertionError``) and, in
    ready order, empty sets must have none (``ValueError``)."""
    edge_lo = arrays.indptr[arrays.offsets]
    has = np.flatnonzero(edge_lo[1:] > edge_lo[:-1])
    late = has[np.maximum.reduceat(arrays.indices, edge_lo[has]) >= arrays.offsets[has]]
    if len(late):
        raise AssertionError(
            f"a dependency of layer {arrays.layers[late[0]]!r} is not yet "
            "scheduled; the set graph is not in topological layer order"
        )
    if ready_order and not arrays.area.all():
        fan = np.diff(arrays.indptr) + np.bincount(arrays.indices, minlength=arrays.num_sets)
        linked = np.flatnonzero((arrays.area == 0) & (fan > 0))
        if len(linked):
            gid = int(linked[0])
            raise ValueError(
                f"set ({arrays.layers[arrays.layer_of[gid]]!r}, "
                f"{int(arrays.set_index[gid])}) is empty but has dependency "
                "edges; ready order needs empty sets isolated"
            )


# ---------------------------------------------------------------------------
# simulator replay
# ---------------------------------------------------------------------------


def csr_replay(
    arrays: SetGraphArrays, policy: str, delays: np.ndarray | None = None
) -> tuple[Schedule, dict[str, int], int]:
    """Ready-order replay on the columnar arrays, free or priced.

    Returns ``(schedule, per_layer_stall, events_processed)``: one
    completion event per set; a layer's stall is its idle time inside
    its busy span.  Free, it is :func:`csr_dynamic_schedule`'s schedule.
    Non-negative int64 ``delays``, aligned with ``arrays.indices``,
    price the edges: data arrives ``delay`` cycles after its producer
    ends, and a layer serves its released sets by arrival, then gid.
    """
    start, end, columns = _schedule_image(arrays, None, validate=False, delays=delays)
    filled = np.flatnonzero(np.diff(arrays.offsets))
    heads = arrays.offsets[filled]
    idle = (
        np.maximum.reduceat(end, heads)
        - np.minimum.reduceat(start, heads)
        - np.add.reduceat(arrays.area, heads)
    )
    stalls = dict(zip([arrays.layers[lid] for lid in filled.tolist()], idle.tolist()))
    return Schedule(policy=policy, columns=columns), stalls, arrays.num_sets
