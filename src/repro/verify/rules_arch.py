"""Architecture, placement, set-partition and duplication rule packs.

Holds the Section II-A requirement checks and the mapping-layer
invariants: PE range sanity and oversubscription, crossbar-capacity
consistency of the placement, Stage I set partitions, and weight
duplication bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .diagnostics import Diagnostic, Location, Severity
from .registry import builtin

if TYPE_CHECKING:
    from .engine import VerifyContext

#: Cap on itemized diagnostics per rule (shared with the hazard rules).
from .hazards import MAX_DETAIL, _summarize


def _error(rule: str, message: str, **location: object) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=Severity.ERROR,
        message=message,
        location=Location(**location),  # type: ignore[arg-type]
    )


@builtin(
    "arch.pe-capacity",
    requires=("graph", "arch"),
    description="Enough PEs to store all weights at least once (Eq. 1).",
)
def check_pe_capacity(ctx: "VerifyContext") -> list[Diagnostic]:
    from ..mapping.tiling import minimum_pe_requirement

    if ctx.graph_shapes() is None:
        return []
    demand = minimum_pe_requirement(ctx.graph, ctx.arch.crossbar)
    if demand <= ctx.arch.num_pes:
        return []
    return [
        _error(
            "arch.pe-capacity",
            f"model needs {demand} PEs but architecture has only "
            f"{ctx.arch.num_pes} (weights must be storable at least once)",
        )
    ]


@builtin(
    "arch.noc-connected",
    requires=("arch",),
    description="The NoC mesh is connected.",
)
def check_noc(ctx: "VerifyContext") -> list[Diagnostic]:
    if not ctx.arch.build_noc().is_connected():  # pragma: no cover - meshes connect
        return [_error("arch.noc-connected", "NoC mesh is not connected")]
    return []


@builtin(
    "arch.buffers",
    requires=("arch",),
    description="Tiles have buffers for partial IFM/OFM data.",
)
def check_buffers(ctx: "VerifyContext") -> list[Diagnostic]:
    tile = ctx.arch.tile
    if tile.input_buffer_bytes == 0 and tile.output_buffer_bytes == 0:
        return [
            _error("arch.buffers", "tiles have no buffers for partial IFM/OFM data")
        ]
    return []


@builtin(
    "arch.gpeu-support",
    requires=("graph", "arch"),
    description="The GPEU supports every non-base op the model uses.",
)
def check_gpeu(ctx: "VerifyContext") -> list[Diagnostic]:
    from ..ir.ops import Input

    graph = ctx.graph
    gpeu = ctx.arch.tile.gpeu
    unsupported = sorted(
        {
            graph[name].op_type
            for name in graph.non_base_layers()
            if not isinstance(graph[name], Input)
            and not gpeu.supports(graph[name].op_type)
        }
    )
    return [
        _error(
            "arch.gpeu-support",
            f"GPEU does not support non-base op type '{op_type}'",
        )
        for op_type in unsupported
    ]


@builtin(
    "arch.dram-capacity",
    requires=("graph", "arch"),
    description="Global DRAM holds all feature maps (coarse upper bound).",
)
def check_dram(ctx: "VerifyContext") -> list[Diagnostic]:
    shapes = ctx.graph_shapes()
    if shapes is None:
        return []
    if not ctx.arch.dram.fits(list(shapes.values())):
        return [
            _error("arch.dram-capacity", "feature maps exceed global DRAM capacity")
        ]
    return []


# ---------------------------------------------------------------------------
# placement rules
# ---------------------------------------------------------------------------


@builtin(
    "place.bounds",
    requires=("placement", "arch"),
    description="Every placed PE range is non-empty and on-chip.",
)
def check_place_bounds(ctx: "VerifyContext") -> list[Diagnostic]:
    num_pes = ctx.arch.num_pes
    diags = []
    for layer, (lo, hi) in ctx.placement.pe_ranges.items():
        if not (0 <= lo < hi <= num_pes):
            diags.append(
                _error(
                    "place.bounds",
                    f"layer '{layer}' placed on invalid PE range [{lo}, {hi}) "
                    f"(chip has {num_pes} PEs)",
                    layer=layer,
                    pe=lo,
                )
            )
    return diags


@builtin(
    "place.overlap",
    requires=("placement",),
    description="No PE is owned by more than one layer.",
)
def check_place_overlap(ctx: "VerifyContext") -> list[Diagnostic]:
    ranged = sorted(
        ((lo, hi, layer) for layer, (lo, hi) in ctx.placement.pe_ranges.items()),
        key=lambda item: (item[0], item[1]),
    )
    diags = []
    for (lo_a, hi_a, layer_a), (lo_b, hi_b, layer_b) in zip(ranged, ranged[1:]):
        if lo_b < hi_a:
            diags.append(
                _error(
                    "place.overlap",
                    f"PE oversubscription: layers '{layer_a}' and '{layer_b}' "
                    f"both own PE(s) [{lo_b}, {min(hi_a, hi_b)})",
                    layer=layer_b,
                    pe=lo_b,
                )
            )
    return _summarize(diags, "place.overlap", len(diags), "overlapping range(s)")


@builtin(
    "place.capacity",
    requires=("placement", "mapped", "arch"),
    description="Every base layer is placed with its crossbar-tiling PE count.",
)
def check_place_capacity(ctx: "VerifyContext") -> list[Diagnostic]:
    from ..mapping.tiling import tile_graph

    placement = ctx.placement
    tilings = placement.tilings or tile_graph(ctx.mapped, ctx.arch.crossbar)
    diags: list[Diagnostic] = []
    for layer in ctx.mapped.base_layers():
        if layer not in placement.pe_ranges:
            diags.append(
                _error(
                    "place.capacity",
                    f"base layer '{layer}' is not placed on any PEs",
                    layer=layer,
                )
            )
            continue
        if layer not in tilings:
            continue
        lo, hi = placement.pe_ranges[layer]
        need = tilings[layer].num_pes
        if hi - lo != need:
            diags.append(
                _error(
                    "place.capacity",
                    f"layer '{layer}' owns {hi - lo} PE(s) but its crossbar "
                    f"tiling needs {need}",
                    layer=layer,
                    pe=lo,
                )
            )
    return _summarize(diags, "place.capacity", len(diags), "mis-sized layer(s)")


@builtin(
    "mapping.duplication",
    requires=("mapped", "rewrite"),
    description="Weight-duplication bookkeeping is consistent with the mapped graph.",
)
def check_duplication(ctx: "VerifyContext") -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for original, dup in ctx.rewrite.duplicated.items():
        for name in dup.duplicates:
            if name not in ctx.mapped:
                diags.append(
                    _error(
                        "mapping.duplication",
                        f"duplicate '{name}' of layer '{original}' is missing "
                        "from the mapped graph",
                        layer=name,
                    )
                )
            elif ctx.rewrite.origin_of.get(name) != original:
                diags.append(
                    _error(
                        "mapping.duplication",
                        f"duplicate '{name}' does not trace back to "
                        f"'{original}' in origin_of",
                        layer=name,
                    )
                )
        spans = sorted(dup.ranges)
        for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
            if lo_b < hi_a:
                diags.append(
                    _error(
                        "mapping.duplication",
                        f"duplicates of '{original}' overlap on the "
                        f"{dup.axis} axis at [{lo_b}, {min(hi_a, hi_b)})",
                        layer=original,
                    )
                )
        for lo, hi in spans:
            if lo >= hi:
                diags.append(
                    _error(
                        "mapping.duplication",
                        f"duplicate of '{original}' covers an empty "
                        f"{dup.axis} range [{lo}, {hi})",
                        layer=original,
                    )
                )
    return _summarize(diags, "mapping.duplication", len(diags), "inconsistency(ies)")


@builtin(
    "sets.partition",
    requires=("sets", "mapped"),
    cost="full",
    description="Stage I sets tile each OFM exactly (no overlap, no gaps).",
)
def check_set_partition(ctx: "VerifyContext") -> list[Diagnostic]:
    from ..core.sets import PartitionProblems, partition_problems

    shapes = ctx.shapes()
    if shapes is None:
        return []
    sets = ctx.partition()
    checked: dict[tuple[int, int, int], PartitionProblems] = {}  # by (id(block), H, W)
    diags: list[Diagnostic] = []
    total = 0
    for layer, block in zip(sets.layers, sets.blocks):
        shape = shapes.get(layer)
        if shape is None:
            continue
        key = (id(block), shape.height, shape.width)
        problems = checked.get(key)
        if problems is None:
            problems = checked[key] = partition_problems(block, shape.height, shape.width)
        if len(problems.outside):
            for index in problems.outside.tolist():
                total += 1
                if len(diags) < MAX_DETAIL:
                    diags.append(
                        _error(
                            "sets.partition",
                            f"set {sets.rect(layer, index)} of '{layer}' exceeds the "
                            f"{shape.height}x{shape.width} OFM",
                            layer=layer,
                        )
                    )
            continue
        if problems.overlap is not None:
            total += 1
            if len(diags) < MAX_DETAIL:
                r, c = problems.overlap
                diags.append(
                    _error(
                        "sets.partition",
                        f"Stage I sets of '{layer}' overlap at OFM cell "
                        f"({r}, {c})",
                        layer=layer,
                    )
                )
        if problems.gap is not None:
            total += 1
            if len(diags) < MAX_DETAIL:
                r, c = problems.gap
                diags.append(
                    _error(
                        "sets.partition",
                        f"Stage I sets of '{layer}' leave OFM cell ({r}, {c}) "
                        "uncovered",
                        layer=layer,
                    )
                )
    return _summarize(diags, "sets.partition", total, "partition problem(s)")
