"""JSON (de)serialization of IR graphs and compiled artifacts.

Geometry (op types, attributes, wiring) always round-trips; numeric
parameters (weights, biases, BN statistics) are included only when
``include_params=True`` since schedules never depend on them.

Beyond bare graphs, this module defines the **compiled-artifact
format**: a versioned JSON document carrying everything a
:class:`~repro.core.pipeline.CompiledModel` produced — architecture,
options, graphs, placement, Stage I sets, the schedule, and the
duplication solution/rewrite bookkeeping (set-level dependencies are
opt-in; they are large and cheap to recompute).  ``save_compiled`` /
``load_compiled`` round-trip a compilation so a schedule computed once
can be re-evaluated, plotted, or shipped without recompiling.

The artifact helpers import compiler types lazily inside functions:
``repro.core.cache`` imports this module at load time, so a top-level
import of ``repro.core`` here would be circular.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from itertools import chain
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .graph import Graph
from .ops import OP_TYPES, Op
from .tensor import Rect, Shape

#: Op attribute names that hold numpy parameter arrays.
_PARAM_FIELDS = ("weights", "bias", "gamma", "beta", "mean", "variance")

#: Schema version written into every serialized graph.
FORMAT_VERSION = 1

#: Schema version of the compiled-artifact format.  Version 2 added
#: the columnar schedule record (``schedule.columns`` instead of
#: ``schedule.tasks``); version-1 artifacts still load.
ARTIFACT_FORMAT_VERSION = 2

#: Artifact schema versions the loader accepts.
_SUPPORTED_ARTIFACT_VERSIONS = (1, 2)

#: Document marker of the compiled-artifact format.
ARTIFACT_FORMAT = "clsa-cim-compiled"


def _array_from_record(record: Any) -> np.ndarray:
    return np.asarray(record["data"], dtype=record["dtype"]).reshape(record["shape"])


def _tuple_if_list(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


def _converter(name: str) -> Callable[[Any], Any]:
    if name in _PARAM_FIELDS:
        return _array_from_record
    if name == "shape":
        return Shape.from_tuple
    return _tuple_if_list


@functools.cache
def _converters(cls: type) -> dict[str, Callable[[Any], Any]]:
    """Field name → converter from its JSON value, for every field of one
    op class in declaration order (built once per class).

    The one per-attribute conversion: :func:`op_from_dict` and the row
    decoder :func:`graph_from_rows` both read values through it.
    """
    return {field.name: _converter(field.name) for field in dataclasses.fields(cls)}


@functools.cache
def _attr_names(cls: type) -> tuple[str, ...]:
    """The fields of one op class that records store as attributes, in
    ``__init__`` order (after ``name`` and ``inputs``)."""
    return tuple(
        field.name
        for field in dataclasses.fields(cls)
        if field.init and field.name not in ("name", "inputs")
    )


def _attr_to_json(name: str, value: Any) -> Any:
    """The JSON value of one non-``None`` attribute (inverse of its converter)."""
    if name in _PARAM_FIELDS:
        array = np.asarray(value)
        return {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "data": array.reshape(-1).tolist(),
        }
    if isinstance(value, Shape):
        return list(value.hwc)
    if isinstance(value, tuple):
        return list(value)
    return value


def op_to_dict(op: Op, include_params: bool = False) -> dict[str, Any]:
    """Serialize one operator to a JSON-compatible dict."""
    attrs: dict[str, Any] = {}
    for name in _attr_names(type(op)):
        value = getattr(op, name)
        if name in _PARAM_FIELDS and not (include_params and value is not None):
            continue
        attrs[name] = _attr_to_json(name, value)
    return {"type": op.op_type, "name": op.name, "inputs": list(op.inputs), "attrs": attrs}


def op_from_dict(record: dict[str, Any]) -> Op:
    """Deserialize one operator from :func:`op_to_dict` output."""
    op_type = record.get("type")
    if op_type not in OP_TYPES:
        raise ValueError(f"unknown op type {op_type!r}")
    cls = OP_TYPES[op_type]
    converters = _converters(cls)
    kwargs: dict[str, Any] = {}
    for key, value in record.get("attrs", {}).items():
        convert = converters.get(key)
        if convert is None:
            raise ValueError(f"op type {op_type!r} has no attribute {key!r}")
        kwargs[key] = convert(value)
    return cls(record["name"], list(record.get("inputs", [])), **kwargs)


def graph_to_dict(graph: Graph, include_params: bool = False) -> dict[str, Any]:
    """Serialize a graph (nodes in topological order) to a dict."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            op_to_dict(graph[name], include_params=include_params)
            for name in graph.topological_order()
        ],
    }


def graph_from_dict(record: dict[str, Any]) -> Graph:
    """Deserialize a graph from :func:`graph_to_dict` output."""
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {version!r}")
    graph = Graph(record.get("name", "model"))
    for node in record["nodes"]:
        graph.add(op_from_dict(node))
    return graph


def graph_to_rows(graph: Graph) -> dict[str, Any]:
    """A graph, parameters included, as positional op rows.

    ``types`` lists each op type once with its attribute names; each op
    is one row ``[type index, name, inputs, attribute values...]`` in
    topological order, an attribute that is ``None`` stored as ``None``.
    The artifact store keeps graphs in this form: it parses and builds
    faster than the :func:`graph_to_dict` records, which repeat every
    key per op.
    """
    index_of: dict[type, int] = {}
    types: list[list[Any]] = []
    rows: list[list[Any]] = []
    for name in graph.topological_order():
        op = graph[name]
        cls = type(op)
        if cls not in index_of:
            index_of[cls] = len(types)
            types.append([op.op_type, list(_attr_names(cls))])
        row = [index_of[cls], op.name, list(op.inputs)]
        for attr in _attr_names(cls):
            value = getattr(op, attr)
            row.append(None if value is None else _attr_to_json(attr, value))
        rows.append(row)
    return {"name": graph.name, "types": types, "rows": rows}


def graph_from_rows(record: dict[str, Any]) -> Graph:
    """Deserialize a graph from :func:`graph_to_rows` output.

    Ops are added in row order, so the graph's topological order is the
    stored one.  Each type's attribute names must be those its class
    has now: rows pass their values to the class positionally.
    """
    types = []
    for op_type, names in record["types"]:
        if op_type not in OP_TYPES:
            raise ValueError(f"unknown op type {op_type!r}")
        cls = OP_TYPES[op_type]
        if tuple(names) != _attr_names(cls):
            raise ValueError(
                f"op type {op_type!r} has attributes {list(_attr_names(cls))}, not {names!r}"
            )
        table = _converters(cls)
        types.append((cls, [table[name] for name in names]))
    graph = Graph(record["name"])
    for index, name, inputs, *values in record["rows"]:
        cls, converters = types[index]
        if len(values) != len(converters):
            raise ValueError(f"op {name!r} has {len(values)} of {len(converters)} attributes")
        converted = [
            None if value is None else convert(value)
            for convert, value in zip(converters, values)
        ]
        graph.add(cls(name, inputs, *converted))
    return graph


def dumps(graph: Graph, include_params: bool = False, indent: Optional[int] = None) -> str:
    """Serialize a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph, include_params=include_params), indent=indent)


def loads(text: str) -> Graph:
    """Deserialize a graph from a JSON string."""
    return graph_from_dict(json.loads(text))


def save(graph: Graph, path: str, include_params: bool = False) -> None:
    """Write a graph to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(graph, include_params=include_params, indent=2))


def load(path: str) -> Graph:
    """Read a graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# ---------------------------------------------------------------------------
# compiled-artifact format
# ---------------------------------------------------------------------------


def _rect_to_list(rect: Rect) -> list[int]:
    return [rect.r0, rect.c0, rect.r1, rect.c1]


def _rect_from_list(values: Any) -> Rect:
    r0, c0, r1, c1 = values
    return Rect(int(r0), int(c0), int(r1), int(c1))


@contextlib.contextmanager
def required_fields(record: str, error: type[ValueError] = ValueError) -> Iterator[None]:
    """Raise a field missing from a decoded ``record`` as ``error`` naming it.

    Usable as a decorator on a whole decoder.
    """
    try:
        yield
    except KeyError as exc:
        raise error(f"{record} is missing field {exc.args[0]!r}") from None


def arch_to_dict(arch: Any) -> dict[str, Any]:
    """Serialize an :class:`~repro.arch.config.ArchitectureConfig`."""
    return {
        "name": arch.name,
        "num_pes": arch.num_pes,
        "tile": {
            "pes_per_tile": arch.tile.pes_per_tile,
            "input_buffer_bytes": arch.tile.input_buffer_bytes,
            "output_buffer_bytes": arch.tile.output_buffer_bytes,
            "crossbar": dataclasses.asdict(arch.tile.crossbar),
            "gpeu": {
                "supported_ops": list(arch.tile.gpeu.supported_ops),
                "throughput_per_cycle": arch.tile.gpeu.throughput_per_cycle,
            },
        },
        "noc": dataclasses.asdict(arch.noc),
        "dram": dataclasses.asdict(arch.dram),
    }


@required_fields("architecture record")
def arch_from_dict(record: dict[str, Any]) -> Any:
    """Deserialize an :class:`~repro.arch.config.ArchitectureConfig`."""
    from ..arch.config import ArchitectureConfig
    from ..arch.memory import DramSpec
    from ..arch.noc import NocSpec
    from ..arch.pe import CrossbarSpec
    from ..arch.tile import GpeuSpec, TileSpec

    tile = record["tile"]
    return ArchitectureConfig(
        num_pes=record["num_pes"],
        name=record.get("name", "cim"),
        tile=TileSpec(
            pes_per_tile=tile["pes_per_tile"],
            input_buffer_bytes=tile["input_buffer_bytes"],
            output_buffer_bytes=tile["output_buffer_bytes"],
            crossbar=CrossbarSpec(**tile["crossbar"]),
            gpeu=GpeuSpec(
                supported_ops=tuple(tile["gpeu"]["supported_ops"]),
                throughput_per_cycle=tile["gpeu"]["throughput_per_cycle"],
            ),
        ),
        noc=NocSpec(**record["noc"]),
        dram=DramSpec(**record["dram"]),
    )


def options_to_dict(options: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.pipeline.ScheduleOptions`.

    ``asdict`` recurses into the nested granularity dataclass.
    """
    return dataclasses.asdict(options)


#: Options fields that earlier artifacts and wire payloads record but
#: that no longer exist.  ``engine`` picked between two Stage IV
#: implementations that produced identical schedules.
RETIRED_OPTION_FIELDS = frozenset({"engine"})


def options_from_dict(record: dict[str, Any]) -> Any:
    """Deserialize a :class:`~repro.core.pipeline.ScheduleOptions`.

    Fields missing from ``record`` take their defaults; retired fields
    are dropped; any other unknown or malformed field raises a
    :class:`ValueError` that names it.

    Mapping/scheduler names are *not* re-validated against the
    registries: an artifact compiled with a registered plugin must load
    (and evaluate, plot, re-serialize) in a process where that plugin
    was never imported — no pass runs on a loaded artifact, so the
    names are recorded provenance, not dispatch targets.
    """
    from ..core.pipeline import ScheduleOptions
    from ..core.sets import SetGranularity

    fields = {field.name: field for field in dataclasses.fields(ScheduleOptions)}
    unknown = sorted(set(record) - set(fields) - RETIRED_OPTION_FIELDS)
    if unknown:
        raise ValueError(f"unknown schedule options field(s): {', '.join(unknown)}")
    kwargs = {name: record[name] for name in fields if name in record}
    if "granularity" in kwargs:
        try:
            kwargs["granularity"] = SetGranularity(**kwargs["granularity"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad schedule options field granularity: {exc}") from exc
    try:
        return ScheduleOptions(**kwargs)
    except ValueError:
        # Unregistered plugin name: bypass __post_init__'s registry
        # check but keep the structural order_mode validation.
        if kwargs.get("order_mode", "dynamic") not in ("dynamic", "static"):
            raise
        options = object.__new__(ScheduleOptions)
        for name, field in fields.items():
            object.__setattr__(options, name, kwargs.get(name, field.default))
        return options


#: Column names of the columnar schedule record, in storage order.
_SCHEDULE_COLUMNS = (
    "layer_id",
    "set_index",
    "start",
    "end",
    "image",
    "r0",
    "c0",
    "r1",
    "c1",
)


def schedule_to_dict(schedule: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.schedule.Schedule`.

    The record is columnar: one list per column plus the layer-name
    table, which round-trips without materializing any
    :class:`~repro.core.schedule.SetTask`.
    """
    cols = schedule.columns()
    return {
        "policy": schedule.policy,
        "columns": {
            "layers": list(cols.layers),
            **{name: getattr(cols, name).tolist() for name in _SCHEDULE_COLUMNS},
        },
    }


def schedule_from_dict(record: dict[str, Any]) -> Any:
    """Deserialize a :class:`~repro.core.schedule.Schedule`.

    Accepts the columnar record and the per-task record, which
    version-1 artifacts and earlier releases' row-built schedules hold;
    per-task input is converted to columns once.
    """
    from ..core.schedule import Schedule, ScheduleColumns, SetTask

    columns = record.get("columns")
    if columns is not None:
        int32 = ("layer_id", "set_index", "image", "r0", "c0", "r1", "c1")
        return Schedule(
            policy=record["policy"],
            columns=ScheduleColumns(
                layers=tuple(columns["layers"]),
                **{
                    name: np.asarray(
                        columns[name],
                        dtype=np.int32 if name in int32 else np.int64,
                    )
                    for name in _SCHEDULE_COLUMNS
                },
            ),
        )
    return Schedule(
        policy=record["policy"],
        tasks=[
            SetTask(
                layer=layer,
                set_index=set_index,
                rect=_rect_from_list(rect),
                start=start,
                end=end,
                image=image,
            )
            for layer, set_index, rect, start, end, image in record["tasks"]
        ],
    )


def _sets_to_dict(sets: Any) -> dict[str, list[list[int]]]:
    """Per layer, the ``[r0, c0, r1, c1]`` list of each set, from the columns."""
    from ..core.sets import SetPartition

    sets = SetPartition.of(sets)
    rows = sets.coords.T.tolist()
    bounds = sets.offsets.tolist()
    return {layer: rows[lo:hi] for layer, lo, hi in zip(sets.layers, bounds, bounds[1:])}


def _sets_from_dict(record: dict[str, Any]) -> Any:
    """The :class:`~repro.core.sets.SetPartition` of a ``sets`` record."""
    from ..core.sets import SetPartition, set_offsets

    lists = list(record.values())
    rows = [rect for rects in lists for rect in rects]
    coords = np.array(rows, dtype=np.int64) if rows else np.empty((0, 4), dtype=np.int64)
    if coords.shape != (len(rows), 4):
        raise ValueError("a set is not an [r0, c0, r1, c1] list")
    return SetPartition.from_columns(
        list(record), set_offsets(map(len, lists)), np.ascontiguousarray(coords.T)
    )


def _duplication_to_dict(solution: Any) -> dict[str, Any]:
    problem = solution.problem
    return {
        "problem": {
            "layers": list(problem.layers),
            "t": list(problem.t),
            "c": list(problem.c),
            "budget": problem.budget,
            "d_max": list(problem.d_max),
        },
        "d": dict(solution.d),
        "method": solution.method,
    }


def _duplication_from_dict(record: dict[str, Any]) -> Any:
    from ..mapping.duplication import DuplicationProblem, DuplicationSolution

    problem = record["problem"]
    return DuplicationSolution(
        problem=DuplicationProblem(
            layers=tuple(problem["layers"]),
            t=tuple(problem["t"]),
            c=tuple(problem["c"]),
            budget=problem["budget"],
            d_max=tuple(problem["d_max"]),
        ),
        d=dict(record["d"]),
        method=record["method"],
    )


def _rewrite_to_dict(rewrite: Any) -> dict[str, Any]:
    return {
        "origin_of": dict(rewrite.origin_of),
        "duplicated": {
            original: {
                "axis": entry.axis,
                "duplicates": list(entry.duplicates),
                "slices": list(entry.slices),
                "concat": entry.concat,
                "ranges": [list(pair) for pair in entry.ranges],
            }
            for original, entry in rewrite.duplicated.items()
        },
    }


def _rewrite_from_dict(record: dict[str, Any], mapped: Graph) -> Any:
    from ..mapping.rewrite import DuplicatedLayer, RewriteReport

    return RewriteReport(
        graph=mapped,
        origin_of=dict(record["origin_of"]),
        duplicated={
            original: DuplicatedLayer(
                original=original,
                axis=entry["axis"],
                duplicates=list(entry["duplicates"]),
                slices=list(entry["slices"]),
                concat=entry["concat"],
                ranges=[tuple(pair) for pair in entry["ranges"]],
            )
            for original, entry in record["duplicated"].items()
        },
    )


def _dependencies_to_list(dependencies: Any) -> list[list[Any]]:
    """Per set, in set-id order: ``[layer, set index, [[layer, set index], ...]]``."""
    arrays = dependencies.arrays
    names = [arrays.layers[lid] for lid in arrays.layer_of.tolist()]
    index = arrays.set_index.tolist()
    indptr = arrays.indptr.tolist()
    preds = [[names[gid], index[gid]] for gid in arrays.indices.tolist()]
    return [
        [name, si, preds[lo:hi]]
        for name, si, lo, hi in zip(names, index, indptr, indptr[1:])
    ]


def _dependencies_from_list(entries: Any, sets: Any) -> Any:
    """The dependency graph of a ``dependencies`` record, decoded to CSR.

    Raises a :class:`ValueError` naming the entry when a set is missing
    or listed twice, or a reference is not a ``[layer, set index]`` pair
    of an existing set.
    """
    from ..core.dependencies import DependencyCSR

    base = dict(zip(sets.layers, sets.offsets.tolist()))
    count = dict(zip(sets.layers, np.diff(sets.offsets).tolist()))

    def gid(ref: Any, entry: Any) -> int:
        if not (isinstance(ref, list) and len(ref) == 2 and isinstance(ref[1], int)):
            raise ValueError(f"dependencies entry {entry!r}: {ref!r} is not a [layer, index] pair")
        layer, index = ref
        if not isinstance(layer, str) or layer not in base:
            raise ValueError(f"dependencies entry {entry!r}: unknown layer {layer!r}")
        if not 0 <= index < count[layer]:
            raise ValueError(
                f"dependencies entry {entry!r}: layer {layer!r} has no set {index} "
                f"({count[layer]} sets)"
            )
        return base[layer] + index

    preds: dict[int, list[int]] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)):
            raise ValueError(f"dependencies entry {entry!r} is not [layer, index, predecessors]")
        at = gid(entry[:2], entry)
        if at in preds:
            raise ValueError(f"dependencies entry {entry!r}: set listed twice")
        preds[at] = [gid(ref, entry) for ref in entry[2]]
    n = sets.num_sets
    if len(preds) < n:
        at = next(at for at in range(n) if at not in preds)
        layer = sets.layers[int(np.searchsorted(sets.offsets, at, side="right")) - 1]
        raise ValueError(
            f"dependencies record has no entry for set [{layer!r}, {at - base[layer]}]"
        )
    rows = [preds[at] for at in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    return DependencyCSR(sets.layers, sets.offsets, indptr, indices).paired(sets)


def compiled_to_dict(
    compiled: Any,
    include_params: bool = False,
    include_dependencies: bool = False,
) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.pipeline.CompiledModel`.

    ``mapped`` is stored as ``None`` when it is the canonical graph
    (no duplication rewrite); set-level dependencies are only stored
    when ``include_dependencies`` is set — they dominate the artifact
    size and :func:`compiled_from_dict` leaves them ``None`` otherwise.
    """
    mapped_is_canonical = compiled.mapped is compiled.canonical
    record: dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_FORMAT_VERSION,
        "arch": arch_to_dict(compiled.arch),
        "options": options_to_dict(compiled.options),
        "canonical": graph_to_dict(compiled.canonical, include_params=include_params),
        "mapped": (
            None
            if mapped_is_canonical
            else graph_to_dict(compiled.mapped, include_params=include_params)
        ),
        "placement": {
            "pe_ranges": {
                layer: list(pe_range)
                for layer, pe_range in compiled.placement.pe_ranges.items()
            }
        },
        "sets": _sets_to_dict(compiled.sets),
        "schedule": schedule_to_dict(compiled.schedule),
        "duplication": (
            None
            if compiled.duplication is None
            else _duplication_to_dict(compiled.duplication)
        ),
        "rewrite": (
            None if compiled.rewrite is None else _rewrite_to_dict(compiled.rewrite)
        ),
        "timings": dict(compiled.timings),
        "diagnostics": list(compiled.diagnostics),
    }
    if include_dependencies and compiled.dependencies is not None:
        record["dependencies"] = _dependencies_to_list(compiled.dependencies)
    return record


@required_fields("artifact record")
def compiled_from_dict(record: dict[str, Any]) -> Any:
    """Deserialize a :class:`~repro.core.pipeline.CompiledModel`.

    Placement tilings are recomputed from the mapped graph and the
    crossbar geometry (they are deterministic, cheap, and much larger
    than the stored ``pe_ranges``); dependencies are restored only when
    the artifact carried them.
    """
    from ..core.pipeline import CompiledModel
    from ..mapping.placement import Placement
    from ..mapping.tiling import tile_graph

    if record.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a {ARTIFACT_FORMAT} artifact (format={record.get('format')!r})"
        )
    version = record.get("format_version")
    if version not in _SUPPORTED_ARTIFACT_VERSIONS:
        raise ValueError(f"unsupported artifact format version {version!r}")

    arch = arch_from_dict(record["arch"])
    canonical = graph_from_dict(record["canonical"])
    mapped = (
        canonical if record["mapped"] is None else graph_from_dict(record["mapped"])
    )
    sets = _sets_from_dict(record["sets"])
    placement = Placement(
        arch=arch,
        pe_ranges={
            layer: (int(start), int(end))
            for layer, (start, end) in record["placement"]["pe_ranges"].items()
        },
        tilings=tile_graph(mapped, arch.crossbar),
    )
    dependencies = None
    if record.get("dependencies") is not None:
        dependencies = _dependencies_from_list(record["dependencies"], sets)
    return CompiledModel(
        arch=arch,
        options=options_from_dict(record["options"]),
        canonical=canonical,
        mapped=mapped,
        placement=placement,
        schedule=schedule_from_dict(record["schedule"]),
        duplication=(
            None
            if record["duplication"] is None
            else _duplication_from_dict(record["duplication"])
        ),
        rewrite=(
            None
            if record["rewrite"] is None
            else _rewrite_from_dict(record["rewrite"], mapped)
        ),
        sets=sets,
        dependencies=dependencies,
        timings=dict(record.get("timings", {})),
        diagnostics=list(record.get("diagnostics", [])),
    )


def dumps_compiled(
    compiled: Any,
    indent: Optional[int] = None,
    include_params: bool = False,
    include_dependencies: bool = False,
) -> str:
    """Serialize a compiled model to the artifact JSON string."""
    return json.dumps(
        compiled_to_dict(
            compiled,
            include_params=include_params,
            include_dependencies=include_dependencies,
        ),
        indent=indent,
    )


def loads_compiled(text: str) -> Any:
    """Deserialize a compiled model from an artifact JSON string."""
    return compiled_from_dict(json.loads(text))


def save_compiled(
    compiled: Any,
    path: str,
    include_params: bool = False,
    include_dependencies: bool = False,
) -> None:
    """Write a compiled model's artifact JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            dumps_compiled(
                compiled,
                indent=2,
                include_params=include_params,
                include_dependencies=include_dependencies,
            )
        )


def load_compiled(path: str) -> Any:
    """Read a compiled model back from :func:`save_compiled` output."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_compiled(handle.read())
