"""The store codecs of graphs and tilings: op rows, the carried
fingerprint, int tiling blocks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_random_models import random_models

from repro import Session
from repro.arch import paper_case_study
from repro.core import ScheduleOptions
from repro.core import cache as cache_module
from repro.core.cache import CompilationCache, _graph_fingerprint_uncached, graph_fingerprint
from repro.frontend import preprocess
from repro.ir import Graph
from repro.ir.ops import OP_TYPES
from repro.ir.serialize import _PARAM_FIELDS, _attr_names, graph_from_rows, graph_to_rows
from repro.ir.tensor import Shape
from repro.mapping import minimum_pe_requirement
from repro.mapping.placement import place_graph
from repro.mapping.tiling import tile_graph
from repro.models import build
from repro.models.zoo import MODELS
from repro.store import ArtifactStore, codec_for
from repro.store.disk import _pack_entry, _unpack_entry


def _round_trip(stage, value):
    codec = codec_for(stage)
    return _unpack_entry(_pack_entry(stage, codec, value), stage, codec)


def _params(dtype, *shape):
    return np.arange(np.prod(shape), dtype=dtype).reshape(shape) / 7


def sample_attrs(dtype):
    """Op type → non-default values of every attribute it stores."""
    return {
        "Input": {"shape": Shape(6, 5, 3)},
        "Conv2D": {
            "out_channels": 4,
            "kernel": (3, 2),
            "strides": (2, 1),
            "padding": "same",
            "use_bias": True,
            "weights": _params(dtype, 3, 2, 3, 4),
            "bias": _params(dtype, 4),
        },
        "Dense": {
            "units": 5,
            "use_bias": True,
            "weights": _params(dtype, 3, 5),
            "bias": _params(dtype, 5),
        },
        "BatchNorm": {
            "gamma": _params(dtype, 3),
            "beta": _params(dtype, 3) - 1,
            "mean": _params(dtype, 3) + 0.5,
            "variance": _params(dtype, 3) + 1,
            "epsilon": 1e-5,
        },
        "BiasAdd": {"bias": _params(dtype, 3)},
        "Pad": {"pad_top": 1, "pad_bottom": 2, "pad_left": 3, "pad_right": 4, "value": -1.5},
        "Activation": {"kind": "leaky_relu", "alpha": 0.2},
        "MaxPool": {"pool": (3, 3), "strides": (1, 2), "padding": "same"},
        "AvgPool": {"pool": (2, 3), "strides": (2, 2), "padding": "same"},
        "GlobalAvgPool": {},
        "Add": {},
        "Concat": {},
        "ConcatSpatial": {"axis": "width"},
        "Slice": {"offsets": (1, 0, 2), "sizes": (2, -1, 1)},
        "Upsample": {"factor": 3},
        "Flatten": {},
        "Identity": {},
    }


def every_op_graph(dtype):
    """One op of every type, each with every attribute set."""
    graph = Graph("every-op")
    for op_type, attrs in sample_attrs(dtype).items():
        cls = OP_TYPES[op_type]
        inputs = [] if op_type == "Input" else ["Input"]
        graph.add(cls(op_type, inputs, **attrs))
    return graph


def assert_same_ops(got, want):
    assert got.name == want.name
    assert got.topological_order() == want.topological_order()
    for name in want.topological_order():
        a, b = got[name], want[name]
        assert type(a) is type(b) and a.inputs == b.inputs
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name in _PARAM_FIELDS and y is not None:
                assert x.dtype == y.dtype and x.shape == y.shape, (name, field.name)
                np.testing.assert_array_equal(x, y)
            else:
                assert type(x) is type(y) and x == y, (name, field.name)


class TestGraphRows:
    def test_samples_cover_every_op_type_and_attribute(self):
        attrs = sample_attrs(np.float32)
        assert set(attrs) == set(OP_TYPES)
        for op_type, values in attrs.items():
            cls = OP_TYPES[op_type]
            assert set(values) == set(_attr_names(cls)), op_type
            for field in dataclasses.fields(cls):
                if field.name in values and field.name not in _PARAM_FIELDS:
                    assert values[field.name] != field.default, (op_type, field.name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_op_type_round_trips(self, dtype):
        graph = every_op_graph(dtype)
        decoded = _round_trip("preprocess", graph)
        assert_same_ops(decoded, graph)

    def test_params_absent_stay_absent(self):
        graph = every_op_graph(np.float64)
        for op in graph:
            for name in _PARAM_FIELDS:
                if hasattr(op, name):
                    setattr(op, name, None)
        decoded = graph_from_rows(graph_to_rows(graph))
        assert_same_ops(decoded, graph)

    def test_rows_keep_the_stored_order(self):
        canonical = preprocess(build("tinyyolov4"), quantization=None).graph
        record = graph_to_rows(canonical)
        assert [row[1] for row in record["rows"]] == canonical.topological_order()
        decoded = graph_from_rows(record)
        assert decoded.node_names() == canonical.topological_order()

    def test_unknown_type_or_attribute_raises(self):
        record = graph_to_rows(every_op_graph(np.float32))
        with pytest.raises(ValueError, match="unknown op type"):
            graph_from_rows({**record, "types": [["Warp", []]]})
        types = [list(entry) for entry in record["types"]]
        types[1] = [types[1][0], types[1][1][::-1]]
        with pytest.raises(ValueError, match="has attributes"):
            graph_from_rows({**record, "types": types})
        rows = [list(row) for row in record["rows"]]
        rows[1] = rows[1][:-1]
        with pytest.raises(ValueError, match="attributes"):
            graph_from_rows({**record, "rows": rows})


class TestCarriedFingerprint:
    """The ``preprocess`` entry carries the canonical graph's fingerprint,
    and decoding registers it for the decoded graph."""

    @staticmethod
    def check(graph, monkeypatch):
        want = _graph_fingerprint_uncached(graph)
        meta, _blocks = codec_for("preprocess").encode(graph)
        assert meta["fingerprint"] == want
        decoded = _round_trip("preprocess", graph)
        assert _graph_fingerprint_uncached(decoded) == want
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "_graph_fingerprint_uncached", calls.append)
            assert graph_fingerprint(decoded) == want
        assert calls == []

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zoo_models(self, model, monkeypatch):
        self.check(preprocess(build(model), quantization=None).graph, monkeypatch)

    @pytest.mark.parametrize("model", ["tiny_csp", "tiny_residual"])
    def test_zoo_models_with_weights(self, model, monkeypatch):
        graph = build(model)
        graph.initialize_weights(seed=3)
        self.check(preprocess(graph, quantization=None).graph, monkeypatch)

    @settings(max_examples=20)
    @given(model=random_models(), weights=st.booleans())
    def test_random_graphs(self, model, weights):
        if weights:
            model.initialize_weights(seed=1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(preprocess(model, quantization=None).graph, monkeypatch)

    @pytest.mark.parametrize("model", ["tinyyolov4", "resnet152"])
    def test_warm_recompiles_hash_no_graph(self, model, tmp_path, monkeypatch):
        """Recompiles of a reused raw graph from a warm store fingerprint
        nothing: the raw graph's hash is memoized, the canonical one
        carried by the entry."""
        graph = build(model)
        canonical = preprocess(graph, quantization=None).graph
        crossbar = paper_case_study(1).crossbar
        arch = paper_case_study(minimum_pe_requirement(canonical, crossbar) + 16)
        store = ArtifactStore(str(tmp_path / "store"))
        configs = [ScheduleOptions(mapping=mapping) for mapping in ("none", "wdup")]
        with Session(arch, store=store) as warm:
            for options in configs:
                warm.compile(graph, options)
        calls = []
        uncached = cache_module._graph_fingerprint_uncached
        monkeypatch.setattr(
            cache_module,
            "_graph_fingerprint_uncached",
            lambda g: calls.append(g) or uncached(g),
        )
        for options in configs:
            cache = CompilationCache(store=store)
            with Session(arch, cache=cache) as session:
                session.compile(graph, options)
            assert cache.misses == 0 and cache.store_hits > 0
        assert calls == []


class TestTilingBlocks:
    @pytest.fixture(scope="class")
    def graphs(self):
        canonical = preprocess(build("tinyyolov4"), quantization=None).graph
        crossbar = paper_case_study(1).crossbar
        arch = paper_case_study(minimum_pe_requirement(canonical, crossbar) + 16)
        with Session(arch) as session:
            mapped = session.compile(canonical, ScheduleOptions(mapping="wdup")).mapped
        return arch, {"none": canonical, "wdup": mapped}

    @pytest.mark.parametrize("mapping", ["none", "wdup"])
    def test_tilings_round_trip(self, graphs, mapping):
        arch, by_mapping = graphs
        tilings = tile_graph(by_mapping[mapping], arch.crossbar)
        meta, blocks = codec_for("tile").encode(tilings)
        assert meta == {"layers": list(tilings)}
        assert {name: block.dtype for name, block in blocks.items()} == {
            "gemm": np.int64, "pe_grid": np.int64
        }
        assert blocks["gemm"].shape == (len(tilings), 6)
        back = _round_trip("tile", tilings)
        assert back == tilings and list(back) == list(tilings)

    @pytest.mark.parametrize("mapping", ["none", "wdup"])
    def test_placement_round_trips(self, graphs, mapping):
        arch, by_mapping = graphs
        placement = place_graph(by_mapping[mapping], arch)
        back = _round_trip("place", placement)
        assert back == placement
        assert list(back.pe_ranges) == list(placement.pe_ranges)
        assert list(back.tilings) == list(placement.tilings)

    def test_inconsistent_blocks_raise(self, graphs):
        arch, by_mapping = graphs
        codec = codec_for("tile")
        meta, blocks = codec.encode(tile_graph(by_mapping["none"], arch.crossbar))
        with pytest.raises(ValueError, match="inconsistent"):
            codec.decode({"layers": meta["layers"][:-1]}, blocks)
        with pytest.raises(ValueError, match="inconsistent"):
            codec.decode(meta, {**blocks, "pe_grid": blocks["pe_grid"].reshape(-1)})
