"""The disk-backed artifact store: publish, integrity, GC, stats."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_case_study
from repro.core import (
    DependencyCSR,
    PartitionMismatchError,
    ScheduleOptions,
    SetPartition,
    determine_dependencies,
    determine_sets,
)
from repro.core.cache import CompilationCache, graph_fingerprint
from repro.core.pipeline import compile_model
from repro.frontend import preprocess
from repro.models import tiny_sequential
from repro.store import CODECS, ArtifactStore, codec_for
from repro.store.disk import _pack_entry, _unpack_entry
from repro.store.keys import encode_key, key_digest


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _graph_key(canonical):
    return ("preprocess", graph_fingerprint(canonical))


def _split_entry(path):
    """(header record, body bytes) of one format-2 entry file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    line, body = raw.split(b"\n", 1)
    return json.loads(line), body


def _write_entry(path, header, body):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + body)


class TestLayout:
    def test_directories_and_meta_created(self, store):
        for name in ("objects", "tmp", "quarantine"):
            assert os.path.isdir(os.path.join(store.root, name))
        with open(os.path.join(store.root, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta == {"format": "clsa-cim-store", "schema": 2}

    def test_path_alias(self, store):
        assert store.path == store.root


class TestRoundTrip:
    def test_preprocess_graph_round_trips(self, store, canonical):
        key = _graph_key(canonical)
        assert store.put("preprocess", key, canonical)
        hit, value = store.get("preprocess", key)
        assert hit
        assert graph_fingerprint(value) == graph_fingerprint(canonical)

    def test_every_pipeline_stage_round_trips(self, store, canonical):
        """Compile once through a store-backed cache, then read every
        published stage back from a *fresh* store handle."""
        cache = CompilationCache(store=store)
        compiled = compile_model(
            canonical,
            paper_case_study(40),
            ScheduleOptions(),
            cache=cache,
            assume_canonical=True,
        )
        stats = store.stats()
        for stage in ("tile", "wdup", "place", "sets", "deps", "schedule"):
            assert stage in stats.per_stage, f"{stage} never published"
        reread = ArtifactStore(store.root)
        cache2 = CompilationCache(store=reread)
        compiled2 = compile_model(
            canonical,
            paper_case_study(40),
            ScheduleOptions(),
            cache=cache2,
            assume_canonical=True,
        )
        assert cache2.misses == 0
        assert (
            compiled2.schedule.makespan == compiled.schedule.makespan
        )
        m1, m2 = compiled.evaluate(), compiled2.evaluate()
        assert m1.latency_cycles == m2.latency_cycles
        assert m1.utilization == m2.utilization

    def test_unknown_stage_is_memory_only(self, store):
        assert codec_for("mapping") is None
        assert not store.put("mapping", ("mapping", "x"), object())
        assert store.get("mapping", ("mapping", "x")) == (False, None)

    def test_unencodable_key_is_memory_only(self, store, canonical):
        key = ("preprocess", object())
        assert not store.put("preprocess", key, canonical)
        assert store.get("preprocess", key) == (False, None)

    def test_missing_entry_is_a_miss(self, store):
        hit, value = store.get("preprocess", ("preprocess", "nope"))
        assert (hit, value) == (False, None)
        assert store.misses == 1


class TestAtomicity:
    def test_publish_leaves_no_tmp_litter(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        assert os.listdir(os.path.join(store.root, "tmp")) == []

    def test_second_put_is_idempotent(self, store, canonical):
        key = _graph_key(canonical)
        assert store.put("preprocess", key, canonical)
        assert store.put("preprocess", key, canonical)
        assert len(store.index()) == 1

    def test_tmp_litter_invisible_to_get(self, store, canonical):
        """A writer killed mid-publish leaves only a tmp file — readers
        must not see a partial entry."""
        key = _graph_key(canonical)
        digest = key_digest(key, codec_for("preprocess").version)
        litter = os.path.join(store.root, "tmp", f"{digest}.999.dead")
        with open(litter, "w") as handle:
            handle.write('{"format": "clsa-cim-store-entry", "truncat')
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 0  # a miss, not a corruption

    def test_gc_sweeps_stale_tmp_litter(self, store):
        litter = os.path.join(store.root, "tmp", "deadbeef.1.00")
        with open(litter, "w") as handle:
            handle.write("partial")
        os.utime(litter, (1, 1))  # ancient
        result = store.gc()
        assert result.swept_tmp == 1
        assert not os.path.exists(litter)

    def test_gc_keeps_recent_tmp_files(self, store):
        litter = os.path.join(store.root, "tmp", "deadbeef.1.01")
        with open(litter, "w") as handle:
            handle.write("in flight")
        result = store.gc()
        assert result.swept_tmp == 0
        assert os.path.exists(litter)


class TestIntegrity:
    def _entry_path(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        digest = key_digest(key, codec_for("preprocess").version)
        return key, store._entry_path(digest)

    def test_corrupted_payload_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        header, body = _split_entry(path)
        meta = json.loads(body)
        meta["graph"]["nodes"] = []
        _write_entry(path, header, json.dumps(meta).encode())
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1
        assert not os.path.exists(path)
        assert len(os.listdir(os.path.join(store.root, "quarantine"))) == 1
        # Quarantined entries are not re-read: still a miss, no crash.
        assert store.get("preprocess", key) == (False, None)

    def test_truncated_entry_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "w") as handle:
            handle.write('{"format": "clsa-cim-store-entry"')
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1

    def test_wrong_stage_header_quarantined(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        header, body = _split_entry(path)
        header["stage"] = "schedule"
        _write_entry(path, header, body)  # the body digest still matches
        assert store.get("preprocess", key) == (False, None)
        assert store.corrupt == 1

    def test_quarantine_then_recompute_republishes(self, store, canonical):
        key, path = self._entry_path(store, canonical)
        with open(path, "w") as handle:
            handle.write("garbage")
        cache = CompilationCache(store=store)
        value = cache.get_or_compute(key, lambda: canonical)
        assert value is canonical
        assert cache.misses == 1  # recompiled, not crashed
        hit, _ = store.get("preprocess", key)
        assert hit  # write-through republished a good entry


class TestGC:
    def _fill(self, store, canonical, n=4):
        """Publish n distinct entries by perturbing the key."""
        keys = []
        for i in range(n):
            key = ("preprocess", graph_fingerprint(canonical), i)
            assert store.put("preprocess", key, canonical)
            keys.append(key)
        return keys

    def test_gc_evicts_lru_down_to_budget(self, store, canonical):
        keys = self._fill(store, canonical)
        sizes = [size for _p, size, _m in store._scan_entries()]
        per_entry = sizes[0]
        # Touch the last key so it is most-recently-used.
        paths = sorted(
            store._scan_entries(), key=lambda item: item[2]
        )
        os.utime(paths[0][0], (1, 1))  # force one entry oldest
        result = store.gc(max_bytes=2 * per_entry)
        assert result.evicted_entries == 2
        assert result.remaining_entries == 2
        assert result.remaining_bytes <= 2 * per_entry
        assert not os.path.exists(paths[0][0])

    def test_gc_without_budget_only_sweeps(self, store, canonical):
        self._fill(store, canonical)
        result = store.gc()
        assert result.evicted_entries == 0
        assert result.remaining_entries == 4

    def test_gc_rewrites_manifest(self, store, canonical):
        self._fill(store, canonical)
        store.gc(max_bytes=0)
        assert store.index() == []
        assert store.stats().entries == 0

    def test_gc_counts_quarantine_toward_budget_and_evicts_it_first(
        self, store, canonical
    ):
        keys = self._fill(store, canonical)
        per_entry = store._scan_entries()[0][1]
        # Corrupt one entry so a read sends it to quarantine/.
        digest = key_digest(keys[0], codec_for("preprocess").version)
        with open(store._entry_path(digest), "w") as handle:
            handle.write("garbage")
        assert store.get("preprocess", keys[0]) == (False, None)
        quarantine = os.path.join(store.root, "quarantine")
        assert len(os.listdir(quarantine)) == 1
        # Budget covers the three live entries exactly: the quarantined
        # file is dead weight that must be charged and evicted first.
        result = store.gc(max_bytes=3 * per_entry)
        assert os.listdir(quarantine) == []
        assert result.remaining_entries == 3

    def test_auto_gc_with_standing_budget(self, tmp_path, canonical):
        budgeted = ArtifactStore(str(tmp_path / "b"), max_bytes=1)
        for i in range(3):
            budgeted.put(
                "preprocess", ("preprocess", graph_fingerprint(canonical), i),
                canonical,
            )
        assert budgeted.stats().entries <= 1

    def test_clear_removes_everything(self, store, canonical):
        self._fill(store, canonical)
        removed = store.clear()
        assert removed == 4
        assert store.stats().entries == 0
        assert store.index() == []


class TestManifestAndStats:
    def test_manifest_header_and_records(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        with open(os.path.join(store.root, "manifest.jsonl")) as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": "clsa-cim-store", "schema": 2}
        record = json.loads(lines[1])
        assert record["stage"] == "preprocess"
        assert record["bytes"] > 0

    def test_index_tolerates_torn_final_line(self, store, canonical):
        store.put("preprocess", _graph_key(canonical), canonical)
        with open(os.path.join(store.root, "manifest.jsonl"), "a") as handle:
            handle.write('{"digest": "torn')
        records = store.index()
        assert len(records) == 1

    def test_stats_counts_and_session_counters(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        store.get("preprocess", key)
        store.get("preprocess", ("preprocess", "missing"))
        stats = store.stats()
        assert stats.entries == 1
        assert stats.per_stage["preprocess"][0] == 1
        assert stats.session_hits == 1
        assert stats.session_misses == 1
        assert stats.session_writes == 1
        payload = stats.to_dict()
        assert payload["session"] == {
            "hits": 1,
            "misses": 1,
            "corrupt": 0,
            "writes": 1,
        }

    def test_reopen_existing_store_preserves_entries(self, store, canonical):
        key = _graph_key(canonical)
        store.put("preprocess", key, canonical)
        reopened = ArtifactStore(store.root)
        hit, _ = reopened.get("preprocess", key)
        assert hit


class TestDepsCodec:
    """Version 4 of the ``deps`` codec: the CSR set graph as array blocks,
    without the set rectangles, paired with the sets on decode."""

    @pytest.fixture
    def dependencies(self, canonical):
        return determine_dependencies(canonical, determine_sets(canonical))

    def test_round_trip_never_builds_the_dict_view(self, dependencies):
        codec = codec_for("deps")
        assert codec.version == 4
        meta, blocks = codec.encode(dependencies)
        assert sorted(meta) == ["layers"]
        assert tuple(blocks) == ("counts", "indptr", "indices")
        stored = _unpack_entry(_pack_entry("deps", codec, dependencies), "deps", codec)
        assert isinstance(stored, DependencyCSR)
        back = stored.paired(dependencies.sets)
        assert back.sets is dependencies.sets
        for name in ("offsets", "indptr", "indices", "r0", "c0", "r1", "c1"):
            np.testing.assert_array_equal(
                getattr(back.arrays, name), getattr(dependencies.arrays, name)
            )

    def test_pairing_with_other_sets_rejected(self, dependencies):
        stored = _round_trip("deps", dependencies)
        sets = dependencies.sets
        renamed = SetPartition(("other", *sets.layers[1:]), sets.blocks)
        fewer = SetPartition(sets.layers, [*sets.blocks[:-1], sets.blocks[-1][:, 1:]])
        reordered = SetPartition(sets.layers[::-1], sets.blocks[::-1])
        for other in (renamed, fewer, reordered):
            with pytest.raises(PartitionMismatchError):
                stored.paired(other)
        assert stored.paired(_round_trip("sets", sets)) == dependencies

    def test_inconsistent_payload_rejected(self, dependencies):
        codec = codec_for("deps")
        meta, blocks = codec.encode(dependencies)
        blocks["indices"] = blocks["indices"][:-1]
        with pytest.raises(ValueError):
            codec.decode(meta, blocks)

    def test_v1_entry_never_served_and_gc_reclaims_it(
        self, store, canonical, dependencies, capsys
    ):
        """A schema-1 entry, as the previous release wrote it (one JSON
        document, deps codec 2), sits at its own digest: reads never see
        it, stats still name its stage, and gc reclaims it."""
        from repro.cli import main

        key = ("deps", graph_fingerprint(canonical), "finest")
        arrays = dependencies.arrays
        payload = {
            "layers": list(arrays.layers),
            "counts": np.diff(arrays.offsets).tolist(),
            "rects": np.stack([arrays.r0, arrays.c0, arrays.r1, arrays.c1], axis=1)
            .ravel()
            .tolist(),
            "indptr": arrays.indptr.tolist(),
            "indices": arrays.indices.tolist(),
        }
        canonical_payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        record = {
            "format": "clsa-cim-store-entry",
            "schema": 1,
            "stage": "deps",
            "codec": 2,
            "sha256": hashlib.sha256(canonical_payload.encode()).hexdigest(),
            "payload": payload,
        }
        v1_material = json.dumps(
            {"schema": 1, "codec": 2, "key": encode_key(key)},
            sort_keys=True,
            separators=(",", ":"),
        )
        v1_path = store._entry_path(hashlib.sha256(v1_material.encode()).hexdigest())
        os.makedirs(os.path.dirname(v1_path), exist_ok=True)
        with open(v1_path, "w") as handle:
            handle.write(json.dumps(record, separators=(",", ":")))

        assert store.get("deps", key) == (False, None)
        assert os.path.exists(v1_path)  # never read, so never quarantined
        assert store.corrupt == 0
        assert store.stats().per_stage == {"deps": (1, os.path.getsize(v1_path))}
        assert store.put("deps", key, dependencies)
        v2_path = store._entry_path(key_digest(key, codec_for("deps").version))
        assert v2_path != v1_path
        hit, value = store.get("deps", key)
        assert hit and value.paired(dependencies.sets).edge_count() == dependencies.edge_count()

        os.utime(v1_path, (1, 1))  # the orphan is the least recently used
        budget = os.path.getsize(v2_path)
        assert main(["cache", "gc", "--store", store.root, "--max-bytes", str(budget)]) == 0
        capsys.readouterr()
        assert not os.path.exists(v1_path)
        assert os.path.exists(v2_path)
        assert store.get("deps", key)[0]


# ---------------------------------------------------------------------------
# format 2: real entries of every stage, damaged and forged


@pytest.fixture(scope="module")
def real_entries(tmp_path_factory, canonical):
    """Stage → ``(key, entry bytes)`` of one published entry per codec."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("real") / "store"))
    keys = {}
    put = store.put

    def recording_put(stage, key, value):
        keys.setdefault(stage, key)
        return put(stage, key, value)

    store.put = recording_put
    store.put("preprocess", _graph_key(canonical), canonical)
    compile_model(
        canonical,
        paper_case_study(40),
        ScheduleOptions(),
        cache=CompilationCache(store=store),
        assume_canonical=True,
    )
    assert sorted(keys) == sorted(CODECS)
    entries = {}
    for stage, key in keys.items():
        with open(store._entry_path(key_digest(key, codec_for(stage).version)), "rb") as fh:
            entries[stage] = (key, fh.read())
    return entries


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory):
    return ArtifactStore(str(tmp_path_factory.mktemp("fuzz") / "store"))


def _assert_quarantined(store, stage, key, data):
    """Reading ``data`` as the entry of ``key`` misses and quarantines it,
    without raising and without allocating much beyond the file."""
    path = store._entry_path(key_digest(key, codec_for(stage).version))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)
    corrupt = store.corrupt
    tracemalloc.start()
    try:
        result = store.get(stage, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (False, None)
    assert store.corrupt == corrupt + 1
    assert not os.path.exists(path)
    quarantined = os.path.join(store.root, "quarantine", os.path.basename(path))
    assert os.path.exists(quarantined)
    os.remove(quarantined)
    assert peak < 4 * len(data) + (1 << 20)


def _sections(data):
    """Byte offsets where the sections of one entry begin and end."""
    split = data.index(b"\n")
    header = json.loads(data[:split])
    body = split + 1
    bounds = {0, split, body, body + header["meta_bytes"], len(data)}
    for _name, dtype, shape, offset in header["blocks"]:
        bounds.add(body + offset)
        bounds.add(body + offset + math.prod(shape) * int(dtype[2:]))
    return sorted(bounds)


STAGES = sorted(CODECS)

#: Forged values for one field of one block-table entry.
FORGERIES = st.one_of(
    st.tuples(
        st.just("shape"),
        st.sampled_from(
            [
                [-1], [2**24], [2**20, 4], [2**62], [2**64 + 1], [10**30, 4],
                [1, -4], [1.5], [True], "8", None,
            ]
        ),
    ),
    st.tuples(
        st.just("dtype"),
        st.sampled_from(["|O", "O", "<f8", "<f4", ">i8", "<u8", "<i2", "<i16", 8, None]),
    ),
    st.tuples(
        st.just("offset"),
        st.sampled_from(["past_end", "overlap", "gap", "negative", "huge", "float"]),
    ),
    st.tuples(st.just("name"), st.sampled_from(["swap", "renamed", ""])),
)


class TestEntryFuzz:
    """Damaged or forged entries are a quarantined miss, never an error."""

    def test_real_entries_read_back(self, real_entries, fuzz_store):
        for stage, (key, data) in real_entries.items():
            path = fuzz_store._entry_path(key_digest(key, codec_for(stage).version))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(data)
            assert fuzz_store.get(stage, key)[0], stage
            os.remove(path)

    @pytest.mark.parametrize("stage", STAGES)
    def test_truncation_at_every_section_boundary(self, real_entries, fuzz_store, stage):
        key, data = real_entries[stage]
        cuts = {cut + delta for cut in _sections(data) for delta in (-1, 0, 1)}
        for cut in sorted(c for c in cuts if 0 <= c < len(data)):
            _assert_quarantined(fuzz_store, stage, key, data[:cut])

    @settings(max_examples=150)
    @given(stage=st.sampled_from(STAGES), data=st.data())
    def test_bit_flips(self, real_entries, fuzz_store, stage, data):
        key, entry = real_entries[stage]
        bit = data.draw(st.integers(0, 8 * len(entry) - 1))
        flipped = bytearray(entry)
        flipped[bit // 8] ^= 1 << (bit % 8)
        _assert_quarantined(fuzz_store, stage, key, bytes(flipped))

    @settings(max_examples=150)
    @given(stage=st.sampled_from(STAGES), data=st.data(), forgery=FORGERIES)
    def test_forged_block_tables(self, real_entries, fuzz_store, stage, data, forgery):
        key, entry = real_entries[stage]
        split = entry.index(b"\n")
        header, body = json.loads(entry[:split]), entry[split + 1 :]
        table = header["blocks"]
        if not table:  # meta-only stage: forge an extra block
            meta_bytes = header["meta_bytes"]
            table.append(["extra", "<i8", [0], meta_bytes + (-meta_bytes % 8)])
        index = data.draw(st.integers(0, len(table) - 1))
        field, value = forgery
        if field == "name" and value == "swap":
            # Same layout, two blocks' names exchanged (e.g. two
            # schedule columns of one dtype and length).
            other = index - 1 if index else min(1, len(table) - 1)
            value = table[other][0]
            table[other][0] = table[index][0]
        elif field == "offset":
            offset = table[index][3]
            value = {
                "past_end": len(body) + 8,
                "overlap": table[index - 1][3] if index else 0,
                "gap": offset + 8,
                "negative": -8,
                "huge": 2**70,
                "float": float(offset),
            }[value]
        table[index][{"name": 0, "dtype": 1, "shape": 2, "offset": 3}[field]] = value
        forged = json.dumps(header).encode() + b"\n" + body
        _assert_quarantined(fuzz_store, stage, key, forged)

    @settings(max_examples=50)
    @given(stage=st.sampled_from(STAGES), tail=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes(self, real_entries, fuzz_store, stage, tail):
        key, entry = real_entries[stage]
        _assert_quarantined(fuzz_store, stage, key, entry + tail)


# ---------------------------------------------------------------------------
# format 2: decoded arrays are the computed ones


def _round_trip(stage, value):
    codec = codec_for(stage)
    return _unpack_entry(_pack_entry(stage, codec, value), stage, codec)


class TestDecodedArrays:
    @pytest.fixture(scope="class")
    def compiled(self, canonical):
        return {
            name: compile_model(
                canonical, paper_case_study(40), options, assume_canonical=True
            )
            for name, options in {
                "dynamic": ScheduleOptions(),
                "static": ScheduleOptions(order_mode="static"),
                "layer-by-layer": ScheduleOptions(scheduling="layer-by-layer"),
            }.items()
        }

    @pytest.mark.parametrize("policy", ["dynamic", "static", "layer-by-layer", "batch"])
    def test_schedule_columns_match_in_dtype_and_row_order(self, compiled, policy):
        from repro.core.batch import cross_layer_schedule_batch

        if policy == "batch":
            model = compiled["dynamic"]
            schedule = cross_layer_schedule_batch(model.mapped, model.dependencies, 3).schedule
        else:
            schedule = compiled[policy].schedule
        back = _round_trip("schedule", schedule)
        assert back.policy == schedule.policy
        want, got = schedule.columns(), back.columns()
        assert got.layers == want.layers
        for name in (
            "layer_id", "set_index", "start", "end", "image", "r0", "c0", "r1", "c1"
        ):
            column = getattr(got, name)
            assert column.dtype == getattr(want, name).dtype, name
            np.testing.assert_array_equal(column, getattr(want, name))
            assert not column.flags.writeable  # cached values are immutable

    def test_set_graph_arrays_match_in_dtype(self, compiled):
        dependencies = compiled["dynamic"].dependencies
        back = _round_trip("deps", dependencies).paired(_round_trip("sets", dependencies.sets))
        want, got = dependencies.arrays, back.arrays
        assert got.layers == want.layers
        for name in (
            "offsets", "layer_of", "set_index", "area", "r0", "c0", "r1", "c1",
            "indptr", "indices", "lex_rank",
        ):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("stage", ["sets", "deps"])
    def test_sets_share_rects_per_distinct_block(self, compiled, stage):
        model = compiled["dynamic"]
        sets = _round_trip("sets", model.sets)
        if stage == "deps":
            sets = _round_trip("deps", model.dependencies).paired(sets).sets
        assert sets == model.sets and list(sets) == list(model.sets)
        by_block = {}
        for rects in sets.values():
            first = by_block.setdefault(tuple(rects), rects)
            assert all(a is b for a, b in zip(rects, first))  # shared Rects
        lists = list(sets.values())
        assert len({id(rects) for rects in lists}) == len(lists)  # own lists

    def test_decoders_reject_inconsistent_blocks(self, compiled):
        model = compiled["dynamic"]
        for stage, value, block in (
            ("sets", model.sets, "counts"),
            ("deps", model.dependencies, "indptr"),
            ("schedule", model.schedule, "start"),
        ):
            codec = codec_for(stage)
            meta, blocks = codec.encode(value)
            blocks[block] = blocks[block][:-1]
            with pytest.raises(ValueError):
                codec.decode(meta, blocks)
