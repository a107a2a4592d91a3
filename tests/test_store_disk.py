"""The disk-backed artifact store: publish, integrity, GC, stats."""

import json
import os

import numpy as np
import pytest

from repro.arch import paper_case_study
from repro.core import ScheduleOptions, determine_dependencies, determine_sets
from repro.core.cache import CompilationCache, graph_fingerprint
from repro.core.pipeline import compile_model
from repro.frontend import preprocess
from repro.models import tiny_sequential
from repro.store import CODECS, ArtifactStore, StageCodec, codec_for
from repro.store.keys import key_digest


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _graph_key(canonical):
    return ("preprocess", graph_fingerprint(canonical))


class TestLayout:
    def test_directories_and_meta_created(self, store):
        for name in ("objects", "tmp", "quarantine"):
            assert os.path.isdir(os.path.join(store.root, name))
        with open(os.path.join(store.root, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta == {"format": "clsa-cim-store", "schema": 1}

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
        with open(path, "r+") as handle:
            record = json.load(handle)
            record["payload"]["ops"] = []
            handle.seek(0)
            json.dump(record, handle)
            handle.truncate()
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
        with open(path, "r+") as handle:
            record = json.load(handle)
            record["stage"] = "schedule"
            handle.seek(0)
            json.dump(record, handle)
            handle.truncate()
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
        assert header == {"format": "clsa-cim-store", "schema": 1}
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
    """Version 2 of the ``deps`` codec: the CSR set graph as flat ints."""

    @pytest.fixture
    def dependencies(self, canonical):
        return determine_dependencies(canonical, determine_sets(canonical))

    def test_round_trip_never_builds_the_dict_view(self, dependencies):
        codec = codec_for("deps")
        assert codec.version == 2
        payload = json.loads(json.dumps(codec.encode(dependencies)))
        assert sorted(payload) == ["counts", "indices", "indptr", "layers", "rects"]
        back = codec.decode(payload)
        assert dependencies._deps is None and back._deps is None
        assert back.sets == dependencies.sets
        for name in ("offsets", "indptr", "indices", "r0", "c0", "r1", "c1"):
            np.testing.assert_array_equal(
                getattr(back.arrays, name), getattr(dependencies.arrays, name)
            )

    def test_inconsistent_payload_rejected(self, dependencies):
        codec = codec_for("deps")
        payload = codec.encode(dependencies)
        payload["indices"] = payload["indices"][:-1]
        with pytest.raises(ValueError):
            codec.decode(payload)

    def test_v1_entry_never_served_and_gc_reclaims_it(
        self, store, canonical, dependencies, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.ir.serialize import (
            _dependencies_from_list,
            _dependencies_to_list,
            _sets_from_dict,
            _sets_to_dict,
        )

        def encode_v1(value):
            return {"sets": _sets_to_dict(value.sets), "deps": _dependencies_to_list(value)}

        def decode_v1(payload):
            return _dependencies_from_list(payload["deps"], _sets_from_dict(payload["sets"]))

        key = ("deps", graph_fingerprint(canonical), "finest")
        with monkeypatch.context() as patch:
            patch.setitem(CODECS, "deps", StageCodec("deps", 1, encode_v1, decode_v1))
            assert store.put("deps", key, dependencies)
        v1_path = store._entry_path(key_digest(key, 1))
        assert os.path.exists(v1_path)

        assert store.get("deps", key) == (False, None)
        assert os.path.exists(v1_path)  # never read, so never quarantined
        assert store.put("deps", key, dependencies)
        v2_path = store._entry_path(key_digest(key, 2))
        hit, value = store.get("deps", key)
        assert hit and value.arrays.num_edges == dependencies.edge_count()

        os.utime(v1_path, (1, 1))  # the orphan is the least recently used
        budget = os.path.getsize(v2_path)
        assert main(["cache", "gc", "--store", store.root, "--max-bytes", str(budget)]) == 0
        capsys.readouterr()
        assert not os.path.exists(v1_path)
        assert os.path.exists(v2_path)
        assert store.get("deps", key)[0]
