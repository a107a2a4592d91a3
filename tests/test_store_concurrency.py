"""Concurrency and crash-safety of the persistent artifact store.

These tests drive real child processes (lock contention needs two
writers that do not share an interpreter); restricted sandboxes that
cannot fork/exec skip rather than fail.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.cache import CompilationCache, graph_fingerprint
from repro.frontend import preprocess
from repro.models import tiny_sequential
from repro.store import ArtifactStore

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _run_children(scripts, timeout=120):
    """Run child scripts concurrently; skip where process spawn fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for script in scripts
        ]
    except OSError as exc:  # pragma: no cover - restricted sandboxes
        pytest.skip(f"cannot spawn child processes: {exc}")
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=timeout)
        outs.append((proc.returncode, out.decode(), err.decode()))
    return outs


_COMPILE_CHILD = """
import sys
from repro.arch import paper_case_study
from repro.core import ScheduleOptions
from repro.core.cache import CompilationCache
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_sequential
from repro.session import Session
from repro.store import ArtifactStore

canonical = preprocess(tiny_sequential(), quantization=None).graph
min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
cache = CompilationCache(store=ArtifactStore({root!r}))
session = Session(paper_case_study(min_pes + 8), cache=cache)
compiled = session.compile(canonical, ScheduleOptions(), assume_canonical=True)
print(compiled.evaluate().latency_cycles)
print(cache.misses, cache.store_hits)
"""

_KILLED_WRITER_CHILD = """
import os
import signal
from repro.frontend import preprocess
from repro.models import tiny_sequential
from repro.store import ArtifactStore
from repro.core.cache import graph_fingerprint

# Die at the exact atomic-rename point: the entry is fully written and
# fsynced under tmp/, but never published.
_real_replace = os.replace
def _killed(src, dst):
    if "objects" in dst:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_replace(src, dst)
os.replace = _killed

store = ArtifactStore({root!r})
canonical = preprocess(tiny_sequential(), quantization=None).graph
store.put("preprocess", ("preprocess", graph_fingerprint(canonical)), canonical)
raise SystemExit("unreachable: the put above must die at os.replace")
"""


class TestConcurrentWriters:
    def test_two_simultaneous_processes_share_one_store(self, tmp_path):
        root = str(tmp_path / "store")
        script = _COMPILE_CHILD.format(root=root)
        results = _run_children([script, script])
        latencies = set()
        for code, out, err in results:
            assert code == 0, err
            lines = out.splitlines()
            latencies.add(lines[0])
        assert len(latencies) == 1  # identical metrics either way

        # No torn state: every published entry parses and verifies.
        store = ArtifactStore(root)
        stats = store.stats()
        assert stats.entries >= 6
        assert stats.quarantined == 0
        canonical = preprocess(tiny_sequential(), quantization=None).graph
        fresh = CompilationCache(store=store)
        from repro.arch import paper_case_study
        from repro.core import ScheduleOptions
        from repro.mapping import minimum_pe_requirement
        from repro.session import Session

        min_pes = minimum_pe_requirement(
            canonical, paper_case_study(1).crossbar
        )
        Session(paper_case_study(min_pes + 8), cache=fresh).compile(
            canonical, ScheduleOptions(), assume_canonical=True
        )
        assert fresh.misses == 0, fresh.summary()
        assert store.corrupt == 0

    def test_no_tmp_litter_after_clean_writers(self, tmp_path):
        root = str(tmp_path / "store")
        _run_children([_COMPILE_CHILD.format(root=root)])
        assert os.listdir(os.path.join(root, "tmp")) == []


class TestKilledWriter:
    def test_killed_writer_publishes_nothing_visible(self, tmp_path):
        root = str(tmp_path / "store")
        results = _run_children([_KILLED_WRITER_CHILD.format(root=root)])
        code, _out, err = results[0]
        assert code == -9, err  # SIGKILL at the rename point

        store = ArtifactStore(root)
        assert store.stats().entries == 0  # nothing published
        canonical = preprocess(tiny_sequential(), quantization=None).graph
        key = ("preprocess", graph_fingerprint(canonical))
        assert store.get("preprocess", key) == (False, None)

        # The fsynced-but-unpublished write is tmp litter...
        litter = os.listdir(os.path.join(root, "tmp"))
        assert len(litter) == 1
        # ...which an aged GC sweeps.
        path = os.path.join(root, "tmp", litter[0])
        os.utime(path, (1, 1))
        assert store.gc().swept_tmp == 1
        assert os.listdir(os.path.join(root, "tmp")) == []

    def test_store_still_writable_after_killed_writer(self, tmp_path):
        root = str(tmp_path / "store")
        _run_children([_KILLED_WRITER_CHILD.format(root=root)])
        store = ArtifactStore(root)
        canonical = preprocess(tiny_sequential(), quantization=None).graph
        key = ("preprocess", graph_fingerprint(canonical))
        assert store.put("preprocess", key, canonical)
        hit, _value = store.get("preprocess", key)
        assert hit


class TestCorruptionAcrossProcesses:
    def test_corrupted_entry_quarantined_and_recompiled(self, tmp_path):
        root = str(tmp_path / "store")
        results = _run_children([_COMPILE_CHILD.format(root=root)])
        assert results[0][0] == 0, results[0][2]

        # Corrupt every published entry in place.
        store = ArtifactStore(root)
        paths = [path for path, _s, _m in store._scan_entries()]
        assert paths
        for path in paths:
            with open(path, "rb") as handle:
                header = handle.readline()  # keeps the stale body digest
            with open(path, "wb") as handle:
                handle.write(header + json.dumps({"tampered": True}).encode())

        # A fresh child recompiles (exit 0) instead of crashing...
        results = _run_children([_COMPILE_CHILD.format(root=root)])
        code, out, err = results[0]
        assert code == 0, err
        misses, store_hits = out.splitlines()[1].split()
        assert int(misses) > 0  # recompiled
        # ...and the bad entries are quarantined, then republished.
        stats = ArtifactStore(root).stats()
        assert stats.quarantined == len(paths)
        assert stats.entries >= 6
