#!/usr/bin/env python
"""Cold vs warm compile times through the persistent artifact store.

Measures what the store subsystem actually buys: how much of a full
compile a warm store skips, within one process and — the case the
store exists for — across process boundaries.

* **cold** — compile with an empty store (every stage computed and
  published; includes the write-through cost);
* **warm-memory** — recompile in the same process with the same cache
  (the historical in-memory fast path, for scale);
* **warm-disk** — recompile with a *fresh* cache against the warm
  store (every stage deserialized from disk, zero stages executed);
* **cross-process** — a fresh subprocess compiles against the warm
  store (cold interpreter, cold numpy, warm disk), compared against a
  fresh subprocess with no store at all.

Every compile starts from the raw zoo graph, as a user's does, so the
``preprocess`` entry is read too and the canonical graph it decodes is
keyed by the fingerprint the entry carries.  Each in-process
measurement is best-of-``--repeats`` on a collected heap; the
subprocess pair is timed end-to-end (interpreter startup included in
both, so the delta isolates the store's contribution).
The warm-disk compile asserts ``misses == 0`` — the benchmark fails
rather than reporting a number that silently recompiled.

Writes ``BENCH_store.json`` (repo root by default).

Usage::

    python benchmarks/bench_store.py            # full: tinyyolov3
    python benchmarks/bench_store.py --quick    # CI smoke: tinyyolov4
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _setup(model: str):
    from repro.arch import paper_case_study
    from repro.core import ScheduleOptions
    from repro.frontend import preprocess
    from repro.mapping import minimum_pe_requirement
    from repro.models import build

    graph = build(model)
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return graph, paper_case_study(min_pes + 16), ScheduleOptions()


def _compile_once(graph, arch, options, cache) -> None:
    from repro.core import compile_model

    compile_model(graph, arch, options, cache=cache)


_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from repro.arch import paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.core.cache import CompilationCache
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import build

graph = build({model!r})
canonical = preprocess(graph, quantization=None).graph
min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
arch = paper_case_study(min_pes + 16)
store_path = {store!r}
if store_path:
    from repro.store import ArtifactStore
    cache = CompilationCache(store=ArtifactStore(store_path))
else:
    cache = CompilationCache()
started = time.perf_counter()
compile_model(graph, arch, ScheduleOptions(), cache=cache)
elapsed = time.perf_counter() - started
if store_path and cache.misses:
    raise SystemExit(f"warm store recompiled {{cache.misses}} stages")
print(elapsed)
"""


def _child_compile_seconds(model: str, store: str | None) -> float:
    script = _CHILD.format(src=SRC, model=model, store=store or "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(REPO_ROOT),
    )
    return float(proc.stdout.strip().splitlines()[-1])


def bench_model(model: str, repeats: int, skip_subprocess: bool) -> dict:
    from repro.core.cache import CompilationCache
    from repro.store import ArtifactStore

    graph, arch, options = _setup(model)

    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        store_path = str(Path(tmp) / "store")

        cold_cache = CompilationCache(store=ArtifactStore(store_path))
        cold_s = best_of(
            lambda: (
                cold_cache.clear(),
                ArtifactStore(store_path).clear(),
                _compile_once(graph, arch, options, cold_cache),
            ),
            repeats,
        )

        # Publish once more so the warm paths read a settled store.
        warm_cache = CompilationCache(store=ArtifactStore(store_path))
        _compile_once(graph, arch, options, warm_cache)

        warm_memory_s = best_of(
            lambda: _compile_once(graph, arch, options, warm_cache), repeats
        )

        def warm_disk() -> None:
            fresh = CompilationCache(store=ArtifactStore(store_path))
            _compile_once(graph, arch, options, fresh)
            assert fresh.misses == 0, fresh.summary()

        warm_disk_s = best_of(warm_disk, repeats)

        record = {
            "model": model,
            "store_entries": ArtifactStore(store_path).stats().entries,
            "store_bytes": ArtifactStore(store_path).stats().total_bytes,
            "cold_s": round(cold_s, 6),
            "warm_memory_s": round(warm_memory_s, 6),
            "warm_disk_s": round(warm_disk_s, 6),
            "disk_speedup": round(cold_s / warm_disk_s, 2),
        }

        if not skip_subprocess:
            try:
                nostore_s = _child_compile_seconds(model, None)
                crossproc_s = _child_compile_seconds(model, store_path)
            except (OSError, subprocess.CalledProcessError) as exc:
                record["cross_process"] = {"skipped": str(exc)[:200]}
            else:
                record["cross_process"] = {
                    "no_store_s": round(nostore_s, 6),
                    "warm_store_s": round(crossproc_s, 6),
                    "speedup": round(nostore_s / crossproc_s, 2),
                }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tinyyolov4, fewer repeats",
    )
    parser.add_argument(
        "--model", default=None,
        help="override the benchmark model (default: tinyyolov3, "
             "or tinyyolov4 with --quick)",
    )
    parser.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="timing repeats, best-of (default: 5, 2 quick)")
    parser.add_argument(
        "--no-subprocess", action="store_true",
        help="skip the cross-process pair (restricted sandboxes)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_store.json"),
        help="output JSON path (default: repo-root BENCH_store.json)",
    )
    args = parser.parse_args(argv)

    model = args.model or ("tinyyolov4" if args.quick else "tinyyolov3")
    repeats = args.repeats or (2 if args.quick else 5)

    record = {
        "benchmark": "artifact-store",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "workloads": [bench_model(model, repeats, args.no_subprocess)],
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    workload = record["workloads"][0]
    print(
        f"{model}: {workload['store_entries']} entries, "
        f"{workload['store_bytes']} bytes on disk"
    )
    print(
        f"  cold compile:        {workload['cold_s'] * 1e3:8.1f} ms\n"
        f"  warm (memory tier):  {workload['warm_memory_s'] * 1e3:8.1f} ms\n"
        f"  warm (disk tier):    {workload['warm_disk_s'] * 1e3:8.1f} ms "
        f"({workload['disk_speedup']:.1f}x vs cold)"
    )
    cross = workload.get("cross_process")
    if cross and "speedup" in cross:
        print(
            f"  cross-process:       no-store "
            f"{cross['no_store_s'] * 1e3:8.1f} ms | warm-store "
            f"{cross['warm_store_s'] * 1e3:8.1f} ms | {cross['speedup']:.1f}x"
        )
    elif cross:
        print(f"  cross-process: skipped ({cross['skipped']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
