"""Run one workload in a fresh interpreter and print its result.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/child.py <workload> --seed N --seconds S --trace 0|1 --part I
    python3 perfbench/child.py serve        # the service-mix server

``--seconds`` is this child's timed window (zero: set up only) and
``--part`` its place among the run's children.

``$PERFBENCH_SPAWN`` carries the parent's ``time.monotonic()`` taken
just before the spawn (the clock is system-wide), so set-up time
includes interpreter start.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402 - the clock above must come first
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - start

    import workloads

    if args.workload == "serve":
        return workloads.serve_forever()
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        spawn=float(os.environ.get("PERFBENCH_SPAWN", STARTED)),
        import_s=import_s,
        scratch=args.scratch,
        out_dir=args.out_dir,
        part=args.part,
    )
    result = workloads.WORKLOADS[args.workload](ctx)
    result.update(attempted=result.get("attempted", 0) + ctx.setup_ops, setup_s=ctx.setup_s,
                  import_s=import_s, failed=ctx.failed, errors=ctx.errors)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
