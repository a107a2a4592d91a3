"""End-to-end benchmark of the CLSA-CIM reproduction, with per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Workloads: ``paper-grid``, ``warm-store``, ``service-mix``,
``verified-pool`` (see ``workloads.py`` for what each runs and why), or
``all`` to run the four in turn.
Every run happens in fresh child interpreters with ``PYTHONHASHSEED``
fixed and BLAS/OpenMP pinned to one thread.  ``--trace 0`` starts three
children in turn; each sets the workload up and then times whole
repeats of its ops for its share of ``--seconds`` (see
:func:`measure`).  ``setup_s`` is the median of the three set-ups and
the other end-to-end metrics pool the timed windows.  ``--trace 1``
runs the traced child once, prints the per-layer metrics and writes a
Chrome trace to ``.perfbench/``.  ``--quick`` runs a few ops only
(self-tests).  Outputs checked during set-up count as attempted ops too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every op's output was correct, 1 when any op failed, and 2
when the benchmark could not run at all (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import benchmark, metric_table, tail  # noqa: E402

WORKLOADS = tuple(workload["name"] for workload in benchmark()["workloads"])
#: Children per untraced run: ``setup_s`` is the median of their
#: set-ups, and their timed windows together make the run's timing.
CHILDREN = 3
#: Whole repeats of the ops a run times at least: one grid pass can
#: take most of ``--seconds`` on a slow host.
MIN_REPEATS = 2
#: Wall-clock budget for all children of one run.
BUDGET_S = 170.0
#: Where traces and per-run scratch files go, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong output)."""


def child_env(scratch: str) -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: argparse.Namespace, deadline: float, scratch: str, seconds: float,
              part: int = 0) -> dict:
    """Run one child to completion and return its JSON result."""
    os.makedirs(scratch, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "child.py"), args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
        "--scratch", scratch, "--out-dir", OUT_DIR, "--part", str(part),
    ]
    if args.quick:
        command.append("--quick")
    env = child_env(scratch)
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    # A session of its own, so the child's server and pool workers can
    # be stopped with it if it overruns.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} child ran past the time budget") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the child and everything it started have exited
        process.wait()
    lines = [line for line in out.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} child exited with {process.returncode}")
    return json.loads(lines[-1])


def window(args: argparse.Namespace, part: int, timed: float, repeats: int) -> float:
    """Seconds the child at ``part`` times, given what the children
    before it timed (``timed`` seconds in ``repeats`` whole repeats).

    The run's timing is spread over its children: each brings the run's
    timed total to its share of ``--seconds``.  A later child whose
    share is under half a repeat only sets up, unless the run still
    lacks :data:`MIN_REPEATS`.  Spreading the windows over the run
    samples the host at three moments instead of one stretch: on a
    shared VM host speed moves in spells of tens of seconds.
    """
    if args.quick:
        return args.seconds / CHILDREN
    share = (part + 1) * args.seconds / CHILDREN - timed
    if not repeats:
        return share
    half_repeat = timed / repeats / 2
    if share >= half_repeat or (part == CHILDREN - 1 and repeats < MIN_REPEATS):
        return max(share, half_repeat)
    return 0.0


def pooled(children: list[dict[str, Any]]) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of one run from its children's figures."""
    latencies = [value for child in children for value in child["latencies"]]
    elapsed = sum(child["elapsed_s"] for child in children)
    setups = [child["setup_s"] for child in children]
    percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": sum(child["completed"] for child in children) / elapsed,
        "op_latency_p50_s": median(latencies),
        "op_latency_tail_s": tail_value,
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups {[round(s, 3) for s in setups]}",
        f"timed: {elapsed:.2f} s over {len(children)} children "
        + str([f"{child['repeats']} x {child['elapsed_s']:.1f} s" for child in children]),
        f"op latencies: n={len(latencies)} samples; tail = "
        + (f"p{percentile}" if percentile is not None else "max (fewer than 20 samples)"),
        "calibration loop (diagnostic, not a metric), ms before/after each window: "
        + str([[round(ms, 1) for ms in child["calibration_ms"]] for child in children]),
    ]
    polls = [child["polls_per_job"] for child in children if child["latencies"]
             and "polls_per_job" in child]
    if polls:
        notes.append(f"status polls per job: {median(polls):.2f}")
    return metrics, notes


def measure(args: argparse.Namespace) -> tuple[list[dict], dict[str, float], list[str]]:
    """Run the children of one benchmark run; returns (results, metrics, notes)."""
    deadline = time.monotonic() + BUDGET_S
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    children: list[dict[str, Any]] = []
    try:
        if args.trace:
            result = run_child(args, deadline, os.path.join(scratch, "traced"), args.seconds)
            notes = [f"trace written to {os.path.relpath(result['trace_file'], ROOT)} "
                     f"({result['spans']} spans)"]
            return [result], result["per_layer"], notes
        for part in range(CHILDREN):
            seconds = window(args, part, sum(c["elapsed_s"] for c in children),
                             sum(c["repeats"] for c in children))
            children.append(run_child(args, deadline, os.path.join(scratch, f"child{part}"),
                                      seconds, part))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, notes = pooled(children)
    return children, metrics, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a few ops only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        return max(run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
                   for workload in WORKLOADS)
    return run_workload(args)


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload, print its table and then its result line."""
    try:
        children, values, notes = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    table = metric_table("per_layer" if args.trace else "end_to_end")
    # Set-up outputs are checked too: every child's ops count.
    attempted = max(1, sum(int(child["attempted"]) for child in children))
    failed = sum(int(child["failed"]) for child in children)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed, error_rate {failed / attempted:g}")
    for name, unit in table.items():
        print(f"  {name:24s} {values[name]:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for child in children:
        for error in child["errors"]:
            print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
