"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` maps ``(job key, attempt)`` to a :class:`FaultSpec`
describing what should go wrong when that attempt runs.  The runtime
looks faults up *driver-side* and ships only the single spec relevant to
the attempt it is submitting — the plan itself never crosses the process
boundary, so provenance (which attempt failed, how) is a pure function
of the plan and is byte-identical across re-runs.

Supported actions:

``raise``
    Raise :class:`TransientFault` (retryable) or :class:`InjectedFault`
    (fails fast), per ``transient``.
``kill``
    SIGKILL the executing process — in a worker this breaks the whole
    pool, exercising resurrection; applied inline/thread-side (where
    killing would take the driver down) it degrades to raising
    :class:`~repro.exec.resilience.WorkerCrashError`.
``sleep``
    Sleep ``seconds`` *cooperatively*, checking the job deadline every
    slice — models a slow job that overruns its budget and is caught by
    the cooperative deadline check.
``hang``
    Sleep ``seconds`` in one uninterruptible block — models a wedged
    job that only the process watchdog's SIGKILL can clear.
``corrupt``
    Garble one object file in the artifact store, then continue —
    exercises the store's quarantine path on a later read.

:meth:`FaultPlan.seeded` builds reproducible chaos plans (N kills, M
sleeps, ...) from a seed; the CI ``chaos-smoke`` job and the chaos tests
are built on it.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .resilience import WorkerCrashError, check_deadline

__all__ = [
    "FAULT_ACTIONS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TransientFault",
    "apply_fault",
]


class InjectedFault(RuntimeError):
    """A deterministic injected failure — not retryable by default."""


class TransientFault(RuntimeError):
    """An injected transient failure — retryable by default."""


#: Actions a :class:`FaultSpec` may request.
FAULT_ACTIONS = ("raise", "kill", "sleep", "hang", "corrupt")

#: Granularity of the cooperative sleep loop used by the ``sleep``
#: action (seconds between deadline checks).
_SLEEP_SLICE_S = 0.01


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do, for how long, with what message."""

    action: str
    seconds: float = 0.0
    message: str = "injected fault"
    transient: bool = True

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults keyed by job key × attempt.

    Attempts are 1-based: ``{("bench/cfg+4", 1): FaultSpec("kill")}``
    kills the worker on the first execution of that job and lets every
    later attempt run clean.
    """

    faults: Mapping[Tuple[str, int], FaultSpec] = field(default_factory=dict)

    def get(self, key: str, attempt: int) -> Optional[FaultSpec]:
        """The fault scheduled for this attempt of ``key``, if any."""
        return self.faults.get((key, attempt))

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """A plan with ``other``'s faults layered over this one's."""
        combined: Dict[Tuple[str, int], FaultSpec] = dict(self.faults)
        combined.update(other.faults)
        return FaultPlan(combined)

    @classmethod
    def seeded(
        cls,
        keys: Iterable[str],
        *,
        seed: int = 0,
        kills: int = 0,
        sleeps: int = 0,
        hangs: int = 0,
        raises: int = 0,
        corrupts: int = 0,
        attempt: int = 1,
        sleep_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """A reproducible chaos plan over ``keys``.

        Victims are drawn without replacement from ``sorted(keys)``
        with ``random.Random(seed)``, then assigned actions in a fixed
        order (kills, sleeps, hangs, raises, corrupts) — the same seed
        and key set always produce the same plan.  ``sleep_seconds``
        sizes the ``sleep``/``hang`` overruns; make it comfortably
        larger than the job timeout under test.
        """
        pool = sorted(set(keys))
        total = kills + sleeps + hangs + raises + corrupts
        if total > len(pool):
            raise ValueError(
                f"plan wants {total} victims but only {len(pool)} keys are available"
            )
        rng = random.Random(seed)
        victims = rng.sample(pool, total)
        faults: Dict[Tuple[str, int], FaultSpec] = {}
        cursor = 0
        for count, spec in (
            (kills, FaultSpec("kill", message="injected worker SIGKILL")),
            (
                sleeps,
                FaultSpec(
                    "sleep", seconds=sleep_seconds, message="injected deadline overrun"
                ),
            ),
            (
                hangs,
                FaultSpec("hang", seconds=sleep_seconds, message="injected hang"),
            ),
            (raises, FaultSpec("raise", message="injected transient failure")),
            (corrupts, FaultSpec("corrupt", message="injected store corruption")),
        ):
            for key in victims[cursor : cursor + count]:
                faults[(key, attempt)] = spec
            cursor += count
        return cls(faults)


def _corrupt_store_object(store_root: str) -> bool:
    """Garble the first (lexicographically) object file under
    ``store_root``; returns whether anything was corrupted."""
    objects = os.path.join(store_root, "objects")
    if not os.path.isdir(objects):
        return False
    candidates = []
    for dirpath, _dirnames, filenames in os.walk(objects):
        for name in filenames:
            candidates.append(os.path.join(dirpath, name))
    if not candidates:
        return False
    target = sorted(candidates)[0]
    try:
        with open(target, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\x00CORRUPTED\x00")
    except OSError:
        return False
    return True


def apply_fault(
    spec: Optional[FaultSpec],
    *,
    in_worker: bool,
    store_root: Optional[str] = None,
) -> None:
    """Execute an injected fault at the start of a job attempt.

    ``in_worker`` distinguishes a sacrificial pool worker (where
    ``kill`` really SIGKILLs the process) from the driver process
    (where it degrades to a raised
    :class:`~repro.exec.resilience.WorkerCrashError` so chaos plans
    stay runnable on the inline/thread backends).
    """
    if spec is None:
        return
    if spec.action == "raise":
        if spec.transient:
            raise TransientFault(spec.message)
        raise InjectedFault(spec.message)
    if spec.action == "kill":
        if in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
            # Unreachable: SIGKILL cannot be caught.  Guard anyway so a
            # platform that ignores it still fails the attempt.
            raise WorkerCrashError(spec.message)
        raise WorkerCrashError(spec.message)
    if spec.action == "sleep":
        end = time.monotonic() + spec.seconds
        while time.monotonic() < end:
            check_deadline("injected sleep")
            time.sleep(min(_SLEEP_SLICE_S, max(0.0, end - time.monotonic())))
        check_deadline("injected sleep")
        return
    if spec.action == "hang":
        time.sleep(spec.seconds)
        check_deadline("injected hang")
        return
    if spec.action == "corrupt":
        if store_root is not None:
            _corrupt_store_object(store_root)
        return
    raise ValueError(f"unknown fault action {spec.action!r}")
