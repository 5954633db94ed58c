"""Supervised process-pool execution: detect, rebuild, retry, degrade.

The parallel engines (PR 3) ran on a bare ``ProcessPoolExecutor``: one
worker death surfaced as ``BrokenProcessPool`` and killed every query in
the run.  :class:`PoolSupervisor` puts a supervision layer between the
engines and the pool, built on one observation: every offloaded task in
this codebase (:func:`repro.runtime.parallel._worker_evaluate_group`,
:func:`repro.runtime.parallel._worker_run_shard`) is a **pure function
of its pickled payload**, so re-executing it after a crash is safe and
produces byte-identical results.

The supervision ladder, in escalation order:

1. **retry in place** — a failed task (chaos poison, pickling trouble,
   any task-level exception) is resubmitted up to
   ``SupervisorConfig.task_retries`` times;
2. **rebuild the pool** — worker death (``BrokenProcessPool``), a
   broken executor, or a per-task timeout abandons the pool and builds
   a fresh one behind bounded exponential backoff, then retries every
   unfinished task of the batch;
3. **degrade to in-parent serial execution** — once rebuilds exceed the
   crash budget (``max_restarts``), tasks run inline in the parent, so
   emissions continue (byte-identical — same pure functions) instead of
   the run dying; after ``probation_tasks`` consecutive inline
   successes the supervisor returns to pooled mode with a fresh budget;
4. **raise** — only when degradation is disabled
   (``SupervisorConfig(degrade=False)``), as a typed
   :class:`~repro.errors.ParallelExecutionError` carrying the window
   group signature and worker count, never a raw
   ``concurrent.futures`` internal.

Chaos (:class:`~repro.runtime.faults.ChaosConfig`) plugs in here: the
supervisor consults a seeded :class:`~repro.runtime.faults.ChaosInjector`
per submission attempt and ships worker-side directives (kill / delay /
poison) inside the task wrapper, while result drops are simulated
parent-side.  Everything is observable: pool rebuilds, retries and
degraded-mode transitions are ``supervision.*`` counters in the shared
:class:`~repro.obs.Observability` bundle's registry (and
``pool_rebuild`` / ``degraded_mode`` trace spans when tracing is on);
``status()["supervision"]`` reads them (docs/SUPERVISION.md).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineError, ParallelExecutionError
from repro.obs import Observability
from repro.runtime.faults import (
    DELAY_RESULT,
    DROP_RESULT,
    KILL_WORKER,
    POISON_TASK,
    ChaosConfig,
    ChaosInjector,
    ChaosPoisonError,
)

#: Default crash budget: pool rebuilds tolerated before degrading.
DEFAULT_CRASH_BUDGET = 3


def _supervised_task(fn, directive: Optional[Tuple], payload):
    """The worker-side wrapper around every supervised task.

    ``directive`` is the chaos verdict for this submission attempt
    (``None`` outside chaos runs): ``kill`` murders the worker process
    mid-task (the pool breaks, exactly like a real crash), ``delay``
    sleeps before evaluating, ``poison`` raises instead of evaluating.
    ``drop`` never reaches the worker — it is simulated parent-side.
    """
    if directive is not None:
        kind = directive[0]
        if kind == KILL_WORKER:
            os._exit(17)
        elif kind == DELAY_RESULT:
            time.sleep(directive[1])
        elif kind == POISON_TASK:
            raise ChaosPoisonError(
                f"injected poison task (burst #{directive[1]})"
            )
    return fn(payload)


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning of one :class:`PoolSupervisor`.

    ``max_restarts`` is the crash budget: how many pool rebuilds are
    tolerated before the supervisor degrades to in-parent execution
    (with ``degrade=False`` it raises instead).  ``task_retries`` caps
    resubmissions of one failing task before it falls back inline.
    ``task_timeout`` bounds each task's wall-clock seconds — a hung
    worker counts as a crash.  Backoff between rebuilds is bounded
    exponential (``backoff_base * 2^k``, capped at ``backoff_max``).
    ``probation_tasks`` consecutive inline successes end degraded mode.
    """

    max_restarts: int = DEFAULT_CRASH_BUDGET
    task_retries: int = 4
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    probation_tasks: int = 16
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise EngineError("max_restarts must be >= 0")
        if self.task_retries < 0:
            raise EngineError("task_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise EngineError("task_timeout must be positive")
        if self.probation_tasks < 1:
            raise EngineError("probation_tasks must be >= 1")

    def backoff(self, restart: int) -> float:
        """Backoff before the ``restart``-th rebuild (1-based)."""
        return min(
            self.backoff_base * (2 ** max(0, restart - 1)),
            self.backoff_max,
        )


#: ``supervision.*`` counters, in ``status()["supervision"]`` order.
SUPERVISION_COUNTERS = (
    "pooled_tasks",          # tasks completed in a worker process
    "inline_tasks",          # tasks executed in-parent (degraded/fallback)
    "worker_crashes",        # BrokenProcessPool / timeout events
    "pool_rebuilds",         # fresh pools built after a crash
    "task_retries",          # task resubmissions (failures + drops)
    "task_timeouts",         # tasks that exceeded task_timeout
    "dropped_results",       # chaos-dropped results (parent-side)
    "degraded_transitions",  # pooled -> degraded switches
    "degraded_recoveries",   # degraded -> pooled (probation passed)
)


class PoolSupervisor:
    """Crash-tolerant batch execution over a rebuildable process pool.

    ``pool`` injects an externally managed executor (never shut down by
    the supervisor; abandoned — not closed — if it breaks).
    ``pool_factory`` overrides how replacement pools are built (tests
    inject crashy executors through it).  ``sleep`` injects the backoff
    clock.  ``chaos`` accepts a :class:`ChaosConfig` or a ready
    :class:`ChaosInjector`.
    """

    def __init__(
        self,
        workers: int,
        *,
        config: Optional[SupervisorConfig] = None,
        pool: Optional[ProcessPoolExecutor] = None,
        pool_factory: Optional[Callable[[], ProcessPoolExecutor]] = None,
        obs: Optional[Observability] = None,
        chaos: Optional[object] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.workers = int(workers)
        self.config = config if config is not None else SupervisorConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        if isinstance(chaos, ChaosConfig):
            chaos = chaos.injector() if chaos.wants_worker_chaos else None
        self.chaos: Optional[ChaosInjector] = chaos
        self.sleep = sleep
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_factory = pool_factory or (
            lambda: ProcessPoolExecutor(max_workers=self.workers)
        )
        #: Executors given up on but possibly still draining a task
        #: (timeouts); close() joins them so no worker outlives the run.
        self._abandoned: List[ProcessPoolExecutor] = []
        self.degraded = False
        self._restarts = 0    # crash budget spent since last recovery
        self._probation = 0   # consecutive inline successes while degraded

    # -- pool lifecycle ----------------------------------------------------

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor (``None`` until first pooled batch)."""
        return self._pool

    @property
    def restarts(self) -> int:
        """Crash budget spent since the last probation recovery."""
        return self._restarts

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._pool_factory()
            self._owns_pool = True
        return self._pool

    def _abandon_pool(self) -> None:
        # No shutdown here: ``shutdown(wait=False)`` drops the executor's
        # manager-thread reference, making a later blocking shutdown a
        # no-op — a timed-out worker would then outlive close().  The
        # one blocking, joining shutdown happens in :meth:`close`.
        pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            self._abandoned.append(pool)
        # Whatever replaces an injected pool is supervisor-owned.
        self._owns_pool = True

    def close(self) -> None:
        """Shut down the live pool (if owned) and join abandoned ones."""
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown(wait=True)
        self._pool = None
        self._owns_pool = True
        for pool in self._abandoned:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
        self._abandoned.clear()

    # -- batch execution ---------------------------------------------------

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        signatures: Optional[Sequence[object]] = None,
    ) -> List[Any]:
        """Execute ``fn`` over ``payloads``; results in payload order.

        ``fn`` must be a pure, picklable, module-level function of its
        payload — re-execution on the same payload must be equivalent;
        that is what makes crash retries and degraded re-runs safe.
        ``signatures`` (aligned with ``payloads``) label failures in
        :class:`~repro.errors.ParallelExecutionError`.
        """
        results: List[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        attempts = [0] * len(payloads)
        while pending:
            if self.degraded:
                self._run_degraded(fn, payloads, pending, results)
                return results
            pending = self._run_pooled(
                fn, payloads, pending, attempts, results, signatures
            )
        return results

    def _count(self, name: str) -> None:
        self.obs.registry.inc(f"supervision.{name}")

    def _signature(self, signatures, index):
        if signatures is None:
            return None
        return signatures[index]

    def _run_pooled(
        self, fn, payloads, pending, attempts, results, signatures
    ) -> List[int]:
        """One round against the live pool; returns indices to retry."""
        pool = self._ensure_pool()
        futures: List[Tuple[int, Future, bool]] = []
        crash: Optional[BaseException] = None
        crash_index = pending[0]
        for index in pending:
            directive = (
                self.chaos.directive() if self.chaos is not None else None
            )
            dropped = directive is not None and directive[0] == DROP_RESULT
            try:
                future = pool.submit(
                    _supervised_task,
                    fn,
                    None if dropped else directive,
                    payloads[index],
                )
            except (BrokenExecutor, RuntimeError) as exc:
                # Pool already broken/shut down at submit time.
                crash, crash_index = exc, index
                break
            futures.append((index, future, dropped))
        submitted = {index for index, _f, _d in futures}
        still = [index for index in pending if index not in submitted]
        for index, future, dropped in futures:
            if crash is not None:
                # The pool is gone; everything unread retries after the
                # rebuild (completed-but-unread results recompute — the
                # tasks are pure, so this is waste, never wrongness).
                still.append(index)
                continue
            try:
                value = future.result(timeout=self.config.task_timeout)
            except BrokenExecutor as exc:
                crash, crash_index = exc, index
                still.append(index)
            except FutureTimeoutError as exc:
                self._count("task_timeouts")
                crash, crash_index = exc, index
                still.append(index)
            except Exception as exc:
                # Task-level failure (chaos poison, pickling, a bug).
                attempts[index] += 1
                self._count("task_retries")
                if attempts[index] > self.config.task_retries:
                    results[index] = self._last_resort(
                        fn, payloads[index], exc,
                        self._signature(signatures, index),
                    )
                else:
                    still.append(index)
            else:
                if dropped:
                    self._count("dropped_results")
                    self._count("task_retries")
                    # A drop consumes an attempt too, so pathological
                    # drop rates still terminate via the last resort.
                    attempts[index] += 1
                    if attempts[index] > self.config.task_retries:
                        results[index] = self._last_resort(
                            fn, payloads[index],
                            RuntimeError("chaos dropped every result"),
                            self._signature(signatures, index),
                        )
                    else:
                        still.append(index)
                else:
                    results[index] = value
                    self._count("pooled_tasks")
        if crash is not None:
            self._handle_crash(crash, self._signature(signatures, crash_index))
        still.sort()
        return still

    def _last_resort(self, fn, payload, cause, signature):
        """A task that failed every pooled attempt: run it in-parent
        (graceful), or raise typed when degradation is disabled."""
        if not self.config.degrade:
            raise ParallelExecutionError(
                f"task failed after {self.config.task_retries + 1} pooled "
                f"attempts: {cause}",
                signature=signature,
                workers=self.workers,
            ) from cause
        self._count("inline_tasks")
        return fn(payload)

    # -- crash handling / degradation ladder -------------------------------

    def _handle_crash(self, cause, signature) -> None:
        self._count("worker_crashes")
        if self._restarts >= self.config.max_restarts:
            self._abandon_pool()
            if not self.config.degrade:
                raise ParallelExecutionError(
                    f"worker pool exceeded its crash budget "
                    f"({self.config.max_restarts} restarts): {cause}",
                    signature=signature,
                    workers=self.workers,
                ) from cause
            self._enter_degraded(cause)
            return
        self._restarts += 1
        self._count("pool_rebuilds")
        started = time.perf_counter()
        self._abandon_pool()
        delay = self.config.backoff(self._restarts)
        if delay > 0:
            self.sleep(delay)
        self._ensure_pool()
        self.obs.tracer.add_completed(
            "pool_rebuild",
            time.perf_counter() - started,
            reason=type(cause).__name__,
            restart=self._restarts,
        )

    def _enter_degraded(self, cause) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._probation = 0
        self._count("degraded_transitions")
        self.obs.registry.set("supervision.degraded", 1)
        self.obs.tracer.add_completed(
            "degraded_mode", 0.0, reason=type(cause).__name__,
            budget=self.config.max_restarts,
        )

    def _run_degraded(self, fn, payloads, pending, results) -> None:
        """In-parent serial execution: emissions continue, byte-identical
        (same pure task functions).  Errors propagate raw — a failure
        that reproduces in-parent is a genuine bug, exactly what the
        serial engine would raise."""
        for index in pending:
            results[index] = fn(payloads[index])
            self._count("inline_tasks")
            self._probation += 1
            if self._probation >= self.config.probation_tasks:
                self._leave_degraded()

    def _leave_degraded(self) -> None:
        """Probation passed: back to pooled mode with a fresh budget."""
        self.degraded = False
        self._restarts = 0
        self._probation = 0
        self._count("degraded_recoveries")
        self.obs.registry.set("supervision.degraded", 0)

    # -- introspection -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The ``status()["supervision"]`` document."""
        info: Dict[str, object] = {
            "mode": "degraded" if self.degraded else "pooled",
            "workers": self.workers,
            "crash_budget": self.config.max_restarts,
            "restarts_used": self._restarts,
            "probation": (
                {
                    "successes": self._probation,
                    "required": self.config.probation_tasks,
                }
                if self.degraded else None
            ),
            **self.obs.registry.values("supervision", SUPERVISION_COUNTERS),
        }
        if self.chaos is not None:
            info["chaos"] = self.chaos.as_dict()
        return info

    def render(self) -> str:
        from repro.obs import format as obs_format

        shown = {
            key: value
            for key, value in self.as_dict().items()
            if value not in (None, 0) or key in ("mode", "workers")
        }
        return obs_format.render_counters(
            "supervision", shown, empty="no supervised tasks"
        )
