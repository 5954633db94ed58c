"""Parallel sharded execution: process-pool workers behind the engine.

Seraph's Section 6 defers "optimizations regarding concurrent queries";
future-work item (ii) sketches logical sub-streams.  This module turns
both hooks into wall-clock speedup without changing a single emitted
byte, along two independent axes:

* **query-level parallelism** — :class:`PoolExecutor`, the optional
  part a :class:`~repro.seraph.engine.SeraphEngine` hands each stage
  chunk's computations to.  The engine advances windows serially; the
  executor groups the due *full* evaluations by their shared-window
  signature, ships each group's pickled snapshot graphs to a worker
  process once, and computes the group's tables there.  Window
  maintenance, the reuse memo, the delta path, report policies, and sink
  delivery all stay in the parent, applied in the exact serial firing
  order — emissions are byte-identical to the engine without an executor
  (docs/PARALLEL.md gives the determinism argument).

* **partition-level parallelism** — :class:`ShardedEngine` /
  :func:`run_partitioned`.  A stream is routed through
  :func:`repro.stream.partition.partition_elements` into logical
  sub-streams, sub-streams are assigned to N shards (first-seen order,
  round-robin), each shard runs a full engine replica over its share —
  in worker processes when ``workers > 1`` — and per-shard emissions are
  recombined by :func:`merge_emissions` (same (instant, query) tables
  bag-united in shard order).  Shard runs carry their replica state
  through :mod:`repro.runtime.checkpoint` documents, so the whole thing
  checkpoints/restores like any other engine.

A cost-model scheduler (:func:`repro.cypher.planner.pattern_cost`)
decides serial vs. parallel per evaluation: small snapshots never pay
the IPC tax.  What happened is counted under ``parallel.*`` in the
owning engine's metrics registry.

Both run their pools through a
:class:`~repro.runtime.supervisor.PoolSupervisor`: worker death and
``BrokenProcessPool`` rebuild the pool behind bounded backoff, failing
tasks retry idempotently (both worker functions are pure over their
pickled payloads), and past the crash budget execution degrades to
in-parent serial per window group — emissions continue byte-identical
instead of the run dying (docs/SUPERVISION.md).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cypher.physical import PhysicalPlan, PlanProfile, execute_plan
from repro.cypher.plan_cache import PLANS_PER_QUERY
from repro.cypher.planner import pattern_cost
from repro.errors import CheckpointError, EngineError, PartitionError
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.table import Table
from repro.graph.temporal import TimeInstant
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.supervisor import (
    SUPERVISION_COUNTERS,
    PoolSupervisor,
    SupervisorConfig,
)
from repro.seraph.engine import SeraphEngine, _PendingEvaluation
from repro.seraph.ast import SeraphMatch
from repro.seraph.parser import parse_seraph
from repro.seraph.sinks import Emission
from repro.stream.partition import partition_elements
from repro.stream.stream import StreamElement
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import WIN_END, WIN_START, TimeAnnotatedTable
from repro.stream.window import ActiveSubstreamPolicy

#: Estimated matching cost (see :func:`pattern_cost`) above which one
#: evaluation is worth a round-trip to a worker process.  Calibrated so
#: the unit-test graphs (tens of nodes, fixed-length patterns) stay
#: serial while variable-length/shortestPath workloads offload.
DEFAULT_OFFLOAD_THRESHOLD = 5_000.0

#: ``parallel.*`` counters, in ``status()["parallel"]`` order;
#: ``parallel.max_queue_depth`` (a gauge) follows them.
PARALLEL_COUNTERS = (
    "batches",                # passes (engine) / runs (sharded) with work
    "offloaded_groups",       # window-signature groups sent to workers
    "offloaded_evaluations",  # evaluations computed in a worker
    "inline_evaluations",     # full evaluations computed in-parent
    "scheduler_serial",       # scheduler verdicts: stay serial
    "scheduler_parallel",     # scheduler verdicts: offload
)


def _observe_task(registry: MetricsRegistry, worker_id: int,
                  seconds: float) -> None:
    """One completed worker task: ``parallel.worker.<id>.task_seconds``
    (count = tasks, sum = busy seconds)."""
    registry.observe(f"parallel.worker.{worker_id}.task_seconds", seconds)


def _observe_queue_depth(registry: MetricsRegistry, depth: int) -> None:
    gauge = registry.gauge("parallel.max_queue_depth")
    gauge.set(max(gauge.value, depth))


def _parallel_status(registry: MetricsRegistry, **sizes) -> Dict[str, object]:
    return {
        **registry.values("parallel", PARALLEL_COUNTERS),
        "max_queue_depth": registry.value("parallel.max_queue_depth"),
        **sizes,
    }


def _supervisor_config(max_worker_restarts, task_timeout) -> SupervisorConfig:
    return SupervisorConfig(
        max_restarts=(
            max_worker_restarts if max_worker_restarts is not None
            else SupervisorConfig.max_restarts
        ),
        task_timeout=task_timeout,
    )

# -- worker-side tasks --------------------------------------------------------
#
# A task carries the parent's compiled plan (pickled).  Workers keep the
# *first* unpickled copy per (query text, band) together with that
# copy's compiled-expression cache and execute it on later tasks, so the
# plan's embedded AST nodes keep a stable identity (AST node identity is
# the expression-cache key) and expressions compile once per retained
# plan.  Retention follows the parent's plan cache — PLANS_PER_QUERY
# bands per text, oldest evicted — and an evicted plan's expression
# cache goes with it.  A shipped plan that differs from the retained
# copy of its band (the parent evicted and recompiled that band under
# other statistics) replaces it: the worker must execute the plan the
# parent would, or row order could differ from a serial run.

_WORKER_PLANS: Dict[str, Dict[tuple, Tuple[PhysicalPlan, dict]]] = {}


def _plan_cached(plan: PhysicalPlan) -> Tuple[PhysicalPlan, dict]:
    """The worker's retained ``(plan, expression cache)`` for this
    plan's (text, band); ``plan`` itself is retained on first sight."""
    bands = _WORKER_PLANS.setdefault(plan.query_text, {})
    entry = bands.get(plan.band)
    if entry is None or entry[0] != plan:
        bands.pop(plan.band, None)
        if len(bands) >= PLANS_PER_QUERY:
            del bands[next(iter(bands))]
        entry = bands[plan.band] = (plan, {})
    return entry


def _worker_evaluate_group(
    payload,
) -> Tuple[int, float, List[Table], List[Tuple[float, float]],
           List[PlanProfile]]:
    """Evaluate one shared-window group of full evaluations.

    ``payload`` is ``(graphs, tasks)`` where ``graphs`` maps
    ``(stream, width)`` to the group's snapshot graphs (pickled once per
    group) and each task is ``(plan, interval_start, interval_end)``.
    Pure: reads the snapshots, returns the output tables plus, per task, one
    ``(start_offset, duration)`` timing fragment and the execution's
    :class:`~repro.cypher.physical.PlanProfile` — the parent stitches
    timings into its trace as ``worker_evaluate`` spans and merges the
    profiles into the query's EXPLAIN ANALYZE totals, so one trace covers
    both sides of the process boundary.
    """
    graphs, tasks = payload
    started = time.perf_counter()
    tables: List[Table] = []
    timings: List[Tuple[float, float]] = []
    profiles: List[PlanProfile] = []
    for shipped, lo, hi in tasks:
        task_started = time.perf_counter()
        plan, expr_cache = _plan_cached(shipped)
        profile = PlanProfile()
        tables.append(
            execute_plan(
                plan,
                lambda stream, width: graphs[(stream, width)],
                TimeInterval(lo, hi),
                expr_cache=expr_cache,
                profile=profile,
            )
        )
        profiles.append(profile)
        timings.append(
            (task_started - started, time.perf_counter() - task_started)
        )
    return os.getpid(), time.perf_counter() - started, tables, timings, profiles


def _worker_run_shard(payload):
    """Run one shard replica over its sub-stream slice.

    ``payload`` is ``(state, query_texts, options, elements, until)``;
    ``state`` is a prior checkpoint document (or None for a fresh
    replica).  Returns the emissions plus the replica's new checkpoint
    document so the parent stays the single source of shard state.
    """
    from repro.runtime.checkpoint import engine_from_dict, engine_to_dict

    state, query_texts, options, elements, until = payload
    started = time.perf_counter()
    if state is not None:
        engine = engine_from_dict(state)
    else:
        engine = SeraphEngine(**options)
        for text in query_texts:
            engine.register(text, validate=False)
    emissions = engine.run_stream(elements, until=until)
    return (
        os.getpid(),
        time.perf_counter() - started,
        emissions,
        engine_to_dict(engine),
    )


# -- query-level parallelism ---------------------------------------------------

class PoolExecutor:
    """Where a :class:`SeraphEngine` sends a chunk's full evaluations.

    Build through :func:`repro.build_engine`
    (``EngineConfig(parallel_workers=N)``) or pass one to
    ``SeraphEngine(executor=...)``.  ``workers`` sizes the process pool;
    ``None``/``0`` means ``os.cpu_count()``.  The pool is created lazily
    on the first offload and released by :meth:`close`; ``pool`` injects
    an externally managed executor instead — it is then never shut down
    here.

    Emissions are byte-identical to an engine without an executor: only
    the pure snapshot evaluation
    (:func:`repro.cypher.physical.execute_plan`) moves to a worker, and
    results are applied in serial firing order.

    The pool lives behind a :class:`PoolSupervisor`:
    ``max_worker_restarts`` is the crash budget before degrading to
    in-parent execution, ``task_timeout`` bounds each offloaded group's
    wall clock, and ``chaos`` (a
    :class:`~repro.runtime.faults.ChaosConfig`) turns on seeded fault
    injection against the pool.  ``supervisor`` injects a pre-built
    supervisor instead (tests use this to inject crashy pool factories).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        pool: Optional[ProcessPoolExecutor] = None,
        offload_threshold: float = DEFAULT_OFFLOAD_THRESHOLD,
        max_worker_restarts: Optional[int] = None,
        task_timeout: Optional[float] = None,
        chaos=None,
        supervisor: Optional[PoolSupervisor] = None,
    ):
        if workers is None or workers <= 0:
            workers = os.cpu_count() or 1
        self.workers = int(workers)
        self.offload_threshold = float(offload_threshold)
        if supervisor is None:
            supervisor = PoolSupervisor(
                self.workers,
                config=_supervisor_config(max_worker_restarts, task_timeout),
                pool=pool, chaos=chaos,
            )
        self.supervisor = supervisor
        self.attach(supervisor.obs)

    def attach(self, obs: Observability) -> None:
        """Count into (and trace through) the owning engine's bundle."""
        self.obs = self.supervisor.obs = obs
        obs.registry.declare("parallel", PARALLEL_COUNTERS)
        obs.registry.declare("supervision", SUPERVISION_COUNTERS)
        self._batches = obs.registry.counter("parallel.batches")

    def close(self) -> None:
        """Shut down the worker pool (no-op for injected pools)."""
        self.supervisor.close()

    def status(self) -> Dict[str, object]:
        """The ``status()["parallel"]`` section."""
        return _parallel_status(self.obs.registry, workers=self.workers)

    # -- one stage chunk -----------------------------------------------------

    def compute_batch(
        self, engine: SeraphEngine, pendings: List[_PendingEvaluation]
    ) -> List[Table]:
        """Compute one chunk's tables, offloading where it pays off."""
        self._batches.inc()
        count = self.obs.registry.inc
        tables: List[Optional[Table]] = [None] * len(pendings)
        graph_cache: Dict[int, object] = {}
        offload: List[int] = []
        for index, pending in enumerate(pendings):
            if pending.reusable or pending.takes_delta_path:
                # Reuse memo / delta path: cheap and stateful — in-parent.
                tables[index] = engine._compute_table(pending)
            elif self._estimated_cost(pending, graph_cache) \
                    >= self.offload_threshold:
                count("parallel.scheduler_parallel")
                offload.append(index)
            else:
                count("parallel.scheduler_serial")
                tables[index] = engine._compute_table(pending)
                count("parallel.inline_evaluations")
        if offload:
            self._offload(engine, pendings, offload, graph_cache, tables)
        return tables  # type: ignore[return-value]

    def _estimated_cost(
        self, pending: _PendingEvaluation, graph_cache: Dict[int, object]
    ) -> float:
        """The cost model's estimate: is this evaluation worth the IPC
        tax?"""
        bound = frozenset((WIN_START, WIN_END))
        total = 0.0
        for clause in pending.registered.query.body:
            if not isinstance(clause, SeraphMatch):
                continue
            state = pending.registered.windows.get(
                (clause.stream_name, clause.within)
            )
            if state is None:
                continue
            graph = self._batch_graph(state, graph_cache)
            total += pattern_cost(clause.match.pattern, graph, bound)
        return total

    @staticmethod
    def _batch_graph(state, graph_cache: Dict[int, object]):
        """One snapshot per window state per pass (advance is done)."""
        graph = graph_cache.get(id(state))
        if graph is None:
            graph = state.graph()
            graph_cache[id(state)] = graph
        return graph

    def _offload(
        self,
        engine: SeraphEngine,
        pendings: List[_PendingEvaluation],
        offload: List[int],
        graph_cache: Dict[int, object],
        tables: List[Optional[Table]],
    ) -> None:
        """Ship offloaded evaluations to the pool, grouped by signature.

        Queries sharing the same window states (and instant) land in one
        task, so each group's snapshots are pickled exactly once.
        """
        obs = self.obs
        registry = obs.registry
        groups: Dict[Tuple, List[int]] = {}
        for index in offload:
            pending = pendings[index]
            signature = (
                tuple(
                    sorted(
                        (key, id(state))
                        for key, state in pending.registered.windows.items()
                    )
                ),
                pending.instant,
            )
            groups.setdefault(signature, []).append(index)
        payloads: List[tuple] = []
        group_indices: List[List[int]] = []
        signatures: List[tuple] = []
        for indices in groups.values():
            first = pendings[indices[0]]
            graphs = {
                key: self._batch_graph(state, graph_cache)
                for key, state in first.registered.windows.items()
            }

            def stats_for(stream_name, width, _graphs=graphs):
                return _graphs[(stream_name, width)]

            tasks = [
                (
                    engine._plan(pendings[i].registered, stats_for),
                    pendings[i].interval.start,
                    pendings[i].interval.end,
                )
                for i in indices
            ]
            payloads.append((graphs, tasks))
            group_indices.append(indices)
            # A stable, pickle-friendly label for failures: the group's
            # window keys plus the evaluation instant.
            signatures.append(
                tuple(sorted(first.registered.windows.keys()))
                + (first.instant,)
            )
        registry.inc("parallel.offloaded_groups", len(payloads))
        _observe_queue_depth(registry, len(payloads))
        results = self.supervisor.run_batch(
            _worker_evaluate_group, payloads, signatures
        )
        for result, indices in zip(results, group_indices):
            worker_pid, elapsed, group_tables, timings, profiles = result
            _observe_task(registry, worker_pid, elapsed)
            for position, (i, table) in enumerate(
                zip(indices, group_tables)
            ):
                registered = pendings[i].registered
                engine._record_path(pendings[i], "full")
                tables[i] = table
                engine._record_profile(registered, profiles[position])
                registry.inc("parallel.offloaded_evaluations")
                if obs.enabled:
                    offset, duration = timings[position]
                    obs.tracer.add_completed(
                        "worker_evaluate",
                        duration,
                        parent=pendings[i].span,
                        start_offset=offset,
                        pid=worker_pid,
                        rows=len(table),
                    )
                    obs.record_stage(
                        registered.name, "worker_evaluate", duration
                    )


# -- partition-level parallelism -----------------------------------------------

def dead_letter_partition_handler(
    dead_letters: DeadLetterQueue,
) -> Callable[[StreamElement, PartitionError], None]:
    """An ``on_error`` callback routing classifier failures to a DLQ."""

    def handle(element: StreamElement, error: PartitionError) -> None:
        dead_letters.append(
            element,
            reason=str(error),
            error=error.__cause__ if error.__cause__ is not None else error,
            instant=element.instant,
        )

    return handle


def merge_emissions(
    per_shard: List[List[Emission]], query_order: List[str]
) -> List[Emission]:
    """K-way merge of per-shard emission streams.

    Emissions are ordered by (evaluation instant, query registration
    order); the same (instant, query) fired on several shards merges into
    one emission whose table is the bag union of the shard tables, taken
    in shard order.  The result is deterministic for any shard count —
    ``merge_emissions([e], ...)`` is the identity on a single shard.
    """
    rank = {name: position for position, name in enumerate(query_order)}
    buckets: Dict[Tuple[TimeInstant, int], List[Emission]] = {}
    for emissions in per_shard:  # shard order → deterministic union order
        for emission in emissions:
            if emission.query_name not in rank:
                raise EngineError(
                    f"emission from unregistered query "
                    f"{emission.query_name!r}"
                )
            key = (emission.instant, rank[emission.query_name])
            buckets.setdefault(key, []).append(emission)
    merged: List[Emission] = []
    for (instant, position) in sorted(buckets):
        entries = buckets[(instant, position)]
        table = entries[0].table.table
        for emission in entries[1:]:
            table = table.bag_union(emission.table.table)
        merged.append(
            Emission(
                query_name=query_order[position],
                instant=instant,
                table=TimeAnnotatedTable(
                    table=table, interval=entries[0].table.interval
                ),
            )
        )
    return merged


SHARDED_CHECKPOINT_VERSION = 1


class ShardedEngine:
    """N engine replicas over logical sub-streams of one input stream.

    ``classify`` routes each element to a logical sub-stream name
    (:func:`repro.stream.partition.partition_elements`); sub-streams are
    assigned to ``shards`` shards in first-seen round-robin order, and
    each shard runs a full :class:`SeraphEngine` replica with every
    query registered.  ``workers > 1`` runs shard slices in a process
    pool; ``workers=1`` runs them in-process — the merged emissions are
    identical either way (:func:`merge_emissions` defines the order).

    The sharded run equals a single-engine run over the union stream
    exactly when the workload decomposes along the classifier — no
    pattern match spans two sub-streams (e.g. per-tenant components).
    That is the deployment the paper's future-work item (ii) describes;
    the classifier choice is the operator's correctness obligation.

    Classifier failures follow the runtime's dead-letter policy: with a
    ``dead_letters`` queue the offending element is quarantined and the
    run continues; without one the wrapped :class:`PartitionError`
    propagates (fail-fast).
    """

    def __init__(
        self,
        queries: Iterable[str],
        classify: Callable[[StreamElement], str],
        shards: int = 2,
        workers: int = 1,
        engine_options: Optional[dict] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        pool: Optional[ProcessPoolExecutor] = None,
        max_worker_restarts: Optional[int] = None,
        task_timeout: Optional[float] = None,
        chaos=None,
        supervisor: Optional[PoolSupervisor] = None,
    ):
        if shards <= 0:
            raise EngineError("shards must be positive")
        self.queries = [
            query if isinstance(query, str) else query.render()
            for query in queries
        ]
        self.classify = classify
        self.shards = int(shards)
        self.workers = int(workers)
        self.engine_options = dict(engine_options or {})
        self.dead_letters = dead_letters
        if supervisor is None:
            supervisor = PoolSupervisor(
                min(self.workers, self.shards) or 1,
                config=_supervisor_config(max_worker_restarts, task_timeout),
                pool=pool, chaos=chaos,
            )
        self.supervisor = supervisor
        #: ``parallel.*`` and ``supervision.*`` share one registry.
        self.registry = supervisor.obs.registry
        #: logical sub-stream name → shard id, in first-seen order.
        self.assignment: Dict[str, int] = {}
        self._shard_states: List[Optional[dict]] = [None] * self.shards
        self._query_order = [
            parse_seraph(text).name for text in self.queries
        ]

    # -- pool lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.supervisor.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def _shard_of(self, partition: str) -> int:
        shard = self.assignment.get(partition)
        if shard is None:
            shard = len(self.assignment) % self.shards
            self.assignment[partition] = shard
        return shard

    def _route(
        self, elements: Iterable[StreamElement]
    ) -> List[List[StreamElement]]:
        """Partition, assign, and merge back into one slice per shard.

        Within a shard, elements are ordered by (instant, partition
        assignment order) — a deterministic interleaving that keeps each
        sub-stream's arrival order intact.
        """
        on_error = (
            dead_letter_partition_handler(self.dead_letters)
            if self.dead_letters is not None else None
        )
        partitions = partition_elements(
            elements, self.classify, on_error=on_error
        )
        slices: List[List[Tuple[int, int, StreamElement]]] = [
            [] for _ in range(self.shards)
        ]
        for order, (partition, routed) in enumerate(partitions.items()):
            shard = self._shard_of(partition)
            for element in routed:
                slices[shard].append((element.instant, order, element))
        out: List[List[StreamElement]] = []
        for slice_entries in slices:
            slice_entries.sort(key=lambda entry: (entry[0], entry[1]))
            out.append([element for _i, _o, element in slice_entries])
        return out

    # -- running -------------------------------------------------------------

    def run(
        self,
        elements: Iterable[StreamElement],
        until: Optional[TimeInstant] = None,
    ) -> List[Emission]:
        """Route a (finite) stream through the shard replicas and merge.

        Callable repeatedly: replica state persists across calls (via
        checkpoint documents when running in workers)."""
        slices = self._route(elements)
        if until is None:
            instants = [
                slice_elements[-1].instant
                for slice_elements in slices if slice_elements
            ]
            until = max(instants) if instants else None
        self.registry.inc("parallel.batches")
        if self.workers > 1:
            per_shard = self._run_in_workers(slices, until)
        else:
            per_shard = self._run_inline(slices, until)
        return merge_emissions(per_shard, self._query_order)

    def _payload(self, shard: int, slice_elements, until):
        return (
            self._shard_states[shard],
            self.queries,
            self.engine_options,
            slice_elements,
            until,
        )

    def _run_inline(self, slices, until) -> List[List[Emission]]:
        per_shard: List[List[Emission]] = []
        for shard, slice_elements in enumerate(slices):
            _pid, elapsed, emissions, state = _worker_run_shard(
                self._payload(shard, slice_elements, until)
            )
            self.registry.inc("parallel.inline_evaluations", len(emissions))
            _observe_task(self.registry, shard, elapsed)
            self._shard_states[shard] = state
            per_shard.append(emissions)
        return per_shard

    def _run_in_workers(self, slices, until) -> List[List[Emission]]:
        payloads = [
            self._payload(shard, slice_elements, until)
            for shard, slice_elements in enumerate(slices)
        ]
        signatures = [("shard", shard) for shard in range(len(slices))]
        _observe_queue_depth(self.registry, len(payloads))
        results = self.supervisor.run_batch(
            _worker_run_shard, payloads, signatures
        )
        per_shard: List[List[Emission]] = []
        for shard, result in enumerate(results):
            worker_pid, elapsed, emissions, state = result
            _observe_task(self.registry, worker_pid, elapsed)
            self.registry.inc("parallel.offloaded_evaluations",
                              len(emissions))
            self.registry.inc("parallel.offloaded_groups")
            self._shard_states[shard] = state
            per_shard.append(emissions)
        return per_shard

    def status(self) -> Dict[str, object]:
        """Operational snapshot mirroring the engines' ``status()``."""
        return {
            "parallel": _parallel_status(
                self.registry, workers=self.workers, shards=self.shards
            ),
            "supervision": self.supervisor.as_dict(),
        }

    # -- checkpoint ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe checkpoint: shard assignment + per-replica state.

        The classifier is code, not data — restoring requires passing
        the same ``classify`` to :meth:`from_dict`.
        """
        options = dict(self.engine_options)
        policy = options.get("policy")
        if isinstance(policy, ActiveSubstreamPolicy):
            options["policy"] = policy.name
        static = options.get("static_graph")
        if static is not None:
            options["static_graph"] = graph_to_dict(static)
        return {
            "version": SHARDED_CHECKPOINT_VERSION,
            "shards": self.shards,
            "workers": self.workers,
            "queries": list(self.queries),
            "engine_options": options,
            "assignment": dict(self.assignment),
            "shard_states": list(self._shard_states),
        }

    @classmethod
    def from_dict(
        cls,
        data: dict,
        classify: Callable[[StreamElement], str],
        dead_letters: Optional[DeadLetterQueue] = None,
        workers: Optional[int] = None,
    ) -> "ShardedEngine":
        try:
            version = data["version"]
            if version != SHARDED_CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported sharded checkpoint version {version!r}"
                )
            options = dict(data["engine_options"])
            if isinstance(options.get("policy"), str):
                options["policy"] = ActiveSubstreamPolicy[options["policy"]]
            if options.get("static_graph") is not None:
                options["static_graph"] = graph_from_dict(
                    options["static_graph"]
                )
            engine = cls(
                queries=data["queries"],
                classify=classify,
                shards=int(data["shards"]),
                workers=int(workers if workers is not None
                            else data["workers"]),
                engine_options=options,
                dead_letters=dead_letters,
            )
            engine.assignment = {
                name: int(shard)
                for name, shard in data["assignment"].items()
            }
            states = list(data["shard_states"])
            if len(states) != engine.shards:
                raise CheckpointError(
                    "shard state count does not match shard count"
                )
            engine._shard_states = states
            return engine
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed sharded checkpoint document: {exc!r}"
            ) from exc


def run_partitioned(
    queries: Iterable[str],
    elements: Iterable[StreamElement],
    classify: Callable[[StreamElement], str],
    shards: int = 2,
    workers: int = 1,
    until: Optional[TimeInstant] = None,
    engine_options: Optional[dict] = None,
    dead_letters: Optional[DeadLetterQueue] = None,
) -> List[Emission]:
    """One-shot partition-parallel run (the future-work item ii entry
    point): route ``elements`` into logical sub-streams, evaluate every
    query on each shard, and k-way-merge the emissions."""
    with ShardedEngine(
        queries=queries,
        classify=classify,
        shards=shards,
        workers=workers,
        engine_options=engine_options,
        dead_letters=dead_letters,
    ) as engine:
        return engine.run(elements, until=until)
