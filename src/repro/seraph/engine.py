"""The continuous Graph Stream Processing engine (Figure 5, Section 6).

:class:`SeraphEngine` is the runtime the paper sketches: it registers
Seraph queries, ingests one or more property graph streams, fires
evaluations at each query's ET instants, maintains per-window snapshot
graphs incrementally, applies report policies, and delivers
time-annotated tables to sinks.

Beyond the paper's core it implements four of its stated future-work /
optimization items:

* **multiple streams** (future work i) — events are ingested into named
  streams and each ``MATCH`` may read a different one (``FROM STREAM``);
* **static graph integration** (future work iii) — a background graph
  unioned into every snapshot;
* **re-execution avoidance on equal window contents** (Section 6,
  planned optimizations) — when no window's content changed since the
  previous evaluation and the query does not reference the window
  bounds, the previous result is reused instead of re-evaluated;
* **shared window state across concurrent queries** (Section 6,
  "optimizations regarding concurrent queries") — queries whose windows
  agree on (stream, width, ω₀, slide) share one incrementally-maintained
  snapshot instead of each maintaining its own.

One optional part is a stage of this pipeline, not another engine: an
*ingress* (:mod:`repro.runtime.ingress`) in front of the stream log.
Every evaluation runs in the engine's own process.

Correctness contract: for every query and instant, the engine's emission
bag-equals the denotational :func:`repro.seraph.semantics.continuous_run`
output on the admitted input (tested, including property-based tests
over random streams).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.cypher.physical import (
    PhysicalPlan,
    PlanProfile,
    check_lowerable,
    execute_plan,
)
from repro.cypher.plan_cache import PlanCache
from repro.errors import EngineError, QueryRegistryError, UnknownStreamError
from repro.obs import Observability
from repro.obs.registry import Counter
from repro.graph.model import PropertyGraph
from repro.graph.table import Table
from repro.graph.temporal import TimeInstant
from repro.seraph import semantics
from repro.seraph.ast import DEFAULT_STREAM, SeraphMatch, SeraphQuery
from repro.seraph.dataflow import StreamMaterializer
from repro.seraph.parser import parse_seraph
from repro.seraph.registry import DataflowGraph
from repro.seraph.sinks import CollectingSink, Emission, Sink
from repro.stream.report import ReportState
from repro.stream.snapshot import SnapshotMaintainer, snapshot_graph
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.tvt import TimeAnnotatedTable, TimeVaryingTable
from repro.stream.window import ActiveSubstreamPolicy, WindowConfig


class _StreamState(PropertyGraphStream):
    """One named input stream: the recorded elements, plus ``base_seq`` —
    the global sequence number of the oldest retained one — so window
    states keep their place across evictions."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.base_seq = 0

    @property
    def elements(self) -> List[StreamElement]:
        return self._elements  # the live list, not a copy

    def evict_count(self, count: int) -> List[StreamElement]:
        self.base_seq += count
        return super().evict_count(count)

    def evict(self, horizon: TimeInstant, min_seq: int) -> None:
        drop = 0
        for index, element in enumerate(self._elements):
            seq = self.base_seq + index
            if element.instant <= horizon and seq < min_seq:
                drop = index + 1
            else:
                break
        if drop:
            self.evict_count(drop)


class _WindowState:
    """Window content for one (stream, width): maintained incrementally in
    production, re-unioned from scratch per evaluation by the reference
    twin."""

    def __init__(
        self,
        config: WindowConfig,
        policy: ActiveSubstreamPolicy,
        reference: bool,
        static_graph: Optional[PropertyGraph],
    ):
        self.config = config
        self.policy = policy
        self.reference = reference
        self.static_graph = static_graph
        self.maintainer = SnapshotMaintainer()
        if not reference and static_graph is not None:
            # The static graph is a permanent, never-evicted contribution.
            self.maintainer.add(
                StreamElement(graph=static_graph, instant=0)
            )
        self.content: List[StreamElement] = []
        self.content_seqs: List[int] = []
        self.next_seq = 0  # stream sequence number of the next element
        self.last_advanced: Optional[TimeInstant] = None
        self.last_arrivals = 0

    def advance(self, source: _StreamState, instant: TimeInstant) -> int:
        """Bring the window content up to the evaluation at ``instant``.

        Returns how many elements entered.  Idempotent for repeated
        calls at the same instant — that is what lets concurrent queries
        with identical window configurations share one state (they fire
        at the same ET instants, in lock-step; each gets the same count).
        """
        if self.last_advanced is not None and instant == self.last_advanced:
            return self.last_arrivals
        self.last_advanced = instant
        window = self.config.active_window(instant, self.policy)
        if self.policy is ActiveSubstreamPolicy.TRAILING:
            keep_after = instant - self.config.width     # keep arrival > this
            add_until = instant                          # add arrival <= this
        else:
            if window is None:
                keep_after = instant
                add_until = instant - 1
            else:
                keep_after = window.start - 1
                add_until = instant
        # Expired prefix (arrivals are non-decreasing).  Arrivals reach
        # the maintainer *before* expiries leave it, so an entity handed
        # from an expiring element to an arriving one is a count bump,
        # never a net change.
        evict_count = 0
        for element in self.content:
            if element.instant <= keep_after:
                evict_count += 1
            else:
                break
        removed = self.content[:evict_count]
        del self.content[:evict_count]
        del self.content_seqs[:evict_count]
        # Add newly arrived elements.  A state created after the stream
        # already evicted history starts at the surviving prefix (its
        # catch-up windows over evicted spans are empty by design).
        if self.next_seq < source.base_seq:
            self.next_seq = source.base_seq
        index = self.next_seq - source.base_seq
        added: List[StreamElement] = []
        while (
            index < len(source.elements)
            and source.elements[index].instant <= add_until
        ):
            element = source.elements[index]
            if element.instant > keep_after:
                self.content.append(element)
                self.content_seqs.append(self.next_seq)
                added.append(element)
            index += 1
            self.next_seq += 1
        if not self.reference:
            maintainer = self.maintainer
            for element in added:
                maintainer.add(element)
            for element in removed:
                maintainer.remove(element)
        self.last_arrivals = len(added)
        return self.last_arrivals

    def version(self):
        """Identifies the current window content: equal versions ⇒ equal
        snapshot graphs.  The maintainer's content version; for the
        reference twin (no maintainer) the contiguous sequence range."""
        if not self.reference:
            return self.maintainer.version
        if not self.content_seqs:
            return (-1, -1)
        return (self.content_seqs[0], self.content_seqs[-1])

    def graph(self) -> PropertyGraph:
        if not self.reference:
            return self.maintainer.graph()
        from repro.graph.union import union as graph_union

        graph = snapshot_graph(self.content)
        if self.static_graph is not None:
            graph = graph_union(self.static_graph, graph)
        return graph


#: ``status()["queries"][q]`` key -> the ``query.<q>.<suffix>`` counter
#: in the registry it reads.
_STATUS_COUNTERS = {
    "evaluations": "evaluations",
    "reused": "path.reuse",
    "plan_compiles": "plan_compiles",
}
#: Every per-query counter suffix.
QUERY_COUNTERS = (*_STATUS_COUNTERS.values(), "path.full")
#: ``status()["queries"][q]`` keys the end-to-end benchmark still reads
#: from the removed delta path: always 0, with no counter behind them.
_RETIRED_STATUS_KEYS = dict.fromkeys((
    "delta", "delta_full_refreshes",
    "assignments_retained", "assignments_recomputed",
), 0)


@dataclass
class RegisteredQuery:
    """Engine-side state of one registered continuous query."""

    query: SeraphQuery
    sink: Sink
    windows: Dict[Tuple[str, int], _WindowState]
    report: Optional[ReportState]
    next_eval: TimeInstant
    uses_window_bounds: bool = True
    warnings: List = field(default_factory=list)
    result: TimeVaryingTable = field(default_factory=TimeVaryingTable)
    #: The registry's ``query.<name>.<suffix>`` counters, pre-bound by
    #: :data:`QUERY_COUNTERS` suffix (the only per-query counter store).
    counters: Dict[str, Counter] = field(default_factory=dict)
    done: bool = False
    #: The compiled plan last executed (None until the first evaluation:
    #: compiling reads the snapshot's statistics).
    physical_plan: Optional[PhysicalPlan] = None
    #: What executing that plan has counted so far (EXPLAIN ANALYZE).
    profile: PlanProfile = field(default_factory=PlanProfile)
    _last_version: Optional[Tuple] = None
    _last_table: Optional[Table] = None
    #: Per-query compiled-expression cache (see repro.cypher.expressions);
    #: threaded through every evaluation so hot-path expressions compile
    #: once per query lifetime.
    _expr_cache: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.query.name


class SeraphEngine:
    """Registers Seraph queries and drives their continuous evaluation.

    Parameters
    ----------
    policy:
        Active-substream selection policy (DESIGN.md §3).  The default
        TRAILING reproduces the paper's worked example.
    static_graph:
        Optional background property graph unioned into every snapshot
        (the paper's future-work item iii).
    reference:
        False (default): **production** — snapshots maintained
        incrementally, an evaluation whose window content did not change
        reuses the previous table (Section 6's "avoidable re-executions
        on equal window contents"), every other one executes the
        query's compiled plan, and plans are compiled once per
        statistics band (:mod:`repro.cypher.plan_cache`).  True: the
        **reference** twin, the test oracle — every snapshot re-unioned
        from its window, every evaluation from scratch, every pattern
        planned against its snapshot.  Both emit the same bag at every instant;
        :func:`repro.api.reference_mode` maps ``EngineConfig``'s six mode
        fields onto this flag.
    obs:
        An :class:`repro.obs.Observability` bundle (tracer + metrics
        registry).  ``None`` (default): tracing off, counters counted in
        a registry of the engine's own (docs/OBSERVABILITY.md).
    ingress:
        An optional :class:`repro.runtime.ingress.Ingress`: validates and
        re-sequences arrivals before the stream log and isolates sinks
        (docs/RESILIENCE.md).  Absent, arrivals are appended as given.
    """

    def __init__(
        self,
        policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
        static_graph: Optional[PropertyGraph] = None,
        reference: bool = False,
        obs: Optional[Observability] = None,
        ingress=None,
    ):
        self.policy = policy
        self.static_graph = static_graph
        self.reference = reference
        self.plan_cache = PlanCache(hoist=not reference)
        self._streams: Dict[str, _StreamState] = {}
        self.obs = obs if obs is not None else Observability.disabled()
        self._ingested = self.obs.registry.counter("engine.ingested")
        self._evaluations = self.obs.registry.counter("engine.evaluations")
        self.ingress = ingress
        if ingress is not None:
            ingress.attach(self.obs)
        self._queries: Dict[str, RegisteredQuery] = {}
        self._shared_windows: Dict[Tuple, _WindowState] = {}
        self._watermark: Optional[TimeInstant] = None
        self._last_admitted: Optional[TimeInstant] = None
        # Dataflow chaining (docs/DATAFLOW.md): the dependency graph over
        # registered queries, plus one materializer per derived stream.
        self._dataflow = DataflowGraph()
        self._materializers: Dict[str, StreamMaterializer] = {}
        # Streams created by an ``INTO`` clause: they stay marked derived
        # even after their last producer deregisters (while consumers
        # remain), so cascading eviction can reclaim their state once
        # the last consumer goes too.
        self._derived_streams: set = set()

    # -- registry (REGISTER QUERY contract) ----------------------------------

    def register(
        self,
        query: Union[str, SeraphQuery],
        sink: Optional[Sink] = None,
        replace: bool = False,
        validate: bool = True,
        fallback: Optional[Sink] = None,
        wrap_sink: bool = True,
    ) -> RegisteredQuery:
        """Register a continuous query; returns its engine-side handle.

        ``REGISTER QUERY name`` names are unique; pass ``replace=True`` to
        edit a previously registered query (the paper's editing contract).
        Semantic validation (undefined variables, aggregates in WHERE —
        :mod:`repro.seraph.validation`) runs by default and raises
        :class:`~repro.errors.SeraphSemanticError` on errors; warnings are
        recorded on the returned handle as ``handle.warnings``.  An
        ingress wraps the sink for fault isolation (``fallback`` takes
        what it cannot) unless ``wrap_sink`` is false.  A (hand-built)
        query with a body clause the plan compiler has no stage for is a
        :class:`~repro.errors.SeraphSemanticError` whatever ``validate``
        says: every registered query must compile.
        """
        if isinstance(query, str):
            query = parse_seraph(query)
        check_lowerable(query)
        warnings: List = []
        if validate:
            from repro.seraph.validation import validate as validate_query

            warnings = validate_query(query)
        if query.name in self._queries and not replace:
            raise QueryRegistryError(
                f"query {query.name!r} is already registered "
                "(pass replace=True to edit it)"
            )
        # Dataflow edges commit atomically: a registration that would
        # close a cycle raises DataflowCycleError (naming the path) here,
        # before any engine state — windows, shared states — is touched.
        into = query.emits_into if query.is_continuous else None
        self._dataflow.replace(query.name, query.stream_names(), into)
        windows = {}
        for stream_name, width in query.window_keys():
            self._stream_state(stream_name)  # ensure the stream exists
            config = semantics.window_config(query, width)
            share_key = (stream_name, width, config.start, config.slide)
            shared = self._shared_windows.get(share_key)
            if shared is not None and shared.last_advanced is None:
                # Lock-step sharing is only safe from a clean state: a
                # late registrant must not see an already-advanced window.
                windows[(stream_name, width)] = shared
                continue
            state = _WindowState(
                config, self.policy, self.reference, self.static_graph
            )
            if shared is None:
                self._shared_windows[share_key] = state
            windows[(stream_name, width)] = state
        if sink is None:
            sink = CollectingSink()
        if self.ingress is not None and wrap_sink:
            sink = self.ingress.wrap_sink(sink, fallback)
        registry = self.obs.registry
        registry.discard(f"query.{query.name}.")
        registered = RegisteredQuery(
            query=query,
            sink=sink,
            windows=windows,
            report=ReportState(query.emit.policy) if query.is_continuous else None,
            next_eval=query.starting_at,
            uses_window_bounds=query.references_window_bounds(),
            counters={
                suffix: registry.counter(f"query.{query.name}.{suffix}")
                for suffix in QUERY_COUNTERS
            },
        )
        registered.warnings = warnings
        self._queries[query.name] = registered
        if into is not None:
            # One materializer per derived stream, shared by all of its
            # producers; re-registering keeps the existing merge store so
            # node identity stays continuous across query edits.
            self._materializers.setdefault(into, StreamMaterializer(into))
            self._stream_state(into)  # the derived stream exists eagerly
            self._derived_streams.add(into)
        self._cascade_derived()
        return registered

    def deregister(self, name: str) -> None:
        if name not in self._queries:
            raise QueryRegistryError(f"no registered query named {name!r}")
        self.plan_cache.evict(self._queries[name].query)
        del self._queries[name]
        self.obs.registry.discard(f"query.{name}.")
        self._dataflow.remove(name)
        self._cascade_derived()
        self._evict()

    def _cascade_derived(self) -> None:
        """Cascading eviction for derived streams (docs/DATAFLOW.md).

        A derived stream that lost its last producer drops its
        materializer (node identity restarts if a producer is ever
        re-registered); if additionally no live query consumes it, the
        whole stream state — retained elements included — disappears.
        """
        for stream in list(self._derived_streams):
            if self._dataflow.producers_of(stream):
                continue
            self._materializers.pop(stream, None)
            if not self._dataflow.consumers_of(stream):
                self._derived_streams.discard(stream)
                self._streams.pop(stream, None)

    def registered(self, name: str) -> RegisteredQuery:
        if name not in self._queries:
            raise QueryRegistryError(f"no registered query named {name!r}")
        return self._queries[name]

    def sink(self, name: str) -> Sink:
        """The user's sink of a registered query (under whatever the
        ingress wrapped around it)."""
        sink = self.registered(name).sink
        return sink if self.ingress is None else self.ingress.unwrap(sink)

    @property
    def query_names(self) -> List[str]:
        return list(self._queries)

    # -- ingestion ---------------------------------------------------------------

    def _stream_state(self, name: str) -> _StreamState:
        state = self._streams.get(name)
        if state is None:
            state = self._streams[name] = _StreamState(name)
        return state

    def ingest(
        self,
        graph: PropertyGraph,
        instant: TimeInstant,
        stream: str = DEFAULT_STREAM,
    ) -> List[Emission]:
        """Ingest one stream pair (G, ω) into the named stream."""
        return self.ingest_element(
            StreamElement(graph=graph, instant=instant), stream
        )

    def ingest_element(
        self, element: Any, stream: str = DEFAULT_STREAM
    ) -> List[Emission]:
        """One arrival.  Without an ingress: appended as is (returns
        ``[]``; evaluations fire on :meth:`advance_to`).  With one:
        validated (raw payloads too), re-sequenced, and what became ripe
        is admitted; returns the emissions fired while catching up."""
        if self.ingress is None:
            self._append(element, stream)
            return []
        emissions: List[Emission] = []
        for ripe in self.ingress.offer(element, stream):
            emissions.extend(self._admit(ripe, stream))
        return emissions

    def _append(self, element: StreamElement, stream: str) -> None:
        with self.obs.tracer.span("ingest", stream=stream,
                                  instant=element.instant):
            self._stream_state(stream).append(element)
        self._ingested.inc()
        self.obs.registry.inc(f"engine.stream.{stream}.ingested")
        self._last_admitted = element.instant
        if self._watermark is None or element.instant > self._watermark:
            self._watermark = element.instant

    def _admit(self, element: StreamElement, stream: str) -> List[Emission]:
        """Fire what is due strictly before this arrival (it must not be
        seen by those evaluations), then append it."""
        emissions = self.advance_to(element.instant - 1)
        self._append(element, stream)
        return emissions

    def push(self, element: Any, stream: str = DEFAULT_STREAM
             ) -> List[Emission]:
        """One arrival of a live feed: through the ingress when there is
        one, else admitted in arrival order."""
        if self.ingress is None:
            return self._admit(element, stream)
        return self.ingest_element(element, stream)

    def flush(self, until: Optional[TimeInstant] = None) -> List[Emission]:
        """End-of-stream: admit whatever the ingress still buffers, then
        advance to ``until`` (default: the last admitted arrival)."""
        emissions: List[Emission] = []
        if self.ingress is not None:
            for stream, element in self.ingress.drain():
                emissions.extend(self._admit(element, stream))
        final = until if until is not None else self._last_admitted
        if final is not None:
            emissions.extend(self.advance_to(final))
        return emissions

    @property
    def watermark(self) -> Optional[TimeInstant]:
        """The largest instant appended to any stream so far."""
        return self._watermark

    @property
    def stream(self) -> PropertyGraphStream:
        """The default input stream (single-stream convenience view)."""
        return self._stream_state(DEFAULT_STREAM)

    # -- evaluation loop -----------------------------------------------------------

    def advance_to(self, instant: TimeInstant) -> List[Emission]:
        """Fire every due evaluation with ET instant ≤ ``instant``.

        Returns the emissions produced, in firing order.
        """
        emissions: List[Emission] = []
        while True:
            due = self._due_queries(instant)
            if not due:
                break
            for index, chunk in enumerate(self._dataflow_stages(due)):
                self._run_stage(index, chunk, emissions)
        self._evict()
        return emissions

    def _due_queries(self, instant: TimeInstant) -> List[RegisteredQuery]:
        """Due evaluations in firing order: global ET order, then
        dataflow stage (producers fire before same-instant consumers,
        so staged propagation is deterministic and replayable).  With no
        ``INTO`` queries every stage is 0 and the order is exactly the
        pre-dataflow one."""
        due = [
            registered
            for registered in self._queries.values()
            if not registered.done and registered.next_eval <= instant
        ]
        due.sort(key=lambda registered: (
            registered.next_eval,
            self._dataflow.stage_of(registered.name),
        ))
        return due

    def _dataflow_stages(
        self, due: List[RegisteredQuery]
    ) -> Iterable[List[RegisteredQuery]]:
        """Split a sorted due list into dataflow stage chunks.

        A chunk boundary falls before any query that consumes a derived
        stream some query already in the chunk produces: everything
        before the boundary must finish (and materialize) before the
        consumer's windows advance.  With no ``INTO`` queries this
        yields the whole list once — the pre-dataflow fast path.
        """
        if self._dataflow.is_trivial:
            yield due
            return
        chunk: List[RegisteredQuery] = []
        produced: set = set()
        for registered in due:
            if any(stream in produced
                   for stream in registered.query.stream_names()):
                yield chunk
                chunk = []
                produced = set()
            chunk.append(registered)
            into = registered.query.emits_into
            if into is not None:
                produced.add(into)
        if chunk:
            yield chunk

    def _run_stage(
        self,
        index: int,
        chunk: List[RegisteredQuery],
        emissions: List[Emission],
    ) -> None:
        """One dataflow stage chunk: every evaluation, in firing order."""
        obs = self.obs
        staged = obs.enabled and not self._dataflow.is_trivial
        if staged:
            started = time.perf_counter()
        for registered in chunk:
            emissions.append(self._evaluate(registered))
        if staged:
            obs.tracer.add_completed(
                "dataflow_stage", time.perf_counter() - started,
                stage=index, queries=len(chunk),
            )
            obs.registry.inc("dataflow.stages")

    def run_stream(
        self,
        elements: Iterable[Any],
        until: Optional[TimeInstant] = None,
        stream: str = DEFAULT_STREAM,
    ) -> List[Emission]:
        """Ingest a whole (finite) stream, firing evaluations in arrival
        order; then :meth:`flush` to ``until`` (default: the last
        arrival)."""
        if self.ingress is not None:
            elements = self.ingress.source(elements)
        emissions: List[Emission] = []
        for element in elements:
            emissions.extend(self.push(element, stream))
        emissions.extend(self.flush(until))
        return emissions

    def run_streams(
        self,
        streams: Dict[str, Iterable[StreamElement]],
        until: Optional[TimeInstant] = None,
    ) -> List[Emission]:
        """Multi-stream run: merge named streams by arrival instant and
        fire evaluations along the way."""
        tagged: List[Tuple[TimeInstant, int, str, StreamElement]] = []
        for order, (name, elements) in enumerate(streams.items()):
            for element in elements:
                tagged.append((element.instant, order, name, element))
        tagged.sort(key=lambda item: (item[0], item[1]))
        emissions: List[Emission] = []
        for _instant, _order, name, element in tagged:
            emissions.extend(self.push(element, name))
        emissions.extend(self.flush(until))
        return emissions

    # -- internals -------------------------------------------------------------------

    def _evaluate(self, registered: RegisteredQuery) -> Emission:
        """One due evaluation: advance the windows, compute the table
        (reuse / full), apply the report policy, deliver to the sink,
        advance ET."""
        query = registered.query
        name = query.name
        instant = registered.next_eval
        obs = self.obs
        span = obs.tracer.start("evaluate", query=name, instant=instant)
        self._advance_windows(registered, instant, span)
        interval = semantics.reported_interval(query, instant, self.policy)
        version = tuple(
            state.version() for state in registered.windows.values()
        )
        if (
            not self.reference
            and not registered.uses_window_bounds
            and registered._last_table is not None
            and version == registered._last_version
        ):
            self._record_path(registered, span, "reuse")
            with obs.stage(name, "reuse", parent=span):
                table = registered._last_table
        else:
            table = self._match_full(registered, interval, span)
        registered._last_version = version
        registered._last_table = table

        emitted = table
        if registered.report is not None:
            with obs.stage(name, "report", parent=span,
                           policy=query.emit.policy.value):
                emitted = registered.report.apply(table)
        annotated = TimeAnnotatedTable(table=emitted, interval=interval)
        registered.result.append(
            TimeAnnotatedTable(table=table, interval=interval)
        )
        if query.is_continuous:
            registered.next_eval = instant + query.slide
        else:
            registered.done = True
        emission = Emission(query_name=name, instant=instant, table=annotated)
        with obs.stage(name, "sink", parent=span, rows=len(annotated)):
            registered.sink.receive(emission)
        if query.emits_into is not None:
            self._materialize_emission(registered, emission, span)
        registered.counters["evaluations"].inc()
        self._evaluations.inc()
        if obs.enabled:
            span.annotate(rows=len(annotated))
            span.finish()
            obs.record_stage(name, "total", span.duration_seconds)
            obs.registry.observe(f"query.{name}.rows", len(annotated))
        return emission

    def _advance_windows(
        self, registered: RegisteredQuery, instant: TimeInstant, span
    ) -> None:
        """Bring every window of the query up to ``instant``: the
        ``window_advance`` stage."""
        obs = self.obs
        name = registered.name
        derived = not self._dataflow.is_trivial
        with obs.stage(name, "window_advance", parent=span,
                       windows=len(registered.windows)):
            for (stream_name, _width), state in registered.windows.items():
                arrivals = state.advance(
                    self._stream_state(stream_name), instant
                )
                if derived and arrivals \
                        and self._dataflow.producers_of(stream_name):
                    # Per-edge consumption counter: upstream emissions
                    # entering this downstream window (EXPLAIN ANALYZE's
                    # dataflow edges render these).
                    obs.registry.inc(
                        f"query.{name}.consumed.{stream_name}", arrivals
                    )

    def _match_full(
        self, registered: RegisteredQuery, interval, span
    ) -> Table:
        """The full path: execute the compiled plan on every window's
        snapshot."""
        self._record_path(registered, span, "full")
        with self.obs.stage(registered.name, "match_full",
                            parent=span) as stage:
            provider = self._graph_provider(registered, stage)
            profile = PlanProfile()
            table = execute_plan(
                self._plan(registered, provider),
                provider,
                interval,
                expr_cache=registered._expr_cache,
                profile=profile,
            )
        registered.profile.merge(profile)
        if self.obs.enabled:
            for op_id, count in profile.rows.items():
                self.obs.registry.inc(
                    f"query.{registered.name}.op.{op_id}.rows", count
                )
        return table

    def _record_path(self, registered: RegisteredQuery, span,
                     path: str) -> None:
        """Which way an evaluation went: reuse | full — on its root span
        and as a per-query counter."""
        span.annotate(path=path)
        registered.counters[f"path.{path}"].inc()

    def _timed_graph(self, window_state: _WindowState, query_name: str,
                     parent) -> PropertyGraph:
        """Snapshot-build stage: one window state's graph, under a span."""
        maintainer = window_state.maintainer
        with self.obs.stage(
            query_name, "snapshot_build", parent=parent,
            changed=len(maintainer.changed_nodes)
            + len(maintainer.changed_rels),
        ) as span:
            graph = window_state.graph()
            span.annotate(order=graph.order, size=graph.size)
        return graph

    def _materialize_emission(
        self, registered: RegisteredQuery, emission: Emission, span
    ) -> None:
        """Feed one producer emission into its derived stream.

        Runs after sink delivery, inside the producer's evaluation turn,
        so same-tick downstream stages see the new element when their
        windows advance (the staged-propagation contract).
        """
        into = registered.query.emits_into
        materializer = self._materializers[into]  # register created it
        registry = self.obs.registry
        with self.obs.stage(registered.name, "materialize", parent=span,
                            stream=into) as stage:
            element = materializer.materialize(emission)
            if element is not None:
                self._stream_state(into).append(element)
                if self._watermark is None \
                        or element.instant > self._watermark:
                    self._watermark = element.instant
            stage.annotate(
                rows=len(emission.table) if element is not None else 0
            )
        if element is not None:
            registry.inc("dataflow.materialized_elements")
            registry.inc("dataflow.materialized_rows", len(emission.table))
            registry.inc(f"dataflow.stream.{into}.elements")

    def _graph_provider(self, registered: RegisteredQuery, parent):
        """Window snapshots by (stream, width): each built once per
        evaluation (plan lookup reads statistics from the snapshots the
        plan then executes against), as a ``snapshot_build`` stage under
        ``parent``."""
        snapshots: Dict[Tuple[str, int], PropertyGraph] = {}

        def graph_for(stream_name: str, width: int) -> PropertyGraph:
            key = (stream_name, width)
            if key not in snapshots:
                state = registered.windows.get(key)
                if state is None:
                    raise EngineError(
                        f"no window state for stream {stream_name!r} "
                        f"width {width}"
                    )
                snapshots[key] = self._timed_graph(
                    state, registered.name, parent
                )
            return snapshots[key]

        return graph_for

    def _plan(self, registered: RegisteredQuery, stats_for) -> PhysicalPlan:
        """The query's compiled plan under the current statistics band
        (compiled on the first visit to a band)."""
        misses_before = self.plan_cache.misses
        started = time.perf_counter()
        plan = self.plan_cache.plan_for(registered.query, stats_for)
        if self.plan_cache.misses != misses_before:
            registered.counters["plan_compiles"].inc()
            if self.obs.enabled:
                self.obs.record_stage(
                    registered.name,
                    "plan_compile",
                    time.perf_counter() - started,
                )
        if registered.physical_plan is not plan:
            registered.physical_plan = plan
            registered.profile = PlanProfile()
        return plan

    def _evict(self) -> None:
        """Drop stream elements no future evaluation can reach, and shared
        window states no live query reads."""
        horizons: Dict[str, TimeInstant] = {}
        min_seqs: Dict[str, int] = {}
        live_states = set()
        for registered in self._queries.values():
            if registered.done:
                continue
            # Ψ restricted to instants a live window can still reach.
            registered.result.evict_closed_by(
                registered.next_eval - registered.query.max_within
            )
            for (stream_name, width), state in registered.windows.items():
                live_states.add(id(state))
                horizon = registered.next_eval - width
                if stream_name not in horizons:
                    horizons[stream_name] = horizon
                    min_seqs[stream_name] = state.next_seq
                else:
                    horizons[stream_name] = min(horizons[stream_name], horizon)
                    min_seqs[stream_name] = min(
                        min_seqs[stream_name], state.next_seq
                    )
        if self._shared_windows:
            self._shared_windows = {
                key: state
                for key, state in self._shared_windows.items()
                if id(state) in live_states
            }
        for stream_name, state in self._streams.items():
            if stream_name in horizons:
                state.evict(horizons[stream_name], min_seqs[stream_name])
            else:
                # No live query reads this stream: nothing retained here
                # can ever be evaluated again.
                state.evict_count(len(state))

    @property
    def retained_elements(self) -> int:
        """How many stream elements the engine currently retains."""
        return sum(len(state) for state in self._streams.values())

    # -- dataflow introspection -------------------------------------------------

    @property
    def dataflow(self) -> DataflowGraph:
        """The dependency graph over registered queries."""
        return self._dataflow

    def derived_streams(self) -> List[str]:
        """Named derived streams, in first-producer registration order."""
        return self._dataflow.produced_streams()

    def derived_stream(self, name: str) -> Dict[str, object]:
        """One derived stream's status (producers, consumers, cursor).

        Raises :class:`~repro.errors.UnknownStreamError` when no
        registered query emits into ``name``.
        """
        status = self.dataflow_status()["streams"]
        if name not in status:
            raise UnknownStreamError(
                f"no registered query emits into stream {name!r} "
                f"(derived streams: {sorted(status) or 'none'})"
            )
        return status[name]

    def dataflow_status(self) -> Dict[str, object]:
        """The ``status()["dataflow"]`` section (docs/DATAFLOW.md).

        ``cursor`` counts elements materialized into the stream over its
        lifetime (monotonic; survives checkpoints), ``retained`` the
        elements currently held for live consumers.
        """
        streams: Dict[str, Dict[str, object]] = {}
        for stream in self._dataflow.produced_streams():
            materializer = self._materializers.get(stream)
            state = self._streams.get(stream)
            streams[stream] = {
                "producers": self._dataflow.producers_of(stream),
                "consumers": self._dataflow.consumers_of(stream),
                "cursor": materializer.elements if materializer else 0,
                "rows": materializer.rows if materializer else 0,
                "retained": len(state) if state is not None else 0,
            }
        return {
            "streams": streams,
            "order": self._dataflow.topological_names(),
            "stages": {
                name: self._dataflow.stage_of(name)
                for name in self._queries
            },
            "edges": [
                {
                    "producer": producer,
                    "stream": stream,
                    "consumer": consumer,
                    "emitted": streams[stream]["cursor"],
                    "consumed": self.obs.registry.value(
                        f"query.{consumer}.consumed.{stream}"
                    ),
                }
                for producer, stream, consumer in self._dataflow.edges()
            ],
        }

    def status(self) -> Dict[str, object]:
        """Operational snapshot for monitoring dashboards/logs: every
        count in it is a read of the metrics registry."""
        info: Dict[str, object] = {
            "queries": {
                name: {
                    **{key: registered.counters[suffix].value
                       for key, suffix in _STATUS_COUNTERS.items()},
                    **_RETIRED_STATUS_KEYS,
                    "next_eval": registered.next_eval,
                    "done": registered.done,
                    "warnings": [str(w) for w in registered.warnings],
                    "plan_operators": (
                        registered.physical_plan.op_count
                        if registered.physical_plan is not None
                        else 0
                    ),
                }
                for name, registered in self._queries.items()
            },
            "planner": self.plan_cache.stats(),
            "streams": {
                name: {
                    "retained": len(state),
                    "head": state.head_instant,
                }
                for name, state in self._streams.items()
            },
            "watermark": self._watermark,
            "policy": self.policy.value,
            "mode": "reference" if self.reference else "production",
            "shared_window_states": len(self._shared_windows),
            "dataflow": self.dataflow_status(),
        }
        if self.ingress is not None:
            info["resilience"] = self.ingress.status()
        return info

    def unified_status(self) -> Dict[str, object]:
        """The namespaced, schema-versioned status document
        (docs/OBSERVABILITY.md; :mod:`repro.obs.schema`)."""
        from repro.obs.schema import unified_status

        return unified_status(self)

    # -- lifecycle / checkpoint (repro.runtime.checkpoint) ----------------------

    @property
    def dead_letters(self):
        """The ingress's quarantine (``None`` without an ingress)."""
        return self.ingress.dead_letters if self.ingress is not None else None

    def checkpoint(self) -> Dict[str, Any]:
        """The engine's whole state as one JSON-safe document
        (:mod:`repro.runtime.checkpoint` has the format)."""
        from repro.runtime import checkpoint

        return checkpoint.engine_to_dict(self)

    def checkpoint_json(self, indent: Optional[int] = None) -> str:
        from repro.runtime import checkpoint

        return checkpoint.checkpoint_to_json(self, indent)

    def save_checkpoint(self, path: str) -> None:
        from repro.runtime import checkpoint

        checkpoint.save_checkpoint(self, path)

    @staticmethod
    def from_checkpoint(data, sinks=None, **tuning) -> "SeraphEngine":
        """An engine from a :meth:`checkpoint` document or its JSON
        string (:func:`repro.runtime.checkpoint.engine_from_dict`)."""
        from repro.runtime import checkpoint

        load = (checkpoint.engine_from_json if isinstance(data, str)
                else checkpoint.engine_from_dict)
        return load(data, sinks, **tuning)
