"""The frozen workloads: query, seeded stream, loop kind and size.

Names are fixed; later issues cite them.  Every workload runs the
production path (``EngineConfig()`` defaults) unless ``engine`` says
otherwise, and every generated stream has one event per ``EVERY``
period, so each event triggers exactly one evaluation.  ``events`` is
the stream length at ``--scale 1``: sized so the timed section takes
about 10 s on the 2-core reference machine, which leaves the
``--seconds`` deadline as a cap for slower machines, not the normal
stopping rule (identical events are measured on every run and on both
sides of a comparison).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.graph.temporal import MINUTE
from repro.stream.stream import StreamElement
from repro.usecases.micromobility import (
    RentalStreamConfig,
    RentalStreamGenerator,
    student_trick_query,
)
from repro.usecases.network import (
    NetworkConfig,
    NetworkStreamGenerator,
    anomalous_routes_query,
)
from repro.usecases.pole import (
    PoleConfig,
    PoleStreamGenerator,
    crime_suspects_query,
)

#: ``pole_late``: how far (in periods) an arrival may trail newer ones.
LATENESS_PERIODS = 3


def rides_stream(seed: int, events: int) -> List[StreamElement]:
    """RideAnywhere rentals with the fraud-user count held at its mean.

    The matcher's cost follows the number of fraud users chaining
    rentals inside the window, which the generator draws per user
    (binomial: 5..17 of 50 across seeds; 3x in run time between 5 and
    15).  Candidate generator seeds are drawn from ``seed`` until
    one has exactly the expected count, so seeds vary everything but
    that one structural parameter.
    """
    config = RentalStreamConfig(
        events=events, stations=400, vehicles=90, rentals_per_event=3
    )
    target = round(config.users * config.fraud_rate)
    candidates = random.Random(seed)
    while True:
        config.seed = candidates.randrange(1 << 30)
        generator = RentalStreamGenerator(config)
        if len(generator.fraud_users) == target:
            return generator.stream()


def net_stream(seed: int, events: int) -> List[StreamElement]:
    return NetworkStreamGenerator(
        NetworkConfig(racks=32, routers=8, events=events, seed=seed)
    ).stream()


def pole_stream(seed: int, events: int) -> List[StreamElement]:
    return PoleStreamGenerator(PoleConfig(
        persons=500, locations=50, sightings_per_event=20,
        events=events, seed=seed,
    )).stream()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``inproc`` (closed loop on an engine in this process) or
    #: ``service`` (a served engine in a child process, driven over
    #: loopback HTTP + SSE).
    loop: str
    query: Callable[[], str]
    generate: Callable[[int, int], List[StreamElement]]
    period: int
    #: window length in events = the untimed warm-up
    window_events: int
    events: int
    engine: Mapping[str, object] = field(default_factory=dict)
    #: displace arrivals (10 % by <= LATENESS_PERIODS, 1 % beyond)
    late: bool = False
    #: ``service`` only, traced run: after the closed loop (phase A) the
    #: same server takes ``open_events`` more on a fixed schedule of
    #: ``open_rate`` events/s (phase B).  The rate is a constant near half
    #: of phase A's ``events_per_s`` on the reference machine, never
    #: derived at run time.
    open_rate: float = 0.0
    open_events: int = 0

    def sized(self, scale: float) -> int:
        """Stream length at ``scale`` (never less than two windows)."""
        return max(2 * self.window_events + 8, round(self.events * scale))

    def open_sized(self, scale: float) -> int:
        return max(8, round(self.open_events * scale)) if self.open_events else 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="rides_chain",
        why="Listing 5: two-path pattern with a bounded variable-length hop "
            "is delta-ineligible, so every tick is a full match; matcher and "
            "operator work shows here, ingest and wire work should not",
        loop="inproc",
        query=student_trick_query,
        generate=rides_stream,
        period=5 * MINUTE, window_events=12, events=2100,
    ),
    Workload(
        name="net_paths",
        why="Listing 2: every element is a whole configuration graph that "
            "overlaps its neighbours; stresses snapshot union, SNAPSHOT "
            "reporting and a full shortestPath match per tick",
        loop="inproc",
        query=anomalous_routes_query,
        generate=net_stream,
        period=MINUTE, window_events=10, events=1850,
    ),
    Workload(
        name="pole_delta",
        why="single fixed-length path on the delta path with small high-churn "
            "elements: per-event overhead (ingest, window advance, snapshot "
            "patch, report diff) dominates, a matcher rewrite barely moves it",
        loop="inproc",
        query=crime_suspects_query,
        generate=pole_stream,
        period=5 * MINUTE, window_events=12, events=6200,
    ),
    Workload(
        name="pole_late",
        why="pole_delta's stream with 10 % of arrivals displaced within and "
            "1 % beyond the allowed lateness, through the resilient engine: "
            "reorder buffer, watermark and dead-letter path",
        loop="inproc",
        query=crime_suspects_query,
        generate=pole_stream,
        period=5 * MINUTE, window_events=12, events=6500,
        engine={"resilient": True,
                "allowed_lateness": LATENESS_PERIODS * 5 * MINUTE},
        late=True,
    ),
    Workload(
        name="service_pole",
        why="pole_delta's stream through a served engine in a child process "
            "over loopback: JSON decode, HTTP framing, asyncio, emission log "
            "and SSE encode dominate the cheap engine work",
        loop="service",
        query=crime_suspects_query,
        generate=pole_stream,
        period=5 * MINUTE, window_events=12, events=2400,
        open_rate=100.0, open_events=400,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def displace(elements: List[StreamElement], seed: int) -> List[StreamElement]:
    """Seeded out-of-order arrival order for ``pole_late``.

    10 % of elements arrive 1..LATENESS_PERIODS periods after their turn
    (the reorder buffer re-sequences them), 1 % arrive later than that
    (dead-lettered).
    """
    rng = random.Random(seed ^ 0x5EED)
    keyed = []
    for index, element in enumerate(elements):
        draw = rng.random()
        if draw < 0.01:
            shift = rng.randint(LATENESS_PERIODS + 2, LATENESS_PERIODS + 5)
        elif draw < 0.11:
            shift = rng.randint(1, LATENESS_PERIODS)
        else:
            shift = 0
        keyed.append((index + shift + (0.5 if shift else 0.0), index, element))
    return [element for _key, _index, element in sorted(keyed)]


def survivors(
    arrivals: Sequence[StreamElement], lateness: int
) -> List[StreamElement]:
    """The arrivals a watermark with ``lateness`` admits, in instant order.

    Decided here by the rule itself — an arrival older than ``largest
    instant seen - lateness`` is too late — independently of the
    runtime's reorder buffer, so the expected emissions are the in-order
    run over what this returns.
    """
    kept = []
    watermark = frontier = None
    for element in arrivals:
        if frontier is not None and element.instant < frontier:
            continue
        kept.append(element)
        if watermark is None or element.instant > watermark:
            watermark = element.instant
        frontier = watermark - lateness
    kept.sort(key=lambda element: element.instant)
    return kept
