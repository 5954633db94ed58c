"""The RideAnywhere running example (Section 2) and a scalable rental
stream generator.

Encodes the exact Figure 1 stream (five events, 14:45h–15:40h, anchored on
2022-08-01 per the "day in August 2022" narrative), the Listing 1 Cypher
query, the Listing 5 Seraph query, and the expected result tables
(Tables 2, 5, 6).

Modelling notes (see DESIGN.md §3): e-bikes carry the label set
``{Bike, EBike}`` so that ``(b:Bike)`` matches them, per the paper's label
hierarchy remark; ``val_time`` properties are stored as integer instants
and rendered ``HH:MM``; rental durations are minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.graph.builder import GraphBuilder
from repro.graph.model import PropertyGraph
from repro.graph.temporal import MINUTE, TimeInstant, hhmm
from repro.graph.union import union_all
from repro.stream.stream import StreamElement

#: Day anchor for the running example's bare HH:MM times.
DAY = "2022-08-01"

STATION_LABELS = ("Station",)
BIKE_LABELS = ("Bike",)
EBIKE_LABELS = ("Bike", "EBike")

# Node identifiers: stations use their station id (1..4), vehicles their
# vehicle id (5..8) — matching the paper's merged graph of Figure 2.
_STATIONS = {1: STATION_LABELS, 2: STATION_LABELS, 3: STATION_LABELS,
             4: STATION_LABELS}
_VEHICLES = {5: EBIKE_LABELS, 6: BIKE_LABELS, 7: EBIKE_LABELS, 8: BIKE_LABELS}


def _t(text: str) -> TimeInstant:
    return hhmm(text, day=DAY)


@dataclass(frozen=True)
class _RentalEdge:
    rel_id: int
    vehicle: int
    station: int
    rel_type: str  # 'rentedAt' | 'returnedAt'
    user_id: int
    val_time: str  # HH:MM
    duration: Optional[int] = None  # minutes; returns only


# The eight relationships of Figure 2, grouped by their Figure 1 event.
_EVENTS: Tuple[Tuple[str, Tuple[_RentalEdge, ...]], ...] = (
    ("14:45", (
        _RentalEdge(1, 5, 1, "rentedAt", 1234, "14:40"),
    )),
    ("15:00", (
        _RentalEdge(2, 5, 2, "returnedAt", 1234, "14:55", duration=15),
        _RentalEdge(3, 6, 2, "rentedAt", 1234, "14:58"),
        _RentalEdge(4, 8, 2, "rentedAt", 5678, "14:58"),
    )),
    ("15:15", (
        _RentalEdge(5, 6, 3, "returnedAt", 1234, "15:13", duration=15),
    )),
    ("15:20", (
        _RentalEdge(6, 8, 3, "returnedAt", 5678, "15:15", duration=17),
        _RentalEdge(7, 7, 3, "rentedAt", 5678, "15:18"),
    )),
    ("15:40", (
        _RentalEdge(8, 7, 4, "returnedAt", 5678, "15:35", duration=17),
    )),
)


def _event_graph(edges: Tuple[_RentalEdge, ...]) -> PropertyGraph:
    builder = GraphBuilder()
    for edge in edges:
        builder.add_node(
            labels=_VEHICLES[edge.vehicle],
            properties={"id": edge.vehicle},
            node_id=edge.vehicle,
        )
        builder.add_node(
            labels=_STATIONS[edge.station],
            properties={"id": edge.station},
            node_id=edge.station,
        )
        properties = {
            "user_id": edge.user_id,
            "val_time": _t(edge.val_time),
        }
        if edge.duration is not None:
            properties["duration"] = edge.duration
        builder.add_relationship(
            edge.vehicle, edge.rel_type, edge.station,
            properties=properties, rel_id=edge.rel_id,
        )
    return builder.build()


def figure1_stream() -> List[StreamElement]:
    """The five timestamped event graphs of Figure 1."""
    return [
        StreamElement(graph=_event_graph(edges), instant=_t(arrival))
        for arrival, edges in _EVENTS
    ]


def figure2_graph() -> PropertyGraph:
    """The merged graph of Figure 2 (all events loaded into the store)."""
    return union_all(element.graph for element in figure1_stream())


#: Listing 1 — the one-time Cypher workaround, with the window bounds
#: passed as parameters ($win_start / $win_end) the way external driver
#: code would compute them (Section 3.3).
LISTING1_CYPHER = """
MATCH (b:Bike)-[r:rentedAt]->(s:Station),
      q = (b)-[:returnedAt|rentedAt*3..]-(o:Station)
WITH r, s, q, relationships(q) AS rels,
     [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops
WHERE $win_start <= r.val_time AND r.val_time < $win_end
  AND ALL(e IN rels WHERE
        $win_start <= e.val_time AND e.val_time < $win_end
        AND e.user_id = r.user_id
        AND e.val_time > r.val_time
        AND (e.duration IS NULL OR e.duration < 20))
RETURN r.user_id AS user_id, s.id AS station_id,
       r.val_time AS val_time, hops
ORDER BY user_id
"""

#: Listing 5 — the Seraph continuous query ``student_trick``.
LISTING5_SERAPH = """
REGISTER QUERY student_trick STARTING AT 2022-08-01T14:45h
{
  MATCH (b:Bike)-[r:rentedAt]->(s:Station),
        q = (b)-[:returnedAt|rentedAt*3..]-(o:Station)
  WITHIN PT1H
  WITH r, s, q, relationships(q) AS rels,
       [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops
  WHERE ALL(e IN rels WHERE
        e.user_id = r.user_id AND e.val_time > r.val_time AND
        (e.duration IS NULL OR e.duration < 20))
  EMIT r.user_id AS user_id, s.id AS station_id,
       r.val_time AS val_time, hops
  ON ENTERING EVERY PT5M
}
"""

#: Expected rows: Table 2 (and Table 4's data part) at the 15:40 one-time
#: evaluation, and Tables 5/6 for the continuous run.
TABLE2_EXPECTED = (
    {"user_id": 1234, "station_id": 1, "val_time": _t("14:40"), "hops": [2, 3]},
    {"user_id": 5678, "station_id": 2, "val_time": _t("14:58"), "hops": [3, 4]},
)
TABLE5_EXPECTED = (
    {"user_id": 1234, "station_id": 1, "val_time": _t("14:40"), "hops": [2, 3]},
)
TABLE5_WINDOW = (_t("14:15"), _t("15:15"))
TABLE6_EXPECTED = (
    {"user_id": 5678, "station_id": 2, "val_time": _t("14:58"), "hops": [3, 4]},
)
TABLE6_WINDOW = (_t("14:40"), _t("15:40"))


# ---------------------------------------------------------------------------
# Scalable synthetic rental stream (for benchmarks)
# ---------------------------------------------------------------------------


@dataclass
class RentalStreamConfig:
    """Parameters of the synthetic RideAnywhere stream.

    ``fraud_rate`` is the fraction of users that chain free rentals (the
    pattern the continuous query hunts); everyone else produces ordinary
    rentals, some exceeding the free period.
    """

    stations: int = 20
    users: int = 50
    vehicles: int = 60
    event_period: int = 5 * MINUTE
    events: int = 48
    rentals_per_event: int = 4
    fraud_rate: float = 0.2
    seed: int = 7
    start: TimeInstant = _t("08:00")


class RentalStreamGenerator:
    """Generates a property graph stream mimicking the running example.

    Every event covers one ``event_period`` and contains the rentals and
    returns that occurred in it.  Fraudulent users return a vehicle within
    the free period and immediately rent another one at the same station;
    honest users either keep vehicles longer or stop after one rental.
    """

    def __init__(self, config: Optional[RentalStreamConfig] = None):
        self.config = config or RentalStreamConfig()
        self._rng = random.Random(self.config.seed)
        self._rel_id = 0
        self._vehicle_home: Dict[int, int] = {}
        self.fraud_users = frozenset(
            user
            for user in range(1, self.config.users + 1)
            if self._rng.random() < self.config.fraud_rate
        )

    def _next_rel_id(self) -> int:
        self._rel_id += 1
        return self._rel_id

    def _station_node_id(self, station: int) -> int:
        return station

    def _vehicle_node_id(self, vehicle: int) -> int:
        return self.config.stations + vehicle

    def stream(self) -> List[StreamElement]:
        """Materialize the whole synthetic stream."""
        return list(self.iter_stream())

    def iter_stream(self) -> Iterator[StreamElement]:
        config = self.config
        rng = self._rng
        active: List[Tuple[int, int, int, TimeInstant]] = []  # user, vehicle, stn, t
        free_vehicles = list(range(1, config.vehicles + 1))
        for event_index in range(config.events):
            arrival = config.start + (event_index + 1) * config.event_period
            period_start = arrival - config.event_period
            builder = GraphBuilder(id_offset=config.stations + config.vehicles)
            emitted = False

            def add_station(station: int) -> int:
                return builder.add_node(
                    labels=STATION_LABELS,
                    properties={"id": station},
                    node_id=self._station_node_id(station),
                )

            def add_vehicle(vehicle: int) -> int:
                labels = EBIKE_LABELS if vehicle % 3 == 0 else BIKE_LABELS
                return builder.add_node(
                    labels=labels,
                    properties={"id": vehicle},
                    node_id=self._vehicle_node_id(vehicle),
                )

            # Returns (and possible fraud re-rentals) of active rentals.
            still_active: List[Tuple[int, int, int, TimeInstant]] = []
            for user, vehicle, station, rented_at in active:
                is_fraud = user in self.fraud_users
                duration_minutes = (
                    rng.randint(10, 19) if is_fraud else rng.randint(15, 45)
                )
                return_time = rented_at + duration_minutes * MINUTE
                if return_time >= arrival:
                    still_active.append((user, vehicle, station, rented_at))
                    continue
                return_station = rng.randint(1, config.stations)
                vehicle_node = add_vehicle(vehicle)
                station_node = add_station(return_station)
                builder.add_relationship(
                    vehicle_node, "returnedAt", station_node,
                    properties={
                        "user_id": user,
                        "val_time": max(return_time, period_start),
                        "duration": duration_minutes,
                    },
                    rel_id=self._next_rel_id(),
                )
                free_vehicles.append(vehicle)
                emitted = True
                if is_fraud and free_vehicles:
                    # Chain: rent again a few minutes later, same station.
                    next_vehicle = free_vehicles.pop(0)
                    re_rent_time = min(
                        max(return_time, period_start) + 3 * MINUTE, arrival - 1
                    )
                    next_vehicle_node = add_vehicle(next_vehicle)
                    builder.add_relationship(
                        next_vehicle_node, "rentedAt", station_node,
                        properties={"user_id": user, "val_time": re_rent_time},
                        rel_id=self._next_rel_id(),
                    )
                    still_active.append(
                        (user, next_vehicle, return_station, re_rent_time)
                    )
            active = still_active

            # Fresh rentals.
            for _ in range(config.rentals_per_event):
                if not free_vehicles:
                    break
                user = rng.randint(1, config.users)
                if any(entry[0] == user for entry in active):
                    continue
                vehicle = free_vehicles.pop(0)
                station = rng.randint(1, config.stations)
                rent_time = rng.randrange(period_start, arrival)
                builder.add_relationship(
                    add_vehicle(vehicle), "rentedAt", add_station(station),
                    properties={"user_id": user, "val_time": rent_time},
                    rel_id=self._next_rel_id(),
                )
                active.append((user, vehicle, station, rent_time))
                emitted = True

            if emitted:
                yield StreamElement(graph=builder.build(), instant=arrival)


def student_trick_query(
    starting_at: str = "2022-08-01T08:05",
    within: str = "PT1H",
    every: str = "PT5M",
    policy: str = "ON ENTERING",
    max_chain: int = 3,
) -> str:
    """The Listing 5 query text with configurable window parameters.

    Unlike the verbatim Listing 5 (``*3..``, fine on the sparse Figure 1
    graph), the generated workloads bound the chain at ``max_chain`` hops:
    unbounded variable-length enumeration over dense synthetic windows is
    combinatorial, and one chained re-rental is already a violation.
    """
    return f"""
    REGISTER QUERY student_trick STARTING AT {starting_at}
    {{
      MATCH (b:Bike)-[r:rentedAt]->(s:Station),
            q = (b)-[:returnedAt|rentedAt*3..{max_chain}]-(o:Station)
      WITHIN {within}
      WITH r, s, q, relationships(q) AS rels,
           [n IN nodes(q) WHERE 'Station' IN labels(n) | n.id] AS hops
      WHERE ALL(e IN rels WHERE
            e.user_id = r.user_id AND e.val_time > r.val_time AND
            (e.duration IS NULL OR e.duration < 20))
      EMIT r.user_id AS user_id, s.id AS station_id,
           r.val_time AS val_time, hops
      {policy} EVERY {every}
    }}
    """
