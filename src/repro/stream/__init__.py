"""Graph stream substrate: time, streams, snapshots, windows, reports."""

from repro.stream.replay import FakeClock, ReplayDriver
from repro.stream.report import ReportPolicy, ReportState
from repro.stream.snapshot import SnapshotMaintainer, snapshot_graph
from repro.stream.source import (
    GeneratorSource,
    ListSource,
    SimulatedEventQueue,
    constant_rate_source,
)
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import (
    RESERVED_FIELDS,
    WIN_END,
    WIN_START,
    TimeAnnotatedTable,
    TimeVaryingTable,
)
from repro.stream.window import ActiveSubstreamPolicy, WindowConfig

__all__ = [
    "ActiveSubstreamPolicy",
    "FakeClock",
    "ReplayDriver",
    "GeneratorSource",
    "ListSource",
    "PropertyGraphStream",
    "RESERVED_FIELDS",
    "ReportPolicy",
    "ReportState",
    "SimulatedEventQueue",
    "SnapshotMaintainer",
    "StreamElement",
    "TimeAnnotatedTable",
    "TimeInterval",
    "TimeVaryingTable",
    "WIN_END",
    "WIN_START",
    "WindowConfig",
    "constant_rate_source",
    "snapshot_graph",
]
