"""The unified, versioned status/metrics schema — and its validator.

:func:`unified_status` is the answer to "what is the engine doing":
``SeraphEngine.status()`` regrouped under one namespaced document with a
stable, documented contract (docs/OBSERVABILITY.md).  Every count in it
is a read of the engine's metrics registry:

``schema``
    ``{"name": "repro.status", "version": 1}`` — bump the version on
    any breaking key change.
``engine.*``
    The core engine surface: per-query counters, per-stream retention,
    watermark, and ``mode`` — ``"production"`` or ``"reference"``.
``resilience.*``
    ``None`` on an engine without an ingress; otherwise the runtime
    policies, buffer depths, dead-letter count, and the
    ``resilience.*`` counters.
``service.*``
    Absent on offline documents; injected per tenant by the
    continuous-query service (quotas, admission, counters, per-query
    emission-log offsets — docs/SERVICE.md).
``obs.*``
    Whether tracing is on and, when it is, the registry snapshot
    (counters/gauges/histograms) and trace span counts.

Documents written while the engine still had a process pool also carry
``parallel`` and ``supervision`` sections; the validator tolerates them
and checks neither.

Run ``python -m repro.obs.schema FILE...`` to validate exported JSON
documents (status/metrics/trace are auto-detected) — the CI pipeline
does exactly that against the CLI's ``--metrics-out``/``--trace-out``
artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ObservabilityError

SCHEMA_VERSION = 1
STATUS_SCHEMA = "repro.status"
METRICS_SCHEMA = "repro.metrics"
TRACE_SCHEMA = "repro.trace"


def _schema_stamp(name: str) -> Dict[str, Any]:
    return {"name": name, "version": SCHEMA_VERSION}


# -- document construction ----------------------------------------------------

def unified_status(engine) -> Dict[str, Any]:
    """One namespaced status document for a
    :class:`~repro.seraph.engine.SeraphEngine`, whatever parts it owns."""
    base = engine.status()
    resilience = base.pop("resilience", None)
    obs = engine.obs
    obs_section: Dict[str, Any] = {"enabled": False,
                                   "metrics": None, "trace": None}
    if obs.enabled:
        obs_section = {
            "enabled": True,
            "metrics": obs.registry.snapshot(),
            "trace": {
                "spans": obs.tracer.created,
                "dropped": obs.tracer.dropped,
            },
        }
    return {
        "schema": _schema_stamp(STATUS_SCHEMA),
        "engine": base,
        "resilience": resilience,
        "obs": obs_section,
    }


# -- validation ---------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ObservabilityError(message)


def _check_schema_stamp(document: Mapping[str, Any], name: str) -> None:
    _require(isinstance(document, Mapping), "document is not an object")
    stamp = document.get("schema")
    _require(isinstance(stamp, Mapping), "missing 'schema' stamp")
    _require(stamp.get("name") == name,
             f"schema name {stamp.get('name')!r} != {name!r}")
    _require(stamp.get("version") == SCHEMA_VERSION,
             f"unsupported schema version {stamp.get('version')!r}")


def _check_metrics_snapshot(snapshot: Mapping[str, Any]) -> None:
    for section in ("counters", "gauges", "histograms"):
        _require(isinstance(snapshot.get(section), Mapping),
                 f"metrics snapshot misses {section!r}")
    for name, value in snapshot["counters"].items():
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"counter {name!r} is not an integer")
    for name, value in snapshot["gauges"].items():
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool),
                 f"gauge {name!r} is not numeric")
    for name, hist in snapshot["histograms"].items():
        _require(isinstance(hist, Mapping),
                 f"histogram {name!r} is not an object")
        for key in ("count", "sum", "min", "max", "mean",
                    "p50", "p95", "p99"):
            _require(isinstance(hist.get(key), (int, float))
                     and not isinstance(hist.get(key), bool),
                     f"histogram {name!r} misses numeric {key!r}")


def validate_status(document: Mapping[str, Any]) -> None:
    """Structural validation of a :func:`unified_status` document."""
    _check_schema_stamp(document, STATUS_SCHEMA)
    engine = document.get("engine")
    _require(isinstance(engine, Mapping), "missing 'engine' section")
    _require(isinstance(engine.get("queries"), Mapping),
             "engine.queries is not an object")
    _require(isinstance(engine.get("streams"), Mapping),
             "engine.streams is not an object")
    for name, info in engine["queries"].items():
        for key in ("evaluations", "reused", "delta", "done"):
            _require(key in info, f"query {name!r} misses {key!r}")
    # 'mode' replaced the per-field mode keys: validate it when present,
    # tolerate its absence on documents written before it.
    _require(engine.get("mode", "production") in ("production", "reference"),
             f"unknown engine mode {engine.get('mode')!r}")
    # 'dataflow' arrived with EMIT ... INTO chaining: validate it when
    # present, tolerate its absence on documents written before it.
    dataflow = engine.get("dataflow")
    if dataflow is not None:
        for key in ("streams", "order", "stages", "edges"):
            _require(key in dataflow, f"engine.dataflow misses {key!r}")
        _require(isinstance(dataflow["streams"], Mapping),
                 "engine.dataflow.streams is not an object")
        for name, info in dataflow["streams"].items():
            for key in ("producers", "consumers", "cursor"):
                _require(key in info,
                         f"dataflow stream {name!r} misses {key!r}")
        _require(isinstance(dataflow["edges"], list),
                 "engine.dataflow.edges is not a list")
    _require("resilience" in document, "missing 'resilience' section")
    resilience = document["resilience"]
    if resilience is not None:
        for key in ("allowed_lateness", "poison_policy", "late_policy",
                    "sink_policy", "dead_letters", "metrics"):
            _require(key in resilience, f"resilience misses {key!r}")
    # 'service' is injected by the per-tenant service layer
    # (TenantState.status()); validate it when present, tolerate its
    # absence on offline documents.
    service = document.get("service")
    if service is not None:
        for key in ("tenant", "quarantined", "quotas", "admission",
                    "metrics", "queries"):
            _require(key in service, f"service misses {key!r}")
        _require(isinstance(service["queries"], Mapping),
                 "service.queries is not an object")
        for name, info in service["queries"].items():
            for key in ("buffered", "next_event_id", "evicted"):
                _require(key in info,
                         f"service query {name!r} misses {key!r}")
    obs = document.get("obs")
    _require(isinstance(obs, Mapping) and "enabled" in obs,
             "missing 'obs' section")
    if obs.get("enabled"):
        _require(isinstance(obs.get("metrics"), Mapping),
                 "obs.metrics missing on an enabled document")
        _check_metrics_snapshot(obs["metrics"])
        trace = obs.get("trace")
        _require(isinstance(trace, Mapping) and "spans" in trace,
                 "obs.trace missing on an enabled document")


def validate_metrics(document: Mapping[str, Any]) -> None:
    """Validation of a metrics-export document
    (:func:`repro.obs.export.metrics_document`)."""
    _check_schema_stamp(document, METRICS_SCHEMA)
    _check_metrics_snapshot(document)


def _check_span(span: Mapping[str, Any], path: str) -> None:
    _require(isinstance(span, Mapping), f"span {path} is not an object")
    _require(isinstance(span.get("name"), str),
             f"span {path} misses a name")
    for key in ("start", "duration"):
        value = span.get(key)
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool),
                 f"span {path} misses numeric {key!r}")
    _require(span.get("duration") >= 0, f"span {path} duration is negative")
    _require(isinstance(span.get("tags"), Mapping),
             f"span {path} misses tags")
    children = span.get("children")
    _require(isinstance(children, list), f"span {path} misses children")
    for index, child in enumerate(children):
        _check_span(child, f"{path}.{index}")


def validate_trace(document: Mapping[str, Any]) -> None:
    """Validation of a trace-export document
    (:func:`repro.obs.export.trace_document`)."""
    _check_schema_stamp(document, TRACE_SCHEMA)
    for key in ("span_count", "dropped"):
        _require(isinstance(document.get(key), int),
                 f"trace document misses integer {key!r}")
    spans = document.get("spans")
    _require(isinstance(spans, list), "trace document misses 'spans'")
    for index, span in enumerate(spans):
        _check_span(span, str(index))


_VALIDATORS = {
    STATUS_SCHEMA: validate_status,
    METRICS_SCHEMA: validate_metrics,
    TRACE_SCHEMA: validate_trace,
}


def validate_document(document: Mapping[str, Any]) -> str:
    """Validate any exported document; returns its schema name."""
    _require(isinstance(document, Mapping), "document is not an object")
    stamp = document.get("schema")
    _require(isinstance(stamp, Mapping) and "name" in stamp,
             "missing 'schema' stamp")
    name = stamp["name"]
    validator = _VALIDATORS.get(name)
    _require(validator is not None, f"unknown schema {name!r}")
    validator(document)
    return name


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.schema FILE...`` — validate exported JSON."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.obs.schema",
        description="Validate exported observability JSON documents.",
    )
    parser.add_argument("paths", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    failed = 0
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            name = validate_document(document)
        except (OSError, json.JSONDecodeError, ObservabilityError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failed += 1
        else:
            print(f"OK {path} ({name} v{SCHEMA_VERSION})")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
