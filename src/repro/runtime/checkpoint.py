"""Engine checkpoint/restore: serialize a mid-run engine to JSON.

A checkpoint captures everything a fresh :class:`SeraphEngine` needs to
continue a continuous run with emissions bag-equal to the uninterrupted
run (the property the tests assert).  One document, version 2, for every
engine:

* ``config`` — policy, the static background graph, the six mode
  fields and whether tracing was on.  The mode fields are written as
  production's or the reference twin's values and read back by
  :func:`repro.api.reference_mode` (absent ones at their defaults), so
  a document naming a partial ablation or a removed backend is an
  :class:`~repro.errors.EngineModeError`.  A pool size written before
  the process pool was removed is ignored: the engine restores serial;
* per-stream retained elements **with their eviction bookkeeping**
  (``base_seq``), so restored window states catch up over exactly the
  surviving history;
* per-query progress: the registered query *text* (re-parsed on
  restore), next evaluation instant, done flag, the query's counters,
  and the report-policy state (the previous evaluation's table —
  required for ``ON ENTERING`` / ``ON EXITING`` correctness across the
  restore);
* ``runtime`` — ``null``, or the ingress's policies, reorder buffers,
  dead letters and ``resilience.*`` counters
  (:meth:`repro.runtime.ingress.Ingress.to_dict`).

Not captured: sinks (arbitrary user objects — pass replacements to
:func:`engine_from_dict`), the accumulated per-query result history, the
reuse-memo table, and the delta-path assignment set (the first
post-restore evaluation simply recomputes / full-refreshes).  Version 1
documents (two shapes, mode fields missing) are rejected.

The document is pure JSON; graph payloads reuse :mod:`repro.graph.io`,
table values a tagged codec (nodes, relationships, paths, maps, lists).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.errors import CheckpointError
from repro.graph.io import (
    element_from_dict,
    element_to_dict,
    graph_from_dict,
    graph_to_dict,
    node_from_dict,
    node_to_dict,
    relationship_from_dict,
    relationship_to_dict,
)
from repro.graph.model import Node, Path, Relationship
from repro.graph.table import Record, Table
from repro.obs import Observability
from repro.runtime.ingress import Ingress
from repro.seraph.dataflow import StreamMaterializer
from repro.seraph.engine import QUERY_COUNTERS, SeraphEngine
from repro.seraph.parser import parse_seraph
from repro.seraph.sinks import Sink
from repro.stream.window import ActiveSubstreamPolicy

CHECKPOINT_VERSION = 2


# -- value / table codec -----------------------------------------------------

def encode_value(value: Any) -> Any:
    """Encode one table cell into a JSON-safe tagged shape."""
    if isinstance(value, Node):
        return {"$": "node", "data": node_to_dict(value)}
    if isinstance(value, Relationship):
        return {"$": "rel", "data": relationship_to_dict(value)}
    if isinstance(value, Path):
        return {
            "$": "path",
            "nodes": [node_to_dict(node) for node in value.nodes],
            "relationships": [
                relationship_to_dict(rel) for rel in value.relationships
            ],
        }
    if isinstance(value, Mapping):
        return {"$": "map",
                "entries": {key: encode_value(item)
                            for key, item in value.items()}}
    if isinstance(value, (list, tuple)):
        return {"$": "list", "items": [encode_value(item) for item in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}"
    )


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "node":
            return node_from_dict(value["data"])
        if tag == "rel":
            return relationship_from_dict(value["data"])
        if tag == "path":
            return Path(
                nodes=tuple(node_from_dict(n) for n in value["nodes"]),
                relationships=tuple(
                    relationship_from_dict(r)
                    for r in value["relationships"]
                ),
            )
        if tag == "map":
            return {key: decode_value(item)
                    for key, item in value["entries"].items()}
        if tag == "list":
            return [decode_value(item) for item in value["items"]]
        raise CheckpointError(f"unknown value tag {tag!r}")
    return value


def table_to_dict(table: Table) -> Dict[str, Any]:
    return {
        "fields": sorted(table.fields),
        "records": [
            {name: encode_value(record[name]) for name in record}
            for record in table
        ],
    }


def table_from_dict(data: Dict[str, Any]) -> Table:
    return Table(
        [
            Record({name: decode_value(value)
                    for name, value in record.items()})
            for record in data["records"]
        ],
        fields=data["fields"],
    )


# -- engine checkpoint -------------------------------------------------------

def engine_to_dict(engine: SeraphEngine) -> Dict[str, Any]:
    """Serialize a mid-run engine to a JSON-safe checkpoint document."""
    from repro.api import PRODUCTION_MODE, REFERENCE_MODE  # import cycle

    document: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "config": {
            "policy": engine.policy.name,
            **(REFERENCE_MODE if engine.reference else PRODUCTION_MODE),
            "static_graph": (
                graph_to_dict(engine.static_graph)
                if engine.static_graph is not None else None
            ),
            "observability": engine.obs.enabled,
        },
        "runtime": (
            engine.ingress.to_dict() if engine.ingress is not None else None
        ),
        "watermark": engine._watermark,
        "last_admitted": engine._last_admitted,
        "streams": {
            name: {
                "base_seq": state.base_seq,
                "elements": [element_to_dict(element)
                             for element in state.elements],
            }
            for name, state in engine._streams.items()
        },
        "queries": [
            {
                "text": registered.query.render(),
                "next_eval": registered.next_eval,
                "done": registered.done,
                "counters": {
                    suffix: counter.value
                    for suffix, counter in registered.counters.items()
                },
                "report_previous": (
                    table_to_dict(registered.report._previous)
                    if registered.report is not None
                    and registered.report._previous is not None
                    else None
                ),
            }
            for registered in engine._queries.values()
        ],
    }
    if engine._materializers:
        # Derived-stream cursors (docs/DATAFLOW.md): the materializer's
        # merge store and counters, so restored pipelines keep node
        # identity and the per-stream cursor across the restore.
        document["dataflow"] = {
            stream: materializer.to_dict()
            for stream, materializer in engine._materializers.items()
        }
    return document


def engine_from_dict(
    data: Dict[str, Any],
    sinks: Optional[Dict[str, Sink]] = None,
    **tuning,
) -> SeraphEngine:
    """Rebuild an engine mid-run from :func:`engine_to_dict` output.

    ``sinks`` maps query names to replacement sinks (sinks are not part
    of the checkpoint); unmapped queries get a fresh default sink.
    ``tuning`` goes to the restored :class:`Ingress` — what a document
    cannot carry (retry, clock, sleep, factories), or policy overrides.
    """
    from repro.api import reference_mode  # import cycle

    try:
        version = data["version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        config = data["config"]
        runtime = data["runtime"]
        if tuning and runtime is None:
            raise CheckpointError(
                f"checkpoint has no ingress to apply {sorted(tuning)} to"
            )
        static = config.get("static_graph")
        engine = SeraphEngine(
            policy=ActiveSubstreamPolicy[config["policy"]],
            static_graph=graph_from_dict(static) if static is not None
            else None,
            obs=Observability.create() if config.get("observability")
            else None,
            ingress=Ingress.from_dict(runtime, **tuning)
            if runtime is not None else None,
            reference=reference_mode(config),
        )
        if runtime is not None:
            engine.ingress.restore_state(runtime)
        for name, stream_data in data["streams"].items():
            state = engine._stream_state(name)
            for element_data in stream_data["elements"]:
                state.append(element_from_dict(element_data))
            state.base_seq = int(stream_data["base_seq"])
        for query_data in data["queries"]:
            query = parse_seraph(query_data["text"])
            sink = sinks.get(query.name) if sinks else None
            registered = engine.register(query, sink=sink, validate=False)
            registered.next_eval = query_data["next_eval"]
            registered.done = query_data["done"]
            for suffix in QUERY_COUNTERS:
                registered.counters[suffix].inc(
                    query_data["counters"].get(suffix, 0)
                )
            previous = query_data.get("report_previous")
            if previous is not None and registered.report is not None:
                registered.report._previous = table_from_dict(previous)
        # Re-registering producers created fresh materializers; overwrite
        # them with the checkpointed state.
        for stream, materializer_data in data.get("dataflow", {}).items():
            engine._materializers[stream] = \
                StreamMaterializer.from_dict(materializer_data)
        engine._watermark = data["watermark"]
        engine._last_admitted = data["last_admitted"]
        return engine
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed checkpoint document: {exc!r}"
        ) from exc


def checkpoint_to_json(engine: SeraphEngine, indent: Optional[int] = None
                       ) -> str:
    return json.dumps(engine_to_dict(engine), indent=indent, sort_keys=True)


def engine_from_json(
    text: str, sinks: Optional[Dict[str, Sink]] = None, **tuning
) -> SeraphEngine:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    return engine_from_dict(data, sinks=sinks, **tuning)


def save_checkpoint(engine: SeraphEngine, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(checkpoint_to_json(engine, indent=2))


def load_checkpoint(
    path: str, sinks: Optional[Dict[str, Sink]] = None, **tuning
) -> SeraphEngine:
    with open(path, "r", encoding="utf-8") as handle:
        return engine_from_json(handle.read(), sinks=sinks, **tuning)
