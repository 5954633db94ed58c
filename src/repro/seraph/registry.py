"""The dataflow dependency graph over registered queries.

:class:`DataflowGraph` tracks which registered query produces which
derived stream (``EMIT ... INTO``) and which queries consume it, rejects
cycles with the path named, and assigns every query a topological
**stage** — the tick-scheduling order the engine evaluates under so a
producer's emissions are visible to same-instant downstream evaluations
(docs/DATAFLOW.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import DataflowCycleError


class DataflowGraph:
    """The dependency graph over registered queries and derived streams.

    Nodes are query names; query ``p`` has an edge to query ``c`` when
    ``c`` reads (``FROM STREAM``) the stream ``p`` emits into.  A stream
    name that no query produces is simply an external stream — consuming
    it creates no edge, so "unknown stream" is never a registration
    error, only a lookup error (:class:`~repro.errors.UnknownStreamError`
    at the introspection surfaces).

    Mutations are validate-then-commit: :meth:`add` and :meth:`replace`
    raise :class:`~repro.errors.DataflowCycleError` (naming the cycle
    path through its streams) without changing the graph.
    """

    def __init__(self) -> None:
        # name -> (consumed stream names, produced stream name or None),
        # in registration order (dicts preserve insertion order).
        self._nodes: Dict[str, Tuple[Tuple[str, ...], Optional[str]]] = {}
        self._stages: Dict[str, int] = {}

    # -- mutation ---------------------------------------------------------------

    def add(self, name: str, consumes: Tuple[str, ...],
            produces: Optional[str] = None) -> None:
        trial = dict(self._nodes)
        trial[name] = (tuple(consumes), produces)
        cycle = self._find_cycle(trial, name)
        if cycle is not None:
            raise DataflowCycleError(
                f"registering {name!r} would close a dataflow cycle: "
                + cycle
            )
        self._nodes = trial
        self._restage()

    def replace(self, name: str, consumes: Tuple[str, ...],
                produces: Optional[str] = None) -> None:
        """Re-register ``name`` with new edges; atomic like :meth:`add`."""
        self.add(name, consumes, produces)

    def remove(self, name: str) -> None:
        self._nodes.pop(name, None)
        self._restage()

    # -- queries ----------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    @property
    def is_trivial(self) -> bool:
        """True when no registered query emits into a stream — the
        engine's pre-dataflow fast path."""
        return all(produced is None
                   for _, produced in self._nodes.values())

    def produced_streams(self) -> List[str]:
        """Derived stream names in first-producer registration order."""
        streams: List[str] = []
        for _, (_, produced) in self._nodes.items():
            if produced is not None and produced not in streams:
                streams.append(produced)
        return streams

    def producers_of(self, stream: str) -> List[str]:
        return [name for name, (_, produced) in self._nodes.items()
                if produced == stream]

    def consumers_of(self, stream: str) -> List[str]:
        return [name for name, (consumed, _) in self._nodes.items()
                if stream in consumed]

    def produces(self, name: str) -> Optional[str]:
        node = self._nodes.get(name)
        return node[1] if node is not None else None

    def stage_of(self, name: str) -> int:
        """Topological stage: 0 for queries reading only external
        streams, else 1 + the highest stage among the producers of the
        derived streams they read."""
        return self._stages.get(name, 0)

    def edges(self) -> List[Tuple[str, str, str]]:
        """(producer, stream, consumer) triples in registration order."""
        out: List[Tuple[str, str, str]] = []
        for producer, (_, produced) in self._nodes.items():
            if produced is None:
                continue
            for consumer, (consumed, _) in self._nodes.items():
                if produced in consumed:
                    out.append((producer, produced, consumer))
        return out

    def topological_names(self) -> List[str]:
        """Query names ordered by stage, then registration order."""
        return sorted(self._nodes, key=lambda name: self._stages[name])

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _successors(nodes, name: str) -> List[Tuple[str, str]]:
        """(stream, consumer) pairs downstream of ``name`` in ``nodes``."""
        produced = nodes[name][1]
        if produced is None:
            return []
        return [(produced, consumer)
                for consumer, (consumed, _) in nodes.items()
                if produced in consumed]

    @classmethod
    def _find_cycle(cls, nodes, start: str) -> Optional[str]:
        """A rendered cycle path through ``start``, or None.

        The graph was acyclic before the mutation, so any cycle passes
        through the added node — a DFS from ``start`` back to ``start``
        finds it.  The path is rendered through its streams:
        ``a -[s1]-> b -[s2]-> a``; a self-loop is the length-1 case.
        """
        path: List[Tuple[str, str]] = []  # (query, stream to next)
        seen = set()

        def visit(name: str) -> bool:
            for stream, consumer in cls._successors(nodes, name):
                if consumer == start:
                    path.append((name, stream))
                    return True
                if consumer in seen:
                    continue
                seen.add(consumer)
                path.append((name, stream))
                if visit(consumer):
                    return True
                path.pop()
            return False

        if not visit(start):
            return None
        rendered = ""
        for query, stream in path:
            rendered += f"{query} -[{stream}]-> "
        return rendered + start

    def _restage(self) -> None:
        """Recompute stages (longest-path depth; graph is acyclic)."""
        stages: Dict[str, int] = {}

        def stage(name: str) -> int:
            if name in stages:
                return stages[name]
            consumed = self._nodes[name][0]
            upstream = [
                stage(producer)
                for s in consumed
                for producer, (_, produced) in self._nodes.items()
                if produced == s and producer != name
            ]
            stages[name] = 1 + max(upstream) if upstream else 0
            return stages[name]

        for name in self._nodes:
            stage(name)
        self._stages = stages
