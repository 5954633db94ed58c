"""Seraph AST (Figure 6).

A Seraph query wraps a Cypher clause body with the continuous-evaluation
operators: ``REGISTER QUERY <name> STARTING AT <ω₀> { body }`` where each
``MATCH`` carries a ``WITHIN`` window width, and the body terminates with
either ``EMIT … <policy> EVERY <β>`` (a continuous stream of
time-annotated tables) or ``RETURN …`` (a single one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cypher import ast as cypher_ast
from repro.graph.temporal import TimeInstant, format_datetime, format_duration
from repro.stream.report import ReportPolicy


#: Name of the implicit stream used when a MATCH names none.
DEFAULT_STREAM = "default"


@dataclass(frozen=True)
class SeraphMatch:
    """A Cypher MATCH with its window width α (``WITHIN``), in seconds.

    ``stream`` names the input stream the window reads (the paper's
    future-work item *i*, "query multiple streams simultaneously" —
    extension syntax ``FROM STREAM <name>``); ``None`` means the default
    stream.
    """

    match: cypher_ast.Match
    within: int
    stream: Optional[str] = None

    @property
    def stream_name(self) -> str:
        return self.stream if self.stream is not None else DEFAULT_STREAM

    def render(self) -> str:
        out = "OPTIONAL MATCH " if self.match.optional else "MATCH "
        out += self.match.pattern.render()
        if self.stream is not None:
            out += f" FROM STREAM {self.stream}"
        out += f" WITHIN {format_duration(self.within)}"
        if self.match.where is not None:
            out += f" WHERE {self.match.where.render()}"
        return out


@dataclass(frozen=True)
class Emit:
    """``EMIT items <policy> EVERY β [INTO stream]`` — the continuous
    terminal clause.  ``into`` names the derived stream the emitted rows
    are materialized into, making the query a producer other registered
    queries can consume with ``FROM STREAM`` (docs/DATAFLOW.md)."""

    items: Tuple[cypher_ast.ProjectionItem, ...]
    star: bool = False
    policy: ReportPolicy = ReportPolicy.SNAPSHOT
    every: int = 0  # slide β in seconds
    into: Optional[str] = None

    def render(self) -> str:
        parts = (["*"] if self.star else []) + [item.render() for item in self.items]
        out = "EMIT " + ", ".join(parts)
        if self.policy is not ReportPolicy.SNAPSHOT:
            out += f" {self.policy.value}"
        else:
            out += " SNAPSHOT"
        out += f" EVERY {format_duration(self.every)}"
        if self.into is not None:
            out += f" INTO {self.into}"
        return out


@dataclass(frozen=True)
class SeraphQuery:
    """A registered continuous query.

    ``body`` holds the clause sequence; MATCH clauses appear as
    :class:`SeraphMatch`, all other clauses are plain Cypher AST nodes.
    Exactly one of ``emit``/``final_return`` is set: ``emit`` for
    continuous emission, ``final_return`` for the single-result variant.
    """

    name: str
    starting_at: TimeInstant
    body: Tuple[object, ...]  # SeraphMatch | cypher_ast.Clause
    emit: Optional[Emit] = None
    final_return: Optional[cypher_ast.Return] = None

    def __post_init__(self):
        if (self.emit is None) == (self.final_return is None):
            raise ValueError("a Seraph query needs exactly one of EMIT or RETURN")

    @property
    def is_continuous(self) -> bool:
        return self.emit is not None

    @property
    def max_within(self) -> int:
        """The widest WITHIN of the body — the reported window width."""
        widths = [
            clause.within for clause in self.body if isinstance(clause, SeraphMatch)
        ]
        if not widths:
            return self.emit.every if self.emit else 0
        return max(widths)

    @property
    def slide(self) -> int:
        """β: the EVERY period (0 for RETURN-terminal queries)."""
        return self.emit.every if self.emit else 0

    @property
    def emits_into(self) -> Optional[str]:
        """The derived stream this query produces (``EMIT ... INTO``)."""
        return self.emit.into if self.emit is not None else None

    def stream_names(self) -> Tuple[str, ...]:
        """The input streams this query reads, in first-use order."""
        names = []
        for clause in self.body:
            if isinstance(clause, SeraphMatch):
                name = clause.stream_name
                if name not in names:
                    names.append(name)
        return tuple(names) or (DEFAULT_STREAM,)

    def window_keys(self) -> Tuple[Tuple[str, int], ...]:
        """Distinct (stream, WITHIN width) pairs of the body."""
        keys = []
        for clause in self.body:
            if isinstance(clause, SeraphMatch):
                key = (clause.stream_name, clause.within)
                if key not in keys:
                    keys.append(key)
        if not keys:
            keys.append((DEFAULT_STREAM, self.max_within or 1))
        return tuple(keys)

    def references_window_bounds(self) -> bool:
        """Whether any expression mentions win_start/win_end.

        Used by the engine's unchanged-window re-execution avoidance: a
        query whose text never names the reserved bounds produces the same
        table for the same window *content*, regardless of the bounds.
        The check is conservative (rendered-text scan): false positives
        only disable an optimization, never change results.
        """
        import re

        return re.search(r"\bwin_(start|end)\b", self.render()) is not None

    def render(self) -> str:
        lines = [f"REGISTER QUERY {self.name} "
                 f"STARTING AT {format_datetime(self.starting_at)}", "{"]
        for clause in self.body:
            lines.append("  " + clause.render())
        if self.emit is not None:
            lines.append("  " + self.emit.render())
        else:
            lines.append("  " + self.final_return.render())
        lines.append("}")
        return "\n".join(lines)

    @staticmethod
    def lift_cypher(
        name: str,
        starting_at: TimeInstant,
        query: cypher_ast.SingleQuery,
        within: int,
        every: int,
        policy: ReportPolicy = ReportPolicy.SNAPSHOT,
    ) -> "SeraphQuery":
        """Lift a one-time Cypher query into a continuous Seraph query.

        The embedding behind requirement R4: every MATCH gets the given
        WITHIN width and the terminal RETURN becomes EMIT with the given
        report policy and EVERY period.
        """
        body = []
        final = None
        for clause in query.clauses:
            if isinstance(clause, cypher_ast.Return):
                final = clause
            elif isinstance(clause, cypher_ast.Match):
                body.append(SeraphMatch(match=clause, within=within))
            else:
                body.append(clause)
        if final is None:
            raise ValueError("the Cypher query must end in RETURN")
        return SeraphQuery(
            name=name,
            starting_at=starting_at,
            body=tuple(body),
            emit=Emit(
                items=final.items, star=final.star, policy=policy, every=every
            ),
        )

    def cypher_counterpart(self) -> cypher_ast.SingleQuery:
        """The non-streaming Cypher query Q of Definition 5.8.

        Strips WITHIN and replaces EMIT with RETURN — the query that
        snapshot reducibility evaluates over snapshot graphs.
        """
        clauses = []
        for clause in self.body:
            if isinstance(clause, SeraphMatch):
                clauses.append(clause.match)
            else:
                clauses.append(clause)
        if self.final_return is not None:
            clauses.append(self.final_return)
        else:
            clauses.append(
                cypher_ast.Return(
                    items=self.emit.items,
                    star=self.emit.star,
                )
            )
        return cypher_ast.SingleQuery(clauses=tuple(clauses))
