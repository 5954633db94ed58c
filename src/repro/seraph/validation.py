"""Registration-time semantic validation of Seraph queries.

The paper motivates formal semantics with "avoid underlying ambiguities
and incorrect behavior of the queries"; this module adds the static
checks an implementation wants *before* a query starts running forever:

* **errors** (raise :class:`SeraphSemanticError` via :func:`validate`):
  - an expression references a name no clause ever binds,
  - an aggregate call appears in a WHERE predicate;
* **warnings** (returned, never raised):
  - a name is used after a WITH projection dropped it,
  - EVERY exceeds a WITHIN width (evaluations can miss events entirely
    under gapped windows),
  - a RETURN-terminal query carries no window-relevant clauses.

``SeraphEngine.register`` runs :func:`validate` by default, after
:func:`repro.cypher.physical.check_lowerable` has rejected any body
clause other than MATCH / UNWIND / WITH.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple, Union

from repro.cypher import ast as cypher_ast
from repro.cypher.expressions import (
    contains_aggregate,
    expression_variables,
    property_variables,
)
from repro.errors import DataflowCycleError, SeraphSemanticError
from repro.graph.temporal import format_duration
from repro.seraph.ast import SeraphMatch, SeraphQuery
from repro.stream.tvt import WIN_END, WIN_START

#: Names implicitly in scope in every Seraph expression (Definition 5.6).
IMPLICIT_NAMES = frozenset({WIN_START, WIN_END})


@dataclass(frozen=True)
class Issue:
    """One validation finding."""

    severity: str  # 'error' | 'warning'
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def check(query: SeraphQuery) -> List[Issue]:
    """Run all validations; returns findings (possibly empty)."""
    issues: List[Issue] = []
    scope: Set[str] = set(IMPLICIT_NAMES)
    ever_bound: Set[str] = set(IMPLICIT_NAMES)

    def check_expression(expression: cypher_ast.Expression,
                         context: str) -> None:
        for name in expression_variables(expression):
            if name in scope:
                continue
            if name in ever_bound:
                issues.append(Issue(
                    "warning",
                    f"{context} references {name!r}, which an earlier WITH "
                    "projected away",
                ))
            else:
                issues.append(Issue(
                    "error",
                    f"{context} references undefined variable {name!r}",
                ))

    def check_where(where: Optional[cypher_ast.Expression],
                    context: str) -> None:
        if where is None:
            return
        if contains_aggregate(where):
            issues.append(Issue(
                "error", f"aggregate call inside {context} WHERE"
            ))
        check_expression(where, f"{context} WHERE")

    for clause in query.body:
        if isinstance(clause, SeraphMatch):
            for name in (
                name for path in clause.match.pattern.paths
                for name in property_variables(path.nodes + path.relationships)
            ):
                if name not in scope and name not in ever_bound:
                    issues.append(Issue(
                        "error",
                        "MATCH pattern property references undefined "
                        f"variable {name!r}",
                    ))
            scope.update(clause.match.pattern.free_variables())
            ever_bound.update(scope)
            check_where(clause.match.where, "MATCH")
        elif isinstance(clause, cypher_ast.Unwind):
            check_expression(clause.source, "UNWIND")
            scope.add(clause.alias)
            ever_bound.add(clause.alias)
        elif isinstance(clause, cypher_ast.With):
            for item in clause.items:
                check_expression(item.expression, "WITH item")
            new_scope = set(IMPLICIT_NAMES)
            if clause.star:
                new_scope |= scope
            for item in clause.items:
                new_scope.add(item.output_name())
            # ORDER BY sees the projected names beside the incoming ones.
            scope = scope | new_scope
            for order in clause.order_by:
                check_expression(order.expression, "ORDER BY")
            scope = new_scope
            ever_bound.update(scope)
            check_where(clause.where, "WITH")

    terminal_items: Tuple[cypher_ast.ProjectionItem, ...]
    if query.emit is not None:
        terminal_items = query.emit.items
        context = "EMIT"
    else:
        terminal_items = query.final_return.items
        context = "RETURN"
    for item in terminal_items:
        check_expression(item.expression, f"{context} item")

    if query.is_continuous and query.emits_into is not None \
            and query.emits_into in query.stream_names():
        issues.append(Issue(
            "error",
            f"EMIT INTO {query.emits_into!r} reads its own output stream: "
            f"{query.name} -[{query.emits_into}]-> {query.name}",
        ))

    if query.is_continuous:
        for stream_name, width in query.window_keys():
            if query.slide > width:
                issues.append(Issue(
                    "warning",
                    f"EVERY {format_duration(query.slide)} exceeds the "
                    f"WITHIN {format_duration(width)} window on stream "
                    f"{stream_name!r}: events arriving between windows "
                    "are never evaluated",
                ))
    return issues


def validate(query: Union[SeraphQuery, str]) -> List[Issue]:
    """Raise on errors; return the warnings."""
    if isinstance(query, str):
        from repro.seraph.parser import parse_seraph

        query = parse_seraph(query)
    if query.is_continuous and query.emits_into is not None \
            and query.emits_into in query.stream_names():
        # The length-1 dataflow cycle gets its typed error here already;
        # longer cycles are only visible at registration time, where the
        # dependency graph raises the same type (docs/DATAFLOW.md).
        raise DataflowCycleError(
            f"query {query.name!r} consumes the stream it emits into: "
            f"{query.name} -[{query.emits_into}]-> {query.name}"
        )
    issues = check(query)
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        raise SeraphSemanticError(
            "; ".join(issue.message for issue in errors)
        )
    return [issue for issue in issues if issue.severity == "warning"]
