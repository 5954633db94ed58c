"""AST for the core Cypher grammar (Figure 3).

Every node is an immutable dataclass with a ``render()`` method that
produces canonical query text; the parser/renderer round-trip is
property-tested.  Seraph extends these nodes in :mod:`repro.seraph.ast`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union


class Direction(enum.Enum):
    """Relationship pattern orientation."""

    OUT = "out"        # (a)-[r]->(b)
    IN = "in"          # (a)<-[r]-(b)
    BOTH = "both"      # (a)-[r]-(b)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def render(self) -> str:
        if self.value is None:
            return "null"
        if self.value is True:
            return "true"
        if self.value is False:
            return "false"
        if isinstance(self.value, str):
            escaped = self.value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    name: str

    def render(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Variable(Expression):
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class PropertyAccess(Expression):
    subject: Expression
    key: str

    def render(self) -> str:
        return f"{self.subject.render()}.{self.key}"


@dataclass(frozen=True)
class ListLiteral(Expression):
    items: Tuple[Expression, ...]

    def render(self) -> str:
        return "[" + ", ".join(item.render() for item in self.items) + "]"


@dataclass(frozen=True)
class MapLiteral(Expression):
    entries: Tuple[Tuple[str, Expression], ...]

    def render(self) -> str:
        inner = ", ".join(f"{key}: {value.render()}" for key, value in self.entries)
        return "{" + inner + "}"


@dataclass(frozen=True)
class Index(Expression):
    subject: Expression
    index: Expression

    def render(self) -> str:
        return f"{self.subject.render()}[{self.index.render()}]"


@dataclass(frozen=True)
class Slice(Expression):
    subject: Expression
    lower: Optional[Expression]
    upper: Optional[Expression]

    def render(self) -> str:
        lower = self.lower.render() if self.lower else ""
        upper = self.upper.render() if self.upper else ""
        return f"{self.subject.render()}[{lower}..{upper}]"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-', '+'
    operand: Expression

    def render(self) -> str:
        return f"{self.op}{self.operand.render()}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # '+', '-', '*', '/', '%', '^'
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True)
class Comparison(Expression):
    """A (possibly chained) comparison: ``first op1 e1 op2 e2 ...``."""

    first: Expression
    rest: Tuple[Tuple[str, Expression], ...]  # ops in {'=','<>','<','>','<=','>='}

    def render(self) -> str:
        out = self.first.render()
        for op, operand in self.rest:
            out += f" {op} {operand.render()}"
        return f"({out})"


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} AND {self.right.render()})"


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} OR {self.right.render()})"


@dataclass(frozen=True)
class Xor(Expression):
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} XOR {self.right.render()})"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def render(self) -> str:
        return f"(NOT {self.operand.render()})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def render(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    item: Expression
    container: Expression

    def render(self) -> str:
        return f"({self.item.render()} IN {self.container.render()})"


@dataclass(frozen=True)
class StringPredicate(Expression):
    kind: str  # 'STARTS WITH' | 'ENDS WITH' | 'CONTAINS' | '=~'
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} {self.kind} {self.right.render()})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # stored lower-case
    args: Tuple[Expression, ...]
    distinct: bool = False

    def render(self) -> str:
        inner = ", ".join(arg.render() for arg in self.args)
        if self.distinct:
            inner = "DISTINCT " + inner
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CountStar(Expression):
    def render(self) -> str:
        return "count(*)"


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[var IN list WHERE predicate | projection]``."""

    variable: str
    source: Expression
    predicate: Optional[Expression] = None
    projection: Optional[Expression] = None

    def render(self) -> str:
        out = f"[{self.variable} IN {self.source.render()}"
        if self.predicate is not None:
            out += f" WHERE {self.predicate.render()}"
        if self.projection is not None:
            out += f" | {self.projection.render()}"
        return out + "]"


@dataclass(frozen=True)
class Quantifier(Expression):
    """``ALL/ANY/NONE/SINGLE (var IN list WHERE predicate)``."""

    kind: str  # 'ALL' | 'ANY' | 'NONE' | 'SINGLE'
    variable: str
    source: Expression
    predicate: Expression

    def render(self) -> str:
        return (
            f"{self.kind}({self.variable} IN {self.source.render()} "
            f"WHERE {self.predicate.render()})"
        )


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Searched (`operand is None`) or simple CASE."""

    operand: Optional[Expression]
    alternatives: Tuple[Tuple[Expression, Expression], ...]
    default: Optional[Expression]

    def render(self) -> str:
        out = "CASE"
        if self.operand is not None:
            out += f" {self.operand.render()}"
        for when, then in self.alternatives:
            out += f" WHEN {when.render()} THEN {then.render()}"
        if self.default is not None:
            out += f" ELSE {self.default.render()}"
        return out + " END"


@dataclass(frozen=True)
class PatternPredicate(Expression):
    """A path pattern used as a boolean predicate, e.g. in WHERE."""

    pattern: "PathPattern"

    def render(self) -> str:
        return self.pattern.render()


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    """``(variable:Label1:Label2 {key: expr})``."""

    variable: Optional[str] = None
    labels: Tuple[str, ...] = ()
    properties: Tuple[Tuple[str, Expression], ...] = ()

    def render(self) -> str:
        out = self.variable or ""
        out += "".join(f":{label}" for label in self.labels)
        if self.properties:
            inner = ", ".join(f"{k}: {v.render()}" for k, v in self.properties)
            out += f" {{{inner}}}"
        return f"({out})"


@dataclass(frozen=True)
class RelationshipPattern:
    """``-[variable:T1|T2*min..max {key: expr}]->`` and friends.

    ``var_length`` is None for a single-hop pattern, otherwise the
    ``(min, max)`` bounds with ``None`` meaning "unbounded" (the default
    minimum is 1 per Cypher).
    """

    variable: Optional[str] = None
    types: Tuple[str, ...] = ()
    direction: Direction = Direction.BOTH
    var_length: Optional[Tuple[Optional[int], Optional[int]]] = None
    properties: Tuple[Tuple[str, Expression], ...] = ()

    @property
    def is_var_length(self) -> bool:
        return self.var_length is not None

    def render(self) -> str:
        inner = self.variable or ""
        if self.types:
            inner += ":" + "|".join(self.types)
        if self.var_length is not None:
            low, high = self.var_length
            inner += "*"
            if low is not None:
                inner += str(low)
            if (low, high) != (None, None) and low != high:
                inner += ".."
                if high is not None:
                    inner += str(high)
            elif low is None and high is not None:
                inner += f"..{high}"
        if self.properties:
            props = ", ".join(f"{k}: {v.render()}" for k, v in self.properties)
            inner += f" {{{props}}}"
        body = f"[{inner}]" if inner else ""
        if self.direction is Direction.OUT:
            return f"-{body}->"
        if self.direction is Direction.IN:
            return f"<-{body}-"
        return f"-{body}-"


@dataclass(frozen=True)
class PathPattern:
    """One comma-separated element of a MATCH pattern.

    ``nodes`` has one more element than ``relationships``.  ``variable``
    names the whole path (``q = (...)-[...]-(...)``); ``shortest`` is
    ``None``, ``"shortestPath"`` or ``"allShortestPaths"``.

    ``flipped`` marks a pattern the planner reversed for a cheaper start
    anchor; the matcher un-reverses the bound path value so query results
    are orientation-faithful.  It is planner-internal state and excluded
    from equality/rendering.
    """

    nodes: Tuple[NodePattern, ...]
    relationships: Tuple[RelationshipPattern, ...] = ()
    variable: Optional[str] = None
    shortest: Optional[str] = None
    flipped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.nodes) != len(self.relationships) + 1:
            raise ValueError("path pattern must alternate nodes and relationships")

    def reversed_pattern(self) -> "PathPattern":
        """The same pattern walked from the other end.

        Relationship orientations flip (OUT↔IN); the ``flipped`` marker
        toggles so bound path values keep the source orientation.
        """
        flipped_rels = tuple(
            RelationshipPattern(
                variable=rel.variable,
                types=rel.types,
                direction=(
                    Direction.IN if rel.direction is Direction.OUT
                    else Direction.OUT if rel.direction is Direction.IN
                    else Direction.BOTH
                ),
                var_length=rel.var_length,
                properties=rel.properties,
            )
            for rel in reversed(self.relationships)
        )
        return PathPattern(
            nodes=tuple(reversed(self.nodes)),
            relationships=flipped_rels,
            variable=self.variable,
            shortest=self.shortest,
            flipped=not self.flipped,
        )

    def render(self) -> str:
        body = self.nodes[0].render()
        for rel, node in zip(self.relationships, self.nodes[1:]):
            body += rel.render() + node.render()
        if self.shortest:
            body = f"{self.shortest}({body})"
        if self.variable:
            body = f"{self.variable} = {body}"
        return body

    def free_variables(self) -> Tuple[str, ...]:
        """Names bound by this pattern (nodes, relationships, path)."""
        names = []
        for node in self.nodes:
            if node.variable:
                names.append(node.variable)
        for rel in self.relationships:
            if rel.variable:
                names.append(rel.variable)
        if self.variable:
            names.append(self.variable)
        return tuple(dict.fromkeys(names))


@dataclass(frozen=True)
class Pattern:
    """A full MATCH pattern: comma-separated path patterns."""

    paths: Tuple[PathPattern, ...]

    def render(self) -> str:
        return ", ".join(path.render() for path in self.paths)

    def free_variables(self) -> Tuple[str, ...]:
        names = []
        for path in self.paths:
            names.extend(path.free_variables())
        return tuple(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# Clauses and queries
# ---------------------------------------------------------------------------


class Clause:
    """Base class for clause nodes."""

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Match(Clause):
    pattern: Pattern
    optional: bool = False
    where: Optional[Expression] = None

    def render(self) -> str:
        out = "OPTIONAL MATCH " if self.optional else "MATCH "
        out += self.pattern.render()
        if self.where is not None:
            out += f" WHERE {self.where.render()}"
        return out


@dataclass(frozen=True)
class Unwind(Clause):
    source: Expression
    alias: str

    def render(self) -> str:
        return f"UNWIND {self.source.render()} AS {self.alias}"


@dataclass(frozen=True)
class ProjectionItem:
    expression: Expression
    alias: Optional[str] = None

    def output_name(self) -> str:
        """The field name this item produces."""
        if self.alias:
            return self.alias
        return self.expression.render()

    def render(self) -> str:
        out = self.expression.render()
        if self.alias:
            out += f" AS {self.alias}"
        return out


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False

    def render(self) -> str:
        return self.expression.render() + (" DESC" if self.descending else "")


@dataclass(frozen=True)
class With(Clause):
    items: Tuple[ProjectionItem, ...]
    distinct: bool = False
    star: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    where: Optional[Expression] = None

    def render(self) -> str:
        out = _render_projection("WITH", self)
        if self.where is not None:
            out += f" WHERE {self.where.render()}"
        return out


@dataclass(frozen=True)
class Return(Clause):
    items: Tuple[ProjectionItem, ...]
    distinct: bool = False
    star: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None

    def render(self) -> str:
        return _render_projection("RETURN", self)


def _render_projection(keyword: str, clause: Union[With, Return]) -> str:
    out = keyword + (" DISTINCT " if clause.distinct else " ")
    parts = (["*"] if clause.star else []) + [item.render() for item in clause.items]
    out += ", ".join(parts)
    if clause.order_by:
        out += " ORDER BY " + ", ".join(item.render() for item in clause.order_by)
    if clause.skip is not None:
        out += f" SKIP {clause.skip.render()}"
    if clause.limit is not None:
        out += f" LIMIT {clause.limit.render()}"
    return out


# ---------------------------------------------------------------------------
# Write clauses (the ingestion subset — Listing 4's MERGE pipeline)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Create(Clause):
    """``CREATE <pattern>`` — create all unbound pattern elements."""

    pattern: Pattern

    def render(self) -> str:
        return "CREATE " + self.pattern.render()


@dataclass(frozen=True)
class SetProperty:
    """``SET target.key = value``."""

    target: Expression
    key: str
    value: Expression

    def render(self) -> str:
        return f"{self.target.render()}.{self.key} = {self.value.render()}"


@dataclass(frozen=True)
class SetLabels:
    """``SET variable:Label1:Label2``."""

    variable: str
    labels: Tuple[str, ...]

    def render(self) -> str:
        return self.variable + "".join(f":{label}" for label in self.labels)


@dataclass(frozen=True)
class SetFromMap:
    """``SET variable = map`` (replace) or ``SET variable += map``."""

    variable: str
    source: Expression
    additive: bool

    def render(self) -> str:
        op = "+=" if self.additive else "="
        return f"{self.variable} {op} {self.source.render()}"


SetItem = "SetProperty | SetLabels | SetFromMap"


@dataclass(frozen=True)
class SetClause(Clause):
    items: Tuple[object, ...]  # SetItem

    def render(self) -> str:
        return "SET " + ", ".join(item.render() for item in self.items)


@dataclass(frozen=True)
class Merge(Clause):
    """``MERGE <path> [ON CREATE SET …] [ON MATCH SET …]``."""

    path: PathPattern
    on_create: Tuple[object, ...] = ()  # SetItem
    on_match: Tuple[object, ...] = ()  # SetItem

    def render(self) -> str:
        out = "MERGE " + self.path.render()
        if self.on_create:
            out += " ON CREATE SET " + ", ".join(
                item.render() for item in self.on_create
            )
        if self.on_match:
            out += " ON MATCH SET " + ", ".join(
                item.render() for item in self.on_match
            )
        return out


@dataclass(frozen=True)
class Delete(Clause):
    """``[DETACH] DELETE expr, …``."""

    targets: Tuple[Expression, ...]
    detach: bool = False

    def render(self) -> str:
        prefix = "DETACH DELETE " if self.detach else "DELETE "
        return prefix + ", ".join(target.render() for target in self.targets)


@dataclass(frozen=True)
class RemoveProperty:
    target: Expression
    key: str

    def render(self) -> str:
        return f"{self.target.render()}.{self.key}"


@dataclass(frozen=True)
class RemoveLabels:
    variable: str
    labels: Tuple[str, ...]

    def render(self) -> str:
        return self.variable + "".join(f":{label}" for label in self.labels)


@dataclass(frozen=True)
class Remove(Clause):
    items: Tuple[object, ...]  # RemoveProperty | RemoveLabels

    def render(self) -> str:
        return "REMOVE " + ", ".join(item.render() for item in self.items)


#: Clause types that mutate the graph (update queries need no RETURN).
WRITE_CLAUSES = (Create, Merge, SetClause, Delete, Remove)


@dataclass(frozen=True)
class SingleQuery:
    """A clause sequence ending in RETURN (or clause sequence for WITH-piping)."""

    clauses: Tuple[Clause, ...]

    def render(self) -> str:
        return " ".join(clause.render() for clause in self.clauses)


@dataclass(frozen=True)
class Query:
    """A union of single queries (Figure 3: query ::= query UNION query | ...)."""

    parts: Tuple[SingleQuery, ...]
    union_all: Tuple[bool, ...] = ()  # len(parts) - 1 flags

    def __post_init__(self):
        if len(self.union_all) != max(0, len(self.parts) - 1):
            raise ValueError("union_all flags must match the number of joins")

    def render(self) -> str:
        out = self.parts[0].render()
        for flag, part in zip(self.union_all, self.parts[1:]):
            out += " UNION ALL " if flag else " UNION "
            out += part.render()
        return out
