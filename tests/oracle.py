"""A brute-force core-Cypher evaluator: the matcher's independent oracle.

Written from the formal semantics of Francis et al. ("Cypher: An
Evolving Query Language for Property Graphs", SIGMOD 2018), not from the
production code, which it shares nothing with but the parser's AST, the
graph model and the result ``Table``.  A MATCH enumerates *every*
assignment by nested loops: each node pattern over all nodes, each
relationship pattern over all relationship sequences, keeping those that
satisfy the labels, types, property maps and directions, and whose
relationships are pairwise distinct across the whole pattern
(relationship isomorphism; nodes may repeat).  ``WHERE`` keeps a row
only when its predicate is ``true`` under three-valued logic; projection
and aggregation work on bags of rows.  There is no planner, no index and
no compiled expression: it is meant for graphs of a dozen nodes.  It
covers what the conformance corpora use; anything else is a
``NotImplementedError``, never a guess.

:func:`run_query` evaluates a parsed Cypher query on one graph;
:func:`run_clauses` runs clauses that may each read their own graph (a
Seraph body over its window snapshots).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cypher import ast
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.table import Record, Table

AGGREGATES = {"count", "sum", "min", "max", "avg", "collect"}
Row = Dict[str, Any]


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def key(value: Any) -> Any:
    """Hashable identity of a value for DISTINCT, grouping and UNION."""
    if isinstance(value, list):
        return ("list", tuple(key(item) for item in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, key(v)) for k, v in value.items())))
    if isinstance(value, (Node, Relationship)):
        return (type(value).__name__, value.id)
    if isinstance(value, Path):
        return ("path", tuple(n.id for n in value.nodes),
                tuple(r.id for r in value.relationships))
    return (type(value).__name__ if not is_number(value) else "number", value)


# -- three-valued logic -------------------------------------------------------

def and3(left, right):
    if left is False or right is False:
        return False
    return None if left is None or right is None else True


def or3(left, right):
    if left is True or right is True:
        return True
    return None if left is None or right is None else False


def not3(value):
    return None if value is None else not value


def equals(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return False
        result = True
        for a, b in zip(left, right):
            result = and3(result, equals(a, b))
        return result
    if is_number(left) and is_number(right):
        return left == right
    return type(left) is type(right) and left == right


def compare(op: str, left, right):
    if op == "=":
        return equals(left, right)
    if op == "<>":
        return not3(equals(left, right))
    comparable = (is_number(left) and is_number(right)) or (
        type(left) is type(right) and isinstance(left, (str, bool)))
    if not comparable:
        return None
    return {"<": left < right, ">": left > right,
            "<=": left <= right, ">=": left >= right}[op]


def order_key(value):
    """Ascending ORDER BY: numbers, then strings, then booleans, nulls
    last."""
    if value is None:
        return (9, 0)
    if is_number(value):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bool):
        return (3, value)
    return (4, repr(key(value)))


# -- expressions ----------------------------------------------------------------

def contains_aggregate(expr) -> bool:
    if isinstance(expr, ast.CountStar) or (
            isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATES):
        return True
    return any(map(contains_aggregate, _subexpressions(vars(expr).values())))


def _subexpressions(values) -> Iterator[ast.Expression]:
    for value in values:
        if isinstance(value, ast.Expression):
            yield value
        elif isinstance(value, tuple):
            yield from _subexpressions(value)


def aggregate(call, rows: List[Row], graph) -> Any:
    if isinstance(call, ast.CountStar):
        return len(rows)
    values = [evaluate(call.args[0], row, graph) for row in rows]
    values = [value for value in values if value is not None]
    if call.distinct:
        unique = {}
        for value in values:
            unique.setdefault(key(value), value)
        values = list(unique.values())
    name = call.name
    if name == "count":
        return len(values)
    if name == "collect":
        return values
    if name == "sum":
        return sum(values)
    if not values:
        return None
    if name == "avg":
        return sum(values) / len(values)
    pick = min if name == "min" else max
    return pick(values, key=order_key)


def _function(name: str, args: List[Any]) -> Any:
    if name == "coalesce":
        return next((arg for arg in args if arg is not None), None)
    (value,) = args
    if value is None:
        return None
    if name == "id":
        return value.id
    if name == "type":
        return value.type
    if name == "labels":
        return sorted(value.labels)
    if name == "keys":
        return sorted(value.properties)
    if name == "length":
        return len(value.relationships)
    if name == "nodes":
        return list(value.nodes)
    if name == "relationships":
        return list(value.relationships)
    if name == "size":
        return len(value)
    if name == "toupper":
        return value.upper()
    raise NotImplementedError(f"oracle has no function {name!r}")


def _arithmetic(op: str, left, right):
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    raise NotImplementedError(f"oracle has no operator {op!r}")


def evaluate(expr, row: Row, graph, group: Optional[List[Row]] = None):
    """One expression on one row; ``group`` holds the rows an aggregate
    in ``expr`` folds over."""
    def ev(sub):
        return evaluate(sub, row, graph, group)

    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Variable):
        return row[expr.name]
    if isinstance(expr, ast.PropertyAccess):
        subject = ev(expr.subject)
        if subject is None:
            return None
        if isinstance(subject, dict):
            return subject.get(expr.key)
        return subject.properties.get(expr.key)
    if isinstance(expr, ast.ListLiteral):
        return [ev(item) for item in expr.items]
    if isinstance(expr, ast.UnaryOp):
        value = ev(expr.operand)
        return None if value is None else (-value if expr.op == "-"
                                           else value)
    if isinstance(expr, ast.BinaryOp):
        return _arithmetic(expr.op, ev(expr.left), ev(expr.right))
    if isinstance(expr, ast.Comparison):
        result, left = True, ev(expr.first)
        for op, operand in expr.rest:
            right = ev(operand)
            result = and3(result, compare(op, left, right))
            left = right
        return result
    if isinstance(expr, ast.And):
        return and3(ev(expr.left), ev(expr.right))
    if isinstance(expr, ast.Or):
        return or3(ev(expr.left), ev(expr.right))
    if isinstance(expr, ast.Not):
        return not3(ev(expr.operand))
    if isinstance(expr, ast.IsNull):
        return (ev(expr.operand) is None) != expr.negated
    if isinstance(expr, ast.InList):
        item, container = ev(expr.item), ev(expr.container)
        if container is None:
            return None
        result = False
        for element in container:
            result = or3(result, equals(item, element))
        return result
    if isinstance(expr, ast.StringPredicate):
        left, right = ev(expr.left), ev(expr.right)
        if not (isinstance(left, str) and isinstance(right, str)):
            return None
        return {"STARTS WITH": left.startswith, "ENDS WITH": left.endswith,
                "CONTAINS": left.__contains__}[expr.kind](right)
    if isinstance(expr, ast.CountStar) or (
            isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATES):
        return aggregate(expr, group, graph)
    if isinstance(expr, ast.FunctionCall):
        return _function(expr.name, [ev(arg) for arg in expr.args])
    if isinstance(expr, ast.ListComprehension):
        source = ev(expr.source)
        if source is None:
            return None
        scopes = [{**row, expr.variable: item} for item in source]
        if expr.predicate is not None:
            scopes = [scope for scope in scopes
                      if evaluate(expr.predicate, scope, graph) is True]
        return [scope[expr.variable] if expr.projection is None
                else evaluate(expr.projection, scope, graph)
                for scope in scopes]
    if isinstance(expr, ast.CaseExpression):
        operand = ev(expr.operand) if expr.operand is not None else None
        for when, then in expr.alternatives:
            hit = (equals(operand, ev(when)) if expr.operand is not None
                   else ev(when))
            if hit is True:
                return ev(then)
        return ev(expr.default) if expr.default is not None else None
    if isinstance(expr, ast.PatternPredicate):
        return any(True for _ in match_path(expr.pattern, graph, row))
    raise NotImplementedError(f"oracle has no {type(expr).__name__}")


# -- pattern matching -----------------------------------------------------------

def _properties_hold(entity, properties, row, graph) -> bool:
    return all(equals(entity.properties.get(name), evaluate(value, row, graph))
               is True for name, value in properties)


def _node_fits(pattern: ast.NodePattern, node: Node, row, graph) -> bool:
    if pattern.variable in row and (row[pattern.variable] is None
                                    or row[pattern.variable].id != node.id):
        return False
    return set(pattern.labels) <= node.labels \
        and _properties_hold(node, pattern.properties, row, graph)


def _steps(rel_pattern: ast.RelationshipPattern, rel: Relationship,
           at: int) -> List[int]:
    """Where ``rel`` leads from node ``at`` under the pattern's direction
    (a self-loop leads back once)."""
    ends = []
    if rel_pattern.direction is not ast.Direction.IN and rel.src == at:
        ends.append(rel.trg)
    if rel_pattern.direction is not ast.Direction.OUT and rel.trg == at \
            and not ends:
        ends.append(rel.src)
    return ends


def _walks(pattern: ast.PathPattern, graph: PropertyGraph, index: int,
           nodes: List[Node], rels: List[Relationship],
           row_now: Row) -> Iterator[tuple]:
    """Every (nodes, rels per hop, bindings) walk completing the path from
    hop ``index`` on."""
    if index == len(pattern.relationships):
        yield nodes, rels, row_now
        return
    rel_pattern = pattern.relationships[index]
    target = pattern.nodes[index + 1]
    if rel_pattern.var_length is None:
        low = high = 1
    else:
        low, high = rel_pattern.var_length
        low = 1 if low is None else low
        high = len(graph.relationships) if high is None else high
    used = {rel.id for hop in rels for rel in hop}
    candidates = [rel for rel in graph.relationships.values()
                  if (not rel_pattern.types or rel.type in rel_pattern.types)
                  and _properties_hold(rel, rel_pattern.properties,
                                       row_now, graph)]

    def sequences(at: int, taken: List[Relationship], path: List[Node]):
        if len(taken) >= low:
            yield taken, path
        if len(taken) == high:
            return
        for rel in candidates:
            if rel.id in used or any(rel.id == t.id for t in taken):
                continue
            for end in _steps(rel_pattern, rel, at):
                yield from sequences(end, taken + [rel],
                                     path + [graph.nodes[end]])

    for taken, path in sequences(nodes[-1].id, [], []):
        end = path[-1] if path else nodes[-1]
        if not _node_fits(target, end, row_now, graph):
            continue
        bound = dict(row_now)
        if target.variable:
            bound[target.variable] = end
        if rel_pattern.variable:
            value = taken[0] if rel_pattern.var_length is None else taken
            if rel_pattern.variable in row_now \
                    and key(row_now[rel_pattern.variable]) != key(value):
                continue
            bound[rel_pattern.variable] = value
        yield from _walks(pattern, graph, index + 1, nodes + path,
                          rels + [taken], bound)


def match_path(pattern: ast.PathPattern, graph: PropertyGraph,
               row: Row) -> Iterator[Row]:
    """Every assignment of one path pattern extending ``row``."""
    found = []
    first = pattern.nodes[0]
    for node in graph.nodes.values():
        if not _node_fits(first, node, row, graph):
            continue
        start = dict(row)
        if first.variable:
            start[first.variable] = node
        for nodes, rels, bound in _walks(pattern, graph, 0, [node], [],
                                         start):
            flat = [rel for hop in rels for rel in hop]
            found.append((nodes, flat, bound))
    if pattern.shortest is not None:
        best: Dict[tuple, int] = {}
        for nodes, flat, _ in found:
            pair = (nodes[0].id, nodes[-1].id)
            best[pair] = min(best.get(pair, len(flat)), len(flat))
        shortest, seen = [], set()
        for entry in found:
            pair = (entry[0][0].id, entry[0][-1].id)
            if len(entry[1]) == best[pair] and (
                    pattern.shortest == "allShortestPaths" or pair not in seen):
                seen.add(pair)
                shortest.append(entry)
        found = shortest
    for nodes, flat, bound in found:
        if pattern.variable:
            bound = {**bound, pattern.variable: Path(tuple(nodes),
                                                     tuple(flat))}
        yield bound, flat


def match_pattern(pattern: ast.Pattern, graph, row: Row) -> Iterator[Row]:
    """Every assignment of a comma-separated pattern: the cross product
    of its paths, consistent on shared names and relationship-isomorphic
    as a whole."""
    def extend(index: int, scope: Row, used: frozenset):
        if index == len(pattern.paths):
            yield scope
            return
        for bound, rels in match_path(pattern.paths[index], graph, scope):
            ids = frozenset(rel.id for rel in rels)
            if len(ids) == len(rels) and not ids & used:
                yield from extend(index + 1, bound, used | ids)

    yield from extend(0, row, frozenset())


# -- clauses --------------------------------------------------------------------

def project(rows: List[Row], clause, graph) -> List[Row]:
    """WITH / RETURN: projection or grouped aggregation, DISTINCT, ORDER
    BY, SKIP, LIMIT (and WITH's WHERE)."""
    items = list(clause.items)
    if clause.star:
        names = sorted({name for row in rows for name in row})
        items = [ast.ProjectionItem(ast.Variable(n)) for n in names] + items
    grouped = any(contains_aggregate(item.expression) for item in items)
    if grouped:
        plain = [item for item in items
                 if not contains_aggregate(item.expression)]
        groups: Dict[tuple, List[Row]] = {}
        for row in rows:
            groups.setdefault(tuple(
                key(evaluate(item.expression, row, graph)) for item in plain
            ), []).append(row)
        if not groups and not plain:
            groups[()] = []
        out = [(group[0] if group else {}, {
            item.output_name(): evaluate(item.expression,
                                         group[0] if group else {},
                                         graph, group)
            for item in items}) for group in groups.values()]
    else:
        out = [(row, {item.output_name(): evaluate(item.expression, row,
                                                   graph)
                      for item in items}) for row in rows]
    if clause.distinct:
        unique: Dict[tuple, tuple] = {}
        for source, record in out:
            unique.setdefault(tuple(sorted(
                (name, key(value)) for name, value in record.items())),
                ({}, record))
        out = list(unique.values())
    for order in reversed(clause.order_by):
        out.sort(key=lambda pair: order_key(evaluate(
            order.expression, {**pair[0], **pair[1]}, graph)),
            reverse=order.descending)
    records = [record for _, record in out]
    skip = evaluate(clause.skip, {}, graph) if clause.skip else 0
    limit = evaluate(clause.limit, {}, graph) if clause.limit else None
    records = records[skip:None if limit is None else skip + limit]
    where = getattr(clause, "where", None)
    if where is not None:
        records = [r for r in records if evaluate(where, r, graph) is True]
    return records


def apply_clause(clause, rows: List[Row], graph) -> List[Row]:
    if isinstance(clause, ast.Match):
        out = []
        for row in rows:
            found = [scope for scope in match_pattern(clause.pattern, graph,
                                                      row)
                     if clause.where is None
                     or evaluate(clause.where, scope, graph) is True]
            if not found and clause.optional:
                found = [{**row, **{name: None for name in
                                    clause.pattern.free_variables()
                                    if name not in row}}]
            out.extend(found)
        return out
    if isinstance(clause, ast.Unwind):
        out = []
        for row in rows:
            values = evaluate(clause.source, row, graph)
            values = [] if values is None else (
                values if isinstance(values, list) else [values])
            out.extend({**row, clause.alias: value} for value in values)
        return out
    return project(rows, clause, graph)


def run_clauses(steps: List[Tuple[object, PropertyGraph]],
                base: Optional[Row] = None) -> Table:
    """Run ``(clause, graph it reads)`` steps, the last a RETURN, from the
    one row ``base``."""
    rows = [dict(base or {})]
    for clause, graph in steps:
        rows = apply_clause(clause, rows, graph)
    fields = [item.output_name() for item in steps[-1][0].items]
    return Table([Record(row) for row in rows], fields=fields)


def run_query(query: ast.Query, graph: PropertyGraph) -> Table:
    """``output(Q, G)`` by brute force, UNION [ALL] included."""
    return union([run_clauses([(clause, graph) for clause in part.clauses])
                  for part in query.parts], query.union_all)


def union(tables: List[Table], union_all) -> Table:
    """The parts of a UNION query combined: ``UNION ALL`` adds bags,
    ``UNION`` also removes duplicates."""
    result = tables[0]
    for union_all, table in zip(union_all, tables[1:]):
        result = result.bag_union(table)
        if not union_all:
            unique = {record.key(): record for record in result}
            result = Table(list(unique.values()), fields=result.fields)
    return result
