"""Clause-by-clause query evaluation — the ``[[Q]]_G`` pipeline.

Each clause is a function from tables to tables (Section 3.2); query
output is ``[[Q]]_G(T())`` where ``T()`` is the unit table.  The Seraph
layer reuses this evaluator verbatim on snapshot graphs — that reuse *is*
snapshot reducibility (Definition 5.8) in code.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cypher import ast
from repro.cypher.aggregates import compute_aggregate
from repro.cypher.expressions import (
    OPEN_END,
    ExpressionEvaluator,
    apply_binary,
    apply_unary,
    compare_chain,
    compile_expression,
    contains_aggregate,
    index_value,
    is_true,
    slice_value,
)
from repro.cypher.functions import AGGREGATE_NAMES
from repro.cypher.matcher import CompiledPattern, PatternMatcher, compile_pattern
from repro.errors import CypherEvaluationError
from repro.graph.model import PropertyGraph
from repro.graph.table import Record, Table
from repro.graph.values import NULL, hashable, order_key


class QueryEvaluator:
    """Evaluates core-Cypher queries over one property graph.

    ``base_scope`` provides implicit variables visible to every expression
    even when not projected by WITH — Seraph injects the reserved
    ``win_start``/``win_end`` names through it (Definition 5.6).

    ``compile_cache`` threads a per-query expression-compilation cache
    (see :func:`repro.cypher.expressions.compile_expression`): the Seraph
    engine passes one dict per registered query so hot-path expressions
    are compiled once per query lifetime, not once per snapshot.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Optional[Mapping[str, Any]] = None,
        base_scope: Optional[Mapping[str, Any]] = None,
        optimize: bool = True,
        compile_cache: Optional[dict] = None,
    ):
        self.graph = graph
        self.base_scope = dict(base_scope or {})
        self.optimize = optimize
        self._compile_cache: dict = (
            compile_cache if compile_cache is not None else {}
        )
        self.evaluator = ExpressionEvaluator(
            graph, parameters=parameters, compile_cache=self._compile_cache
        )
        self.matcher = PatternMatcher(graph, self.evaluator)
        # Pattern predicates reach the matcher through a weak reference:
        # a strong one closes the cycle evaluator -> matcher -> evaluator.
        # One QueryEvaluator is built per evaluation, so the cycle would
        # hold every replaced snapshot graph (index dicts, nodes,
        # relationships) until the cyclic collector runs, and the
        # collector's pauses land inside event latencies.  ``self`` owns
        # both ends, so the matcher lives as long as the evaluator is used.
        matcher = weakref.ref(self.matcher)
        self.evaluator._pattern_checker = (
            lambda pattern, scope: matcher().has_match(pattern, scope)
        )

    def _compiled(self, expression: ast.Expression):
        """A ``fn(expr_evaluator, scope)`` closure for ``expression``,
        compiled once and cached per query."""
        return compile_expression(expression, self._compile_cache)

    # -- public API ------------------------------------------------------------

    def run(self, query: ast.Query, table: Optional[Table] = None) -> Table:
        """Evaluate a (possibly UNION) query from the unit table."""
        result = self.run_single(query.parts[0], table)
        for union_all, part in zip(query.union_all, query.parts[1:]):
            other = self.run_single(part, table)
            if result.fields != other.fields and result and other:
                raise CypherEvaluationError(
                    "UNION operands must produce the same fields"
                )
            result = result.bag_union(other)
            if not union_all:
                result = result.distinct()
        return result

    def run_single(
        self, query: ast.SingleQuery, table: Optional[Table] = None
    ) -> Table:
        current = table if table is not None else Table.unit()
        for clause in query.clauses:
            current = self.apply_clause(clause, current)
        return current

    def apply_clause(self, clause: ast.Clause, table: Table) -> Table:
        if isinstance(clause, ast.Match):
            return self._apply_match(clause, table)
        if isinstance(clause, ast.Unwind):
            return self._apply_unwind(clause, table)
        if isinstance(clause, (ast.With, ast.Return)):
            return self._apply_projection(table, clause)
        raise CypherEvaluationError(f"unsupported clause {type(clause).__name__}")

    # -- scopes -----------------------------------------------------------------

    def _scope(self, record: Record) -> Dict[str, Any]:
        return {**self.base_scope, **record._fields}

    # -- MATCH -------------------------------------------------------------------

    def _apply_match(
        self,
        clause: ast.Match,
        table: Table,
        compiled: Optional[CompiledPattern] = None,
        count: Optional[Any] = None,
    ) -> Table:
        """Apply a MATCH clause through its compiled pattern: a physical
        plan's ``compiled``, or one planned here (unless ``optimize`` is
        off) and compiled through the by-value cache.  ``count(step,
        rows)`` receives each record's surviving row count as
        ``"filter"`` and, once, each ``(path, hop)`` candidate count."""
        bound = frozenset(self.base_scope) | table.fields
        if compiled is None:
            pattern = clause.pattern
            if self.optimize:
                from repro.cypher.planner import plan_pattern

                pattern = plan_pattern(pattern, self.graph, bound)
            compiled = compile_pattern(pattern, bound)
        out_fields = table.fields | set(clause.pattern.free_variables())
        # A pattern name only the base scope binds is null in the output.
        pad = dict.fromkeys(out_fields - table.fields - set(compiled.names))
        where_fn = (
            self._compiled(clause.where) if clause.where is not None else None
        )
        run, names, matcher = compiled.run, compiled.names, self.matcher
        counts = [0] * len(compiled.slots)
        out: List[Record] = []
        for record in table:
            fields = {**record._fields, **pad} if pad else record._fields
            scope = self._scope(record)
            if where_fn is None:
                survivors = [
                    Record._adopt(row)
                    for row in run(matcher, scope, fields, counts)
                ]
            else:
                # Each row is the WHERE scope; the record keeps the fields.
                survivors = [
                    Record._adopt({**fields, **{name: row[name] for name in names}})
                    for row in run(matcher, scope, scope, counts)
                    if is_true(where_fn(self.evaluator, row))
                ]
            if count is not None:
                count("filter", len(survivors))
            if survivors:
                out.extend(survivors)
            elif clause.optional:
                nulled = dict(record)
                for name in out_fields - record.domain:
                    nulled[name] = NULL
                out.append(Record(nulled))
        if count is not None:
            for key, candidates in zip(compiled.slots, counts):
                count(key, candidates)
        return Table(out, fields=out_fields)

    # -- UNWIND ------------------------------------------------------------------

    def _apply_unwind(self, clause: ast.Unwind, table: Table) -> Table:
        out_fields = set(table.fields) | {clause.alias}
        source_fn = self._compiled(clause.source)
        out: List[Record] = []
        for record in table:
            value = source_fn(self.evaluator, self._scope(record))
            if value is NULL:
                continue
            items = value if isinstance(value, list) else [value]
            for item in items:
                out.append(record.with_field(clause.alias, item))
        return Table(out, fields=out_fields)

    # -- WITH / RETURN -----------------------------------------------------------

    def _apply_projection(
        self, table: Table, clause: Union[ast.With, ast.Return],
        count: Optional[Any] = None,
    ) -> Table:
        items, star, skip, limit = clause.items, clause.star, clause.skip, clause.limit
        where = getattr(clause, "where", None)
        has_aggregate = any(contains_aggregate(item.expression) for item in items)
        if has_aggregate and star:
            raise CypherEvaluationError(
                "cannot combine * with aggregating projection items"
            )
        if has_aggregate:
            projected, pair_rows = self._project_aggregating(table, items)
        else:
            projected, pair_rows = self._project_plain(table, items, star)
        if count is not None:
            count("aggregate" if has_aggregate else "project", len(pair_rows))

        if where is not None:
            where_fn = self._compiled(where)
            kept = []
            for out_record, in_record in pair_rows:
                scope = self._order_scope(out_record, in_record)
                if is_true(where_fn(self.evaluator, scope)):
                    kept.append((out_record, in_record))
            pair_rows = kept
            if count is not None:
                count("filter", len(pair_rows))

        if clause.distinct:
            seen = set()
            kept = []
            for out_record, in_record in pair_rows:
                key = out_record.key()
                if key not in seen:
                    seen.add(key)
                    kept.append((out_record, in_record))
            pair_rows = kept
            if count is not None:
                count("distinct", len(pair_rows))

        if clause.order_by:
            pair_rows = self._sort(pair_rows, clause.order_by)
            if count is not None:
                count("order", len(pair_rows))

        rows = [out_record for out_record, _ in pair_rows]
        if skip is not None:
            rows = rows[self._constant_int(skip, "SKIP"):]
        if limit is not None:
            rows = rows[:self._constant_int(limit, "LIMIT")]
        if count is not None and (skip is not None or limit is not None):
            count("slice", len(rows))
        return Table(rows, fields=projected)

    def _project_plain(
        self,
        table: Table,
        items: Tuple[ast.ProjectionItem, ...],
        star: bool,
    ) -> Tuple[set, List[Tuple[Record, Record]]]:
        names: List[str] = []
        if star:
            names.extend(sorted(table.fields))
        for item in items:
            names.append(item.output_name())
        item_fns = [
            (item.output_name(), self._compiled(item.expression))
            for item in items
        ]
        pair_rows: List[Tuple[Record, Record]] = []
        for record in table:
            scope = self._scope(record)
            values: Dict[str, Any] = {}
            if star:
                values.update(record._fields)
            for name, item_fn in item_fns:
                values[name] = item_fn(self.evaluator, scope)
            pair_rows.append((Record(values), record))
        return set(names), pair_rows

    def _project_aggregating(
        self,
        table: Table,
        items: Tuple[ast.ProjectionItem, ...],
    ) -> Tuple[set, List[Tuple[Record, Record]]]:
        grouping = [
            item for item in items if not contains_aggregate(item.expression)
        ]
        aggregating = [item for item in items if contains_aggregate(item.expression)]
        names = {item.output_name() for item in items}

        grouping_fns = [self._compiled(item.expression) for item in grouping]
        groups: Dict[Tuple, Dict[str, Any]] = {}
        for record in table:
            scope = self._scope(record)
            key_values = [fn(self.evaluator, scope) for fn in grouping_fns]
            key = tuple(hashable(value) for value in key_values)
            bucket = groups.setdefault(
                key, {"values": key_values, "rows": [], "first": record}
            )
            bucket["rows"].append(record)
        if not grouping and not groups:
            groups[()] = {"values": [], "rows": [], "first": Record()}

        pair_rows: List[Tuple[Record, Record]] = []
        for bucket in groups.values():
            out: Dict[str, Any] = {}
            for item, value in zip(grouping, bucket["values"]):
                out[item.output_name()] = value
            for item in aggregating:
                out[item.output_name()] = self._evaluate_aggregate(
                    item.expression, bucket["rows"]
                )
            pair_rows.append((Record(out), bucket["first"]))
        return names, pair_rows

    def _evaluate_aggregate(
        self, expression: ast.Expression, rows: List[Record]
    ) -> Any:
        """Evaluate an expression containing aggregate calls over a group."""
        if isinstance(expression, ast.CountStar):
            return len(rows)
        if (
            isinstance(expression, ast.FunctionCall)
            and expression.name in AGGREGATE_NAMES
        ):
            if not expression.args:
                raise CypherEvaluationError(
                    f"aggregate {expression.name}() requires an argument"
                )
            values = [
                self.evaluator.evaluate(expression.args[0], self._scope(row))
                for row in rows
            ]
            parameter = None
            if len(expression.args) > 1:
                parameter = self.evaluator.evaluate(
                    expression.args[1],
                    self._scope(rows[0] if rows else Record()),
                )
            return compute_aggregate(
                expression.name, values, parameter=parameter,
                distinct=expression.distinct,
            )
        def operand(part: ast.Expression) -> Any:
            return self._aggregate_operand(part, rows)

        if isinstance(expression, ast.BinaryOp):
            return apply_binary(
                expression.op, operand(expression.left),
                operand(expression.right),
            )
        if isinstance(expression, ast.UnaryOp):
            return apply_unary(expression.op, operand(expression.operand))
        if isinstance(expression, ast.FunctionCall):
            return self.evaluator.call(
                expression.name, [operand(arg) for arg in expression.args]
            )
        if isinstance(expression, ast.Comparison):
            return compare_chain(
                operand(expression.first),
                [(op, operand(part)) for op, part in expression.rest],
            )
        if isinstance(expression, ast.Index):
            return index_value(
                operand(expression.subject), operand(expression.index)
            )
        if isinstance(expression, ast.Slice):
            return slice_value(
                operand(expression.subject),
                operand(expression.lower)
                if expression.lower is not None else 0,
                operand(expression.upper)
                if expression.upper is not None else OPEN_END,
            )
        if isinstance(expression, ast.ListLiteral):
            return [operand(item) for item in expression.items]
        raise CypherEvaluationError(
            "unsupported aggregate expression shape: "
            f"{type(expression).__name__}"
        )

    def _aggregate_operand(
        self, expression: ast.Expression, rows: List[Record]
    ) -> Any:
        if contains_aggregate(expression):
            return self._evaluate_aggregate(expression, rows)
        representative = rows[0] if rows else Record()
        return self.evaluator.evaluate(expression, self._scope(representative))

    # -- ordering, skip/limit --------------------------------------------------------

    def _order_scope(self, out_record: Record, in_record: Record) -> Dict[str, Any]:
        return {**self.base_scope, **in_record._fields, **out_record._fields}

    def _sort(
        self,
        pair_rows: List[Tuple[Record, Record]],
        order_by: Tuple[ast.OrderItem, ...],
    ) -> List[Tuple[Record, Record]]:
        decorated = list(pair_rows)
        for item in reversed(order_by):
            item_fn = self._compiled(item.expression)

            def sort_key(pair, item_fn=item_fn):
                out_record, in_record = pair
                scope = self._order_scope(out_record, in_record)
                return order_key(item_fn(self.evaluator, scope))

            decorated.sort(key=sort_key, reverse=item.descending)
        return decorated

    def _constant_int(self, expression: ast.Expression, context: str) -> int:
        value = self.evaluator.evaluate(expression, dict(self.base_scope))
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CypherEvaluationError(
                f"{context} requires a non-negative integer, got {value!r}"
            )
        return value


def run_cypher(
    query: "str | ast.Query",
    graph: PropertyGraph,
    parameters: Optional[Mapping[str, Any]] = None,
    base_scope: Optional[Mapping[str, Any]] = None,
    optimize: bool = True,
) -> Table:
    """Parse (if needed) and evaluate a core-Cypher query over a graph.

    This is ``output(Q, G)`` of Section 3.2.  ``optimize=False`` disables
    the pattern planner (the ablation arm; results are identical).
    """
    from repro.cypher.parser import parse_cypher

    if isinstance(query, str):
        query = parse_cypher(query)
    return QueryEvaluator(
        graph, parameters=parameters, base_scope=base_scope, optimize=optimize,
    ).run(query)
