"""Evaluation of update queries (CREATE / MERGE / SET / DELETE / REMOVE).

This is the ingestion subset of Cypher the paper relies on in Section 5.2
(Listing 4): stream events are loaded into a store with ``MERGE``-style
statements.  Read clauses delegate to the regular
:class:`repro.cypher.evaluator.QueryEvaluator`; write clauses mutate the
:class:`repro.graph.store.GraphStore` row by row, exactly like Cypher's
per-record update semantics.

A statement reads the store's live graph, so every read sees the
statement's earlier writes (read-your-writes) and no write copies the
store; ``MERGE`` lists a row's matches before it writes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cypher import ast
from repro.cypher.evaluator import QueryEvaluator
from repro.cypher.expressions import ExpressionEvaluator
from repro.cypher.matcher import PatternMatcher, compile_pattern
from repro.cypher.parser import parse_cypher
from repro.errors import CypherEvaluationError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.store import GraphStore
from repro.graph.table import Record, Table
from repro.graph.values import NULL


class UpdatingQueryEvaluator:
    """Runs queries that may contain write clauses against a store."""

    def __init__(
        self,
        store: GraphStore,
        parameters: Optional[Mapping[str, Any]] = None,
    ):
        self.store = store
        self.parameters = dict(parameters or {})
        # Every write goes to the store's one live graph, so one matcher
        # over it serves every clause, pattern predicates included.
        graph = store.live()
        self.matcher = PatternMatcher(
            graph, ExpressionEvaluator(graph, parameters=self.parameters)
        )
        self.evaluator = self.matcher.evaluator
        self.evaluator._pattern_checker = self.matcher.has_match

    # -- public API ------------------------------------------------------------

    def run(self, query: Union[str, ast.Query]) -> Table:
        if isinstance(query, str):
            query = parse_cypher(query)
        if len(query.parts) != 1:
            raise CypherEvaluationError("update queries cannot use UNION")
        return self.run_single(query.parts[0])

    def run_single(self, query: ast.SingleQuery) -> Table:
        self.evaluator.compile_cache.clear()  # an earlier statement's
        table = Table.unit()
        for clause in query.clauses:
            table = self.apply_clause(clause, table)
        if query.clauses and isinstance(query.clauses[-1], ast.Return):
            return table
        return Table.empty()

    def apply_clause(self, clause: ast.Clause, table: Table) -> Table:
        if isinstance(clause, ast.Create):
            return self._apply_create(clause, table)
        if isinstance(clause, ast.Merge):
            return self._apply_merge(clause, table)
        if isinstance(clause, ast.SetClause):
            return self._apply_set(clause.items, table)
        if isinstance(clause, ast.Delete):
            return self._apply_delete(clause, table)
        if isinstance(clause, ast.Remove):
            return self._apply_remove(clause, table)
        # Read clauses evaluate over the live graph.
        reader = QueryEvaluator(self.store.live(), parameters=self.parameters)
        return reader.apply_clause(clause, table)

    # -- helpers -----------------------------------------------------------------

    def _refresh(self, record: Record) -> Record:
        """Re-resolve entity values after mutations so later clauses see
        current labels/properties.  Deleted entities keep their last
        snapshot (Cypher errors on *use*, not on mere retention)."""
        graph = self.store.live()
        fresh: Dict[str, Any] = {}
        changed = False
        for name, value in record.items():
            if isinstance(value, Node) and value.id in graph.nodes:
                new = graph.node(value.id)
                changed = changed or new is not value
                fresh[name] = new
            elif (
                isinstance(value, Relationship)
                and value.id in graph.relationships
            ):
                new = graph.relationship(value.id)
                changed = changed or new is not value
                fresh[name] = new
            else:
                fresh[name] = value
        return Record(fresh) if changed else record

    def _properties(
        self,
        pattern_properties: Tuple[Tuple[str, ast.Expression], ...],
        scope: Mapping[str, Any],
        evaluator: ExpressionEvaluator,
    ) -> Dict[str, Any]:
        return {
            key: evaluator.evaluate(value, scope)
            for key, value in pattern_properties
        }

    # -- CREATE ---------------------------------------------------------------------

    def _apply_create(self, clause: ast.Create, table: Table) -> Table:
        out_fields = set(table.fields) | set(clause.pattern.free_variables())
        out: List[Record] = []
        for record in table:
            bindings = dict(record)
            for path in clause.pattern.paths:
                bindings = self._create_path(path, bindings)
            out.append(Record(bindings).project(out_fields))
        return Table(out, fields=out_fields)

    def _create_path(
        self, path: ast.PathPattern, bindings: Dict[str, Any]
    ) -> Dict[str, Any]:
        if path.shortest is not None:
            raise CypherEvaluationError("cannot CREATE a shortestPath")
        evaluator = self.evaluator
        scope = dict(bindings)
        created_nodes: List[Node] = []
        created_rels: List[Relationship] = []

        def resolve_node(node_pattern: ast.NodePattern) -> Node:
            name = node_pattern.variable
            if name is not None and name in bindings:
                value = bindings[name]
                if not isinstance(value, Node):
                    raise CypherEvaluationError(
                        f"variable {name} is not a node"
                    )
                if node_pattern.labels or node_pattern.properties:
                    raise CypherEvaluationError(
                        f"cannot add labels/properties to the bound "
                        f"variable {name} in CREATE"
                    )
                return value
            node = self.store.create_node(
                labels=node_pattern.labels,
                properties=self._properties(
                    node_pattern.properties, scope, evaluator
                ),
            )
            if name is not None:
                bindings[name] = node
                scope[name] = node
            return node

        current = resolve_node(path.nodes[0])
        created_nodes.append(current)
        for rel_pattern, node_pattern in zip(path.relationships,
                                             path.nodes[1:]):
            if rel_pattern.is_var_length:
                raise CypherEvaluationError(
                    "cannot CREATE a variable-length relationship"
                )
            if len(rel_pattern.types) != 1:
                raise CypherEvaluationError(
                    "CREATE requires exactly one relationship type"
                )
            if rel_pattern.direction is ast.Direction.BOTH:
                raise CypherEvaluationError(
                    "CREATE requires a directed relationship"
                )
            next_node = resolve_node(node_pattern)
            if rel_pattern.direction is ast.Direction.OUT:
                src, trg = current, next_node
            else:
                src, trg = next_node, current
            rel = self.store.create_relationship(
                src.id,
                rel_pattern.types[0],
                trg.id,
                properties=self._properties(
                    rel_pattern.properties, scope, evaluator
                ),
            )
            if rel_pattern.variable is not None:
                if rel_pattern.variable in bindings:
                    raise CypherEvaluationError(
                        f"variable {rel_pattern.variable} already bound"
                    )
                bindings[rel_pattern.variable] = rel
                scope[rel_pattern.variable] = rel
            created_rels.append(rel)
            created_nodes.append(next_node)
            current = next_node
        if path.variable is not None:
            bindings[path.variable] = Path(
                tuple(created_nodes), tuple(created_rels)
            )
        return bindings

    # -- MERGE ----------------------------------------------------------------------

    def _apply_merge(self, clause: ast.Merge, table: Table) -> Table:
        out_fields = set(table.fields) | set(clause.path.free_variables())
        out: List[Record] = []
        compiled = compile_pattern(ast.Pattern(paths=(clause.path,)), table.fields)
        for record in table:
            # Listed before any write: ON MATCH must not see its own sets.
            matches = list(compiled.run(self.matcher, dict(record), {}, None))
            if matches:
                for new_bindings in matches:
                    merged = record.merged(Record(new_bindings))
                    self._apply_set_items(clause.on_match, merged)
                    out.append(self._refresh(merged).project(out_fields))
            else:
                bindings = self._create_path(clause.path, dict(record))
                merged = Record(bindings)
                self._apply_set_items(clause.on_create, merged)
                out.append(self._refresh(merged).project(out_fields))
        return Table(out, fields=out_fields)

    # -- SET / REMOVE ------------------------------------------------------------------

    def _apply_set(self, items: Tuple[object, ...], table: Table) -> Table:
        out: List[Record] = []
        for record in table:
            self._apply_set_items(items, record)
            out.append(self._refresh(record))
        return Table(out, fields=table.fields)

    def _apply_set_items(
        self, items: Tuple[object, ...], record: Record
    ) -> None:
        evaluator = self.evaluator
        scope = dict(record)
        for item in items:
            if isinstance(item, ast.SetProperty):
                entity = evaluator.evaluate(item.target, scope)
                if entity is NULL:
                    continue
                value = evaluator.evaluate(item.value, scope)
                self.store.set_property(entity, item.key, value)
            elif isinstance(item, ast.SetLabels):
                entity = scope.get(item.variable)
                if entity is NULL or entity is None:
                    continue
                if not isinstance(entity, Node):
                    raise CypherEvaluationError(
                        f"cannot set labels on {entity!r}"
                    )
                self.store.add_labels(entity, item.labels)
            elif isinstance(item, ast.SetFromMap):
                entity = scope.get(item.variable)
                if entity is NULL or entity is None:
                    continue
                mapping = evaluator.evaluate(item.source, scope)
                if mapping is NULL:
                    continue
                if isinstance(mapping, (Node, Relationship)):
                    mapping = dict(mapping.properties)
                if not isinstance(mapping, dict):
                    raise CypherEvaluationError(
                        f"SET from map expects a map, got {mapping!r}"
                    )
                self.store.set_properties_from_map(
                    entity, mapping, replace=not item.additive
                )
            else:
                raise CypherEvaluationError(f"unknown SET item {item!r}")

    def _apply_remove(self, clause: ast.Remove, table: Table) -> Table:
        out: List[Record] = []
        for record in table:
            evaluator = self.evaluator
            scope = dict(record)
            for item in clause.items:
                if isinstance(item, ast.RemoveProperty):
                    entity = evaluator.evaluate(item.target, scope)
                    if entity is NULL:
                        continue
                    self.store.remove_property(entity, item.key)
                elif isinstance(item, ast.RemoveLabels):
                    entity = scope.get(item.variable)
                    if entity is NULL or entity is None:
                        continue
                    if not isinstance(entity, Node):
                        raise CypherEvaluationError(
                            f"cannot remove labels from {entity!r}"
                        )
                    self.store.remove_labels(entity, item.labels)
            out.append(self._refresh(record))
        return Table(out, fields=table.fields)

    # -- DELETE ------------------------------------------------------------------------

    def _apply_delete(self, clause: ast.Delete, table: Table) -> Table:
        evaluator = self.evaluator
        # Collect first, delete once: multiple rows may name one entity.
        node_ids: Dict[int, None] = {}
        rel_ids: Dict[int, None] = {}
        for record in table:
            scope = dict(record)
            for target in clause.targets:
                value = evaluator.evaluate(target, scope)
                if value is NULL:
                    continue
                if isinstance(value, Node):
                    node_ids[value.id] = None
                elif isinstance(value, Relationship):
                    rel_ids[value.id] = None
                elif isinstance(value, Path):
                    for rel in value.relationships:
                        rel_ids[rel.id] = None
                    for node in value.nodes:
                        node_ids[node.id] = None
                else:
                    raise CypherEvaluationError(
                        f"cannot DELETE {value!r}"
                    )
        for rel_id in rel_ids:
            self.store.delete_relationship(rel_id)
        for node_id in node_ids:
            self.store.delete_node(node_id, detach=clause.detach)
        return table


def run_update(
    query: Union[str, ast.Query],
    store: GraphStore,
    parameters: Optional[Mapping[str, Any]] = None,
) -> Table:
    """Run an (update) query against a mutable store."""
    return UpdatingQueryEvaluator(store, parameters=parameters).run(query)
