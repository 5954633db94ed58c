"""Volcano-style physical query plans — compile once, execute per snapshot.

The reference pipeline (:func:`repro.seraph.semantics.execute_body`, the
test oracle) re-plans every MATCH pattern and re-walks the AST on every
snapshot.  This module lowers a registered Seraph query *once* through
the heuristic planner (:mod:`repro.cypher.planner`) into a pipeline of
physical stages whose operator tree names the access paths — LabelScan /
AllNodesScan / ExpandHop / VarLengthExpand / ShortestPath / Filter /
Project / Aggregate / Distinct / OrderBy — the first of the paper's
Section 6 "query planning at different levels" rounds taken to its
physical conclusion.

The plan is *total* and the only body executor in production: every
query ``SeraphEngine.register`` accepts compiles (:func:`check_lowerable`
rejects the rest at registration), and every evaluation the engine does
not reuse runs the :class:`PhysicalPlan` compiled at the registration's
first full evaluation.  What an execution counted travels in one
:class:`PlanProfile`.

Planning only reorders and re-orients path patterns, so a plan compiled
under one snapshot's statistics computes the same bag on every other
snapshot: the choices it fixes change enumeration order and cost, never
results.  Enumeration stays deterministic because the graph mutator
(:meth:`PropertyGraph._apply`) keeps one total node order shared by node
scans and label buckets.

Plans are plain frozen dataclasses over AST nodes, statistics-free, so
one plan object serves every snapshot of a registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.cypher import ast
from repro.cypher.evaluator import QueryEvaluator
from repro.cypher.planner import plan_pattern
from repro.errors import SeraphSemanticError
from repro.graph.model import PropertyGraph
from repro.graph.table import Table
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import WIN_END, WIN_START

__all__ = [
    "PhysicalOp",
    "PhysicalPlan",
    "MatchStage",
    "UnwindStage",
    "ProjectStage",
    "PlanProfile",
    "check_lowerable",
    "compile_query",
    "execute_plan",
    "render_plan",
]


# ---------------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalOp:
    """One node of the physical operator tree (for EXPLAIN rendering).

    ``op_id`` keys the per-operator row counters collected during
    execution; ``children`` point at the upstream (input) operators.
    """

    op_id: int
    kind: str
    detail: str = ""
    children: Tuple["PhysicalOp", ...] = ()


@dataclass(frozen=True)
class MatchStage:
    """A MATCH with its pattern planned at compile time.

    ``ops`` names the operators this stage's accounting lands on: the
    evaluator's ``"filter"`` row counts and the matcher's per-``(path,
    hop)`` candidate counts — hop ``-1`` is a path's start enumeration
    (its anchor op), hop ``k`` its k-th relationship pattern.  A
    shortestPath path has the one entry ``(path, 0)``, with the meaning
    every hop has: candidates expanded before target filtering, i.e. the
    relationships its searches expanded.
    """

    clause: ast.Match
    window_key: Tuple[str, int]
    pattern: ast.Pattern
    ops: Mapping[Any, int] = field(default_factory=dict)


@dataclass(frozen=True)
class UnwindStage:
    clause: ast.Unwind
    window_key: Tuple[str, int]
    ops: Mapping[str, int] = field(default_factory=dict)  # {"unwind": id}


@dataclass(frozen=True)
class ProjectStage:
    """A WITH/RETURN projection (aggregation, WHERE, DISTINCT, ORDER BY).

    ``ops`` maps the evaluator's step names ("project", "aggregate",
    "filter", "distinct", "order", "slice") to operator ids.
    """

    clause: Union[ast.With, ast.Return]
    window_key: Tuple[str, int]
    ops: Mapping[str, int] = field(default_factory=dict)


Stage = Union[MatchStage, UnwindStage, ProjectStage]


@dataclass(frozen=True)
class PhysicalPlan:
    """A compiled query: executable stages plus the renderable op tree."""

    root: PhysicalOp
    stages: Tuple[Stage, ...]
    op_count: int

    def operators(self) -> List[PhysicalOp]:
        """All operators, flattened in op_id order."""
        out: List[PhysicalOp] = []

        def walk(op: PhysicalOp) -> None:
            for child in op.children:
                walk(child)
            out.append(op)

        walk(self.root)
        out.sort(key=lambda op: op.op_id)
        return out


@dataclass
class PlanProfile:
    """What executing a plan counted, by operator id — the one accounting
    value: :func:`execute_plan` fills it, ``RegisteredQuery.profile``
    accumulates it with :meth:`merge`, :func:`render_plan` prints it.
    """

    #: Rows each operator produced.
    rows: Dict[int, int] = field(default_factory=dict)

    def add_rows(self, op_id: int, count: int) -> None:
        self.rows[op_id] = self.rows.get(op_id, 0) + count

    def counter(self, ops: Mapping[Any, int]) -> Callable[[Any, int], None]:
        """A ``count(step, rows)`` callback for the evaluator: adds to
        the operator ``ops`` names for ``step`` (unnamed steps drop)."""

        def count(step: Any, rows: int) -> None:
            op_id = ops.get(step)
            if op_id is not None:
                self.add_rows(op_id, rows)

        return count

    def merge(self, other: "PlanProfile") -> None:
        for op_id, count in other.rows.items():
            self.add_rows(op_id, count)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _pattern_ops(
    pattern: ast.Pattern,
    bound: Set[str],
    next_id: Callable[[], int],
    upstream: Optional[PhysicalOp],
) -> Tuple[PhysicalOp, Dict[Any, int]]:
    """The operator chain for a planned MATCH pattern, plus the
    ``(path, hop) -> op id`` entries of :attr:`MatchStage.ops`."""
    current = upstream
    ops: Dict[Any, int] = {}
    for index, path in enumerate(pattern.paths):
        if path.shortest is not None:
            children = (current,) if current is not None else ()
            current = PhysicalOp(
                op_id=next_id(),
                kind="ShortestPath",
                detail=path.render(),
                children=children,
            )
            ops[(index, 0)] = current.op_id
            continue
        start = path.nodes[0]
        kind, detail = "AllNodesScan", start.render()
        if start.variable is not None and (
            start.variable in bound
            or any(
                start.variable in p.free_variables()
                for p in pattern.paths[:index]
            )
        ):
            kind = "BoundAnchor"
        elif start.labels:
            kind = "LabelScan"
        anchor = PhysicalOp(
            op_id=next_id(),
            kind=kind,
            detail=detail,
            children=(current,) if current is not None else (),
        )
        current = anchor
        ops[(index, -1)] = anchor.op_id
        for hop, rel in enumerate(path.relationships):
            kind = "VarLengthExpand" if rel.is_var_length else "ExpandHop"
            detail = rel.render() + path.nodes[hop + 1].render()
            current = PhysicalOp(
                op_id=next_id(), kind=kind, detail=detail, children=(current,)
            )
            ops[(index, hop)] = current.op_id
    assert current is not None
    return current, ops


def _projection_ops(
    clause: Union[ast.With, ast.Return],
    next_id: Callable[[], int],
    upstream: PhysicalOp,
) -> Tuple[PhysicalOp, Dict[str, int]]:
    """Operator chain + observer-name → op-id map for a projection."""
    from repro.cypher.expressions import contains_aggregate

    has_aggregate = any(
        contains_aggregate(item.expression) for item in clause.items
    )
    items = ["*"] if clause.star else []
    items += [item.render() for item in clause.items]
    ops: Dict[str, int] = {}
    kind = "Aggregate" if has_aggregate else "Project"
    current = PhysicalOp(
        op_id=next_id(), kind=kind, detail=", ".join(items),
        children=(upstream,),
    )
    ops["aggregate" if has_aggregate else "project"] = current.op_id
    where = getattr(clause, "where", None)
    if where is not None:
        current = PhysicalOp(
            op_id=next_id(), kind="Filter", detail=where.render(),
            children=(current,),
        )
        ops["filter"] = current.op_id
    if clause.distinct:
        current = PhysicalOp(
            op_id=next_id(), kind="Distinct", children=(current,)
        )
        ops["distinct"] = current.op_id
    if clause.order_by:
        detail = ", ".join(item.render() for item in clause.order_by)
        current = PhysicalOp(
            op_id=next_id(), kind="OrderBy", detail=detail, children=(current,)
        )
        ops["order"] = current.op_id
    if clause.skip is not None or clause.limit is not None:
        parts = []
        if clause.skip is not None:
            parts.append(f"SKIP {clause.skip.render()}")
        if clause.limit is not None:
            parts.append(f"LIMIT {clause.limit.render()}")
        current = PhysicalOp(
            op_id=next_id(), kind="Slice", detail=" ".join(parts),
            children=(current,),
        )
        ops["slice"] = current.op_id
    return current, ops


def check_lowerable(query) -> None:
    """Raise :class:`~repro.errors.SeraphSemanticError` for a body clause
    no stage models.

    The Seraph grammar only produces MATCH / UNWIND / WITH bodies, so
    only a programmatically built query can fail; ``register()`` calls
    this so that such a query is rejected before it ever runs.
    """
    from repro.seraph.ast import SeraphMatch

    for clause in query.body:
        if not isinstance(
            clause, (SeraphMatch, ast.Match, ast.Unwind, ast.With)
        ):
            raise SeraphSemanticError(
                f"cannot lower clause {type(clause).__name__} "
                "to a physical stage"
            )


def compile_query(
    query, stats_for: Callable[[str, int], Any]
) -> "PhysicalPlan":
    """Lower a :class:`~repro.seraph.ast.SeraphQuery` to a physical plan.

    ``stats_for(stream, width)`` supplies the planner statistics (any
    object with a graph's ``order``/``label_count``, usually the window's
    snapshot) for each window; they fix join order and orientation for
    the plan's lifetime.
    """
    from repro.seraph.ast import SeraphMatch
    from repro.seraph.semantics import terminal_clause

    check_lowerable(query)
    counter = [0]

    def next_id() -> int:
        value = counter[0]
        counter[0] += 1
        return value

    base_names = {WIN_START, WIN_END}
    fields: Set[str] = set()
    default_key = query.window_keys()[-1]
    stages: List[Stage] = []
    root: Optional[PhysicalOp] = None

    def lower_match(clause: ast.Match, window_key: Tuple[str, int]) -> None:
        nonlocal root, fields
        bound = base_names | fields
        pattern = plan_pattern(
            clause.pattern, stats_for(*window_key), frozenset(bound)
        )
        root, ops = _pattern_ops(pattern, bound, next_id, root)
        if clause.where is not None:
            root = PhysicalOp(
                op_id=next_id(), kind="Filter",
                detail=clause.where.render(), children=(root,),
            )
            ops["filter"] = root.op_id
        if clause.optional:
            root = PhysicalOp(
                op_id=next_id(), kind="Optional", children=(root,)
            )
        stages.append(
            MatchStage(
                clause=clause, window_key=window_key, pattern=pattern,
                ops=ops,
            )
        )
        fields |= set(clause.pattern.free_variables())

    def lower_projection(
        clause: Union[ast.With, ast.Return], window_key: Tuple[str, int]
    ) -> None:
        nonlocal root, fields
        upstream = root if root is not None else PhysicalOp(
            op_id=next_id(), kind="Unit"
        )
        root, ops = _projection_ops(clause, next_id, upstream)
        stages.append(
            ProjectStage(clause=clause, window_key=window_key, ops=ops)
        )
        names = sorted(fields) if clause.star else []
        names += [item.output_name() for item in clause.items]
        fields = set(names)

    for clause in query.body:
        if isinstance(clause, SeraphMatch):
            default_key = (clause.stream_name, clause.within)
            lower_match(clause.match, default_key)
        elif isinstance(clause, ast.Match):
            lower_match(clause, default_key)
        elif isinstance(clause, ast.Unwind):
            upstream = root if root is not None else PhysicalOp(
                op_id=next_id(), kind="Unit"
            )
            root = PhysicalOp(
                op_id=next_id(), kind="Unwind",
                detail=f"{clause.source.render()} AS {clause.alias}",
                children=(upstream,),
            )
            stages.append(
                UnwindStage(
                    clause=clause, window_key=default_key,
                    ops={"unwind": root.op_id},
                )
            )
            fields |= {clause.alias}
        else:  # ast.With: check_lowerable admitted nothing else
            lower_projection(clause, default_key)
    lower_projection(terminal_clause(query), default_key)
    assert root is not None
    return PhysicalPlan(root=root, stages=tuple(stages), op_count=counter[0])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_plan(
    plan: PhysicalPlan,
    graph_for: Callable[[str, int], PropertyGraph],
    interval: TimeInterval,
    expr_cache: Optional[dict] = None,
    profile: Optional[PlanProfile] = None,
) -> Table:
    """Run a compiled plan over per-window snapshot graphs.

    Same snapshot provider contract, ``win_start``/``win_end`` scope
    injection and result bag as the reference
    :func:`repro.seraph.semantics.execute_body` — but no per-evaluation
    planning.  ``profile`` receives the rows each operator produced.
    """
    if profile is None:
        profile = PlanProfile()
    base_scope = {WIN_START: interval.start, WIN_END: interval.end}
    evaluators: Dict[Tuple[str, int], QueryEvaluator] = {}
    table = Table.unit()
    for stage in plan.stages:
        evaluator = evaluators.get(stage.window_key)
        if evaluator is None:
            evaluator = evaluators[stage.window_key] = QueryEvaluator(
                graph_for(*stage.window_key),
                base_scope=base_scope,
                compile_cache=expr_cache,
            )
        count = profile.counter(stage.ops)
        if isinstance(stage, MatchStage):
            # The pattern's operators take the matcher's per-hop
            # candidate counts (expanded before target filtering — a
            # VarLengthExpand counts every traversed edge at every
            # depth).
            hops: dict = {}
            evaluator.matcher.hop_counts = hops
            table = evaluator._apply_match(
                stage.clause, table, pattern=stage.pattern, count=count
            )
            evaluator.matcher.hop_counts = None
            for key, (candidates,) in hops.items():
                profile.add_rows(stage.ops[key], candidates)
        elif isinstance(stage, UnwindStage):
            table = evaluator._apply_unwind(stage.clause, table)
            count("unwind", len(table))
        else:
            clause = stage.clause
            table = evaluator._apply_projection(
                table,
                items=clause.items,
                distinct=clause.distinct,
                star=clause.star,
                order_by=clause.order_by,
                skip=clause.skip,
                limit=clause.limit,
                where=getattr(clause, "where", None),
                count=count,
            )
    return table


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_plan(
    plan: PhysicalPlan, profile: Optional[PlanProfile] = None
) -> str:
    """Indented operator tree, annotated from ``profile`` (when given)
    with each operator's ``rows=``."""
    lines: List[str] = []

    def walk(op: PhysicalOp, depth: int) -> None:
        label = op.kind
        if op.detail:
            label += f"({op.detail})"
        suffix = f" [op {op.op_id}]"
        if profile is not None:
            suffix += f" rows={profile.rows.get(op.op_id, 0)}"
        lines.append("  " * depth + "+- " + label + suffix)
        for child in op.children:
            walk(child, depth + 1)

    walk(plan.root, 0)
    return "\n".join(lines)
