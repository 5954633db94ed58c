"""Pattern matching over property graphs — ``match(π, G, u)`` of Section 3.2.

Implements Cypher's matching semantics:

* bag semantics — one output assignment per distinct way of embedding the
  pattern (per rigid pattern × path, in the paper's formulation);
* **relationship uniqueness** — within one match of a whole ``MATCH``
  pattern, no relationship is traversed twice (nodes may repeat);
* variable-length patterns ``*lo..hi`` enumerate all rigid expansions,
  finitely because of relationship uniqueness;
* ``shortestPath``/``allShortestPaths`` via breadth-first search.

The matcher works against a *scope* of pre-existing bindings (the record
``u``), only yielding assignments for names not already bound, exactly as
``dom(u') = free(π) \\ dom(u)`` requires.

Every pattern runs compiled (docs/PLANNING.md, "Compiled patterns").
:func:`compile_pattern` lowers a planned pattern, for one set of bound
names, into the source of one generator function: a loop nest, depth
first in pattern order, whose pattern variables are locals.  Labels and
literal property maps are constants of that source; any other property
value is its compiled expression, called per candidate.  Relationship
isomorphism is one mutable set of used ids, added to and discarded
around each hop; a variable-length hop is one explicit-stack trail
iterator (:func:`_trail_ends`); each ``(path, hop)`` candidate count is a
local integer, flushed once per run.  A ``shortestPath`` element filters
its endpoints with the same generated node tests and hands them to the
set-at-a-time search :func:`_shortest`.  Compiled forms are cached by
value, so re-planning or re-running an equal pattern compiles nothing.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    NamedTuple, Optional, Set, Tuple)

from repro.cypher import ast
from repro.cypher.expressions import (ExpressionEvaluator, compile_expression,
                                      property_variables)
from repro.errors import CypherEvaluationError
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import Ternary, cypher_equals

Bindings = Dict[str, Any]
UsedRels = Set[int]
Types = Tuple[str, ...]
#: The graph read contract's ``expand_pairs(node id, direction, types)``.
Expand = Callable[[int, str, Types], Iterator[Tuple[Relationship, Node]]]
#: A relationship pattern's property test, or ``None`` when it has none.
Accept = Optional[Callable[[Relationship], bool]]

#: One walk of a shortest-path search: (relationship ids, nodes,
#: relationships), all three in source orientation.
Walk = Tuple[Tuple[int, ...], Tuple[Node, ...], Tuple[Relationship, ...]]

#: Pattern orientation -> the graph read contract's ``expand_pairs`` tag.
_DIRECTION_TAGS = {
    ast.Direction.OUT: "out",
    ast.Direction.IN: "in",
    ast.Direction.BOTH: "any",
}
_REVERSED_TAGS = {"out": "in", "in": "out", "any": "any"}

#: Equal to no entity id: what a bound name of another kind matches with.
_NO_ID = object()


class CompiledPattern(NamedTuple):
    """A planned pattern lowered for one set of bound names.

    ``run(matcher, scope, base, counts)`` is a generator: per match, a
    fresh dict ``{**base, name: value, ...}`` over the names the pattern
    binds (``names``, in binding order), reading the bound names from
    ``scope`` and the graph from ``matcher``.  Given ``counts``, a list as
    long as ``slots``, a finished run adds to it each ``(path, hop)``
    key's candidates: hop ``-1`` is a path's start enumeration, hop ``k``
    its k-th relationship pattern, counted before target filtering (a
    variable-length hop counts every relationship it extends a trail
    with; a shortestPath path has only hop ``0``: what its searches
    expanded).
    """

    pattern: ast.Pattern
    bound: FrozenSet[str]
    names: Tuple[str, ...]
    slots: Tuple[Tuple[int, int], ...]
    run: Callable[..., Iterator[Bindings]]
    source: str

    def __reduce__(self):
        # The function has no importable name: unpickling recompiles
        # (through the by-value cache).
        return compile_pattern, (self.pattern, self.bound)


def compile_pattern(pattern: ast.Pattern, bound: FrozenSet[str]) -> CompiledPattern:
    """``pattern`` compiled for a scope binding ``bound``, cached by value:
    equal patterns with equal orientations and bound pattern variables
    share one compiled form."""
    bound = bound.intersection(pattern.free_variables())
    # Orientation is outside pattern equality, and ``Literal(1) ==
    # Literal(True)``: the flags and the rendering complete the key.
    flips = tuple(path.flipped for path in pattern.paths)
    return _compiled((pattern, flips, bound, pattern.render()))


@lru_cache(maxsize=256)
def _compiled(key: tuple) -> CompiledPattern:
    pattern, _flips, bound, _text = key
    return _lower(pattern, bound)


def _lower(pattern: ast.Pattern, bound: FrozenSet[str]) -> CompiledPattern:
    lowering = _Lowering(bound)
    for index, path in enumerate(pattern.paths):
        if path.shortest is not None:
            lowering.shortest(index, path)
        else:
            lowering.walk(index, path)
    return lowering.finish(pattern)


class _Lowering:
    """Writes one pattern's loop nest as Python source, path by path.

    ``env`` maps each name the nest has bound so far to its local and
    the kind of its value (``Node``, ``Relationship``, ``list``, ``Path``);
    ``names`` holds the constants the source reads.
    """

    def __init__(self, bound: FrozenSet[str]):
        self.bound = bound
        self.names: Dict[str, Any] = {
            "NO": _NO_ID, "Node": Node, "Relationship": Relationship,
            "eq": cypher_equals, "TRUE": Ternary.TRUE, "path": _path,
            "ids": _rel_ids, "trail_ends": _trail_ends, "shortest": _shortest,
        }
        self.head = ["graph = m.graph", "ev = m.evaluator", "nodes = graph.nodes",
                     "expand = graph.expand_pairs", "used = set()"]
        self.body: List[str] = []
        self.tail: List[Tuple[int, str]] = []  # (depth, line) closing a hop
        self.claims: List[Tuple[str, str]] = []  # (add, discard) not yet out
        self.flush: List[str] = []
        self.slots: List[Tuple[int, int]] = []
        self.env: Dict[str, Tuple[str, type]] = {}
        self.reads: Dict[str, str] = {}
        self.depth = 1
        self.locals = 0
        self.used = False  # may ``used`` hold an id here?

    # -- source ----------------------------------------------------------

    def local(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def const(self, value: Any) -> str:
        name = self.local("C")
        self.names[name] = value
        return name

    def emit(self, line: str, opens: bool = False) -> None:
        if opens:
            self.claim()
        self.body.append("    " * self.depth + line)
        self.depth += opens

    def claim(self) -> None:
        """Write the pending additions to ``used``.  They wait for the
        next loop (or the yield): a test between a hop and them may
        ``continue``, which would skip the discard that undoes them."""
        for add, discard in self.claims:
            self.body.append("    " * self.depth + add)
            self.tail.append((self.depth, discard))
        self.claims = []
        self.used = self.used or bool(self.tail)

    def test(self, tests: List[str]) -> None:
        if tests:
            self.emit(f"if not ({' and '.join(tests)}): continue")

    def counter(self, key: Tuple[int, int], tally: bool = False) -> str:
        """A local counting ``key``'s candidates: an int, or a one-item
        list that a helper adds to."""
        name = self.local("t" if tally else "k")
        self.head.append(f"{name} = {'[0]' if tally else '0'}")
        self.flush.append(
            f"counts[{len(self.slots)}] += {name}{'[0]' if tally else ''}"
        )
        self.slots.append(key)
        return name

    def read(self, expression: str) -> str:
        """A local holding ``expression``, evaluated once per run."""
        if expression not in self.reads:
            self.reads[expression] = self.local("o")
            self.head.append(f"{self.reads[expression]} = {expression}")
        return self.reads[expression]

    # -- bound names -----------------------------------------------------

    def is_bound(self, name: Optional[str]) -> bool:
        return name is not None and (name in self.env or name in self.bound)

    def bind(self, name: Optional[str], local: str, kind: type) -> None:
        if name is not None and not self.is_bound(name):
            self.env[name] = (local, kind)

    def value(self, name: str) -> str:
        if name in self.env:
            return self.env[name][0]
        return self.read(f"scope[{name!r}]")

    def ident(self, name: str, kind: type) -> str:
        """The id a position of ``kind`` must have to match bound ``name``:
        ``NO`` when the name holds another kind of value (or null)."""
        if name in self.env:
            local, held = self.env[name]
            return f"{local}.id" if held is kind else "NO"
        value = self.value(name)
        return self.read(
            f"{value}.id if isinstance({value}, {kind.__name__}) else NO"
        )

    def scope(self, expression: ast.Expression) -> str:
        """The scope a property value reads: the run's, extended by the
        names bound so far unless the value is a parameter."""
        if not self.env or isinstance(expression, ast.Parameter):
            return "scope"
        return "{**scope, " + ", ".join(
            f"{name!r}: {local}" for name, (local, _) in self.env.items()
        ) + "}"

    # -- tests -----------------------------------------------------------

    def properties(self, properties, entity: str) -> List[str]:
        """A property map's equality tests, in its order."""
        tests = []
        for key, expression in properties:
            read = f"{entity}.properties.get({key!r})"
            if not isinstance(expression, ast.Literal):
                value = self.const(compile_expression(expression))
                tests.append(
                    f"eq({read}, {value}(ev, {self.scope(expression)})) is TRUE"
                )
                continue
            value, const = expression.value, self.const(expression.value)
            if value is None:
                tests.append("False")  # null equals nothing
            elif isinstance(value, bool):
                tests.append(f"{read} is {const}")
            elif isinstance(value, str):
                tests.append(f"{read} == {const}")
            elif isinstance(value, (int, float)):
                tests.append(
                    f"(v := {read}) == {const} and v.__class__ is not bool"
                )
            else:
                tests.append(f"eq({read}, {const}) is TRUE")
        return tests

    def node(self, pattern: ast.NodePattern, local: str,
             anchor: bool = False, scanned: bool = False) -> List[str]:
        """The tests candidate ``local`` passes to match ``pattern`` (an
        anchor's candidates are already its bound node, a label scan's
        already carry the labels)."""
        tests = []
        if pattern.labels and not scanned:
            labels = frozenset(pattern.labels)
            tests.append(
                f"{self.const(next(iter(labels)))} in {local}.labels"
                if len(labels) == 1
                else f"{self.const(labels)} <= {local}.labels"
            )
        tests += self.properties(pattern.properties, local)
        if self.is_bound(pattern.variable) and not anchor:
            tests.append(f"{local}.id == {self.ident(pattern.variable, Node)}")
        return tests

    def start(self, pattern: ast.NodePattern, local: str) -> Tuple[str, List[str]]:
        """Where a path's first node comes from — its bound node, a label
        scan or every node — and the tests ``local`` must pass."""
        if not self.is_bound(pattern.variable):
            if not pattern.labels:
                return "nodes.values()", self.node(pattern, local)
            labels = self.const(frozenset(pattern.labels))
            return (f"graph.nodes_with_labels({labels})",
                    self.node(pattern, local, scanned=True))
        if pattern.variable in self.env:
            held, kind = self.env[pattern.variable]
            source = f"({held},)" if kind is Node else "()"
        else:
            value = self.value(pattern.variable)
            source = self.read(
                f"(nodes[{value}.id],) if isinstance({value}, Node) "
                f"and {value}.id in nodes else ()"
            )
        return source, self.node(pattern, local, anchor=True)

    def accept(self, rel: ast.RelationshipPattern) -> str:
        """A relationship pattern's property test as a local function."""
        if not rel.properties:
            return "None"
        accept = self.local("a")
        tests = " and ".join(self.properties(rel.properties, "rel"))
        self.emit(f"{accept} = lambda rel: {tests}")
        return accept

    # -- paths -----------------------------------------------------------

    def walk(self, index: int, path: ast.PathPattern) -> None:
        first = path.nodes[0]
        count = self.counter((index, -1))
        node = self.local("n")
        source, tests = self.start(first, node)
        self.emit(f"for {node} in {source}:", opens=True)
        self.emit(f"{count} += 1")
        self.test(tests)
        self.bind(first.variable, node, Node)
        nodes, rels = [node], []
        for hop, rel in enumerate(path.relationships):
            target = path.nodes[hop + 1]
            if rel.var_length is None:
                rel_local, node = self.hop(index, hop, rel, target, node)
                rels.append(rel_local)
                nodes.append(node)
            else:
                segment, node = self.trail(index, hop, rel, target, node,
                                           path.flipped)
                rels.append(f"*{segment}[0]")
                nodes.append(f"*{segment}[1]")
        if path.variable is not None:
            turn = "[::-1]" if path.flipped else ""
            local = self.local("p")
            self.emit(f"{local} = path(({', '.join(nodes)},){turn}, "
                      f"({''.join(rel + ', ' for rel in rels)}){turn})")
            if self.is_bound(path.variable):
                self.test([f"{self.value(path.variable)} == {local}"])
            self.bind(path.variable, local, Path)

    def hop(self, index: int, hop: int, rel: ast.RelationshipPattern,
            target: ast.NodePattern, current: str) -> Tuple[str, str]:
        count = self.counter((index, hop))
        rel_local, node = self.local("r"), self.local("n")
        source = (f"expand({current}.id, {_DIRECTION_TAGS[rel.direction]!r}, "
                  f"{self.const(rel.types)})")
        bound = self.is_bound(rel.variable)
        if bound:
            rel_id = self.ident(rel.variable, Relationship)
            source += f" if {rel_id} is not NO else ()"
        self.emit(f"for {rel_local}, {node} in {source}:", opens=True)
        self.test(
            ([f"{rel_local}.id not in used"] if self.used else [])
            + self.properties(rel.properties, rel_local)
        )
        self.emit(f"{count} += 1")
        if bound:
            self.test([f"{rel_local}.id == {rel_id}"])
        self.bind(rel.variable, rel_local, Relationship)
        self.test(self.node(target, node))
        self.bind(target.variable, node, Node)
        self.claims.append((f"used.add({rel_local}.id)",
                            f"used.discard({rel_local}.id)"))
        return rel_local, node

    def trail(self, index: int, hop: int, rel: ast.RelationshipPattern,
              target: ast.NodePattern, current: str,
              flipped: bool) -> Tuple[str, str]:
        """A variable-length hop; its segment is ``(rels, nodes)``."""
        tally = self.counter((index, hop), tally=True)
        segment, node = self.local("s"), self.local("n")
        accept = self.accept(rel)
        bound = self.is_bound(rel.variable)
        if bound:
            wanted = self.local("b")
            self.emit(f"{wanted} = ids({self.value(rel.variable)}, {flipped})")
        low, high = rel.var_length
        self.emit(f"{segment} = ([], [])")
        self.emit(
            f"for {node} in trail_ends(expand, {current}, "
            f"{_DIRECTION_TAGS[rel.direction]!r}, {self.const(rel.types)}, "
            f"{1 if low is None else low}, {high!r}, used, *{segment}, "
            f"{accept}, {tally}):", opens=True,
        )
        if bound:
            self.test([f"[rel.id for rel in {segment}[0]] == {wanted}"])
        elif rel.variable is not None:
            local = self.local("l")
            self.emit(f"{local} = {segment}[0][{'::-1' if flipped else ':'}]")
            self.bind(rel.variable, local, list)
        self.test(self.node(target, node))
        self.bind(target.variable, node, Node)
        self.used = True
        return segment, node

    def shortest(self, index: int, path: ast.PathPattern) -> None:
        """Endpoint candidates through the generated node tests, then one
        :func:`_shortest` search over them.  When the search depends on
        the pair — a relationship property reads an endpoint variable,
        the end pattern reads the start variable or *is* it — the
        endpoints are loops and each pair is searched alone."""
        if len(path.relationships) != 1:
            raise CypherEvaluationError(
                "shortestPath() requires a single relationship pattern"
            )
        tally = self.counter((index, 0), tally=True)
        rel, sides = path.relationships[0], []
        start, end = (node.variable for node in path.nodes)
        pairwise = {start, end} & set(property_variables([rel])) or (
            start is not None
            and (start == end or start in property_variables(path.nodes[1:]))
        )
        for pattern in path.nodes:
            node = self.local("n")
            source, tests = self.start(pattern, node)
            if pairwise:
                self.emit(f"for {node} in {source}:", opens=True)
                self.test(tests)
                self.bind(pattern.variable, node, Node)
                sides.append(f"[{node}]")
            else:
                sides.append(f"[{node} for {node} in {source}"
                             f"{''.join(' if ' + test for test in tests)}]")
        low, high = rel.var_length or (1, 1)
        ends, walk = (self.local("x"), self.local("x")), self.local("w")
        self.emit(
            f"for {', '.join(ends)}, {walk} in shortest(graph, {sides[0]}, "
            f"{sides[1]}, {_DIRECTION_TAGS[rel.direction]!r}, "
            f"{self.const(rel.types)}, {1 if low is None else low}, {high!r}, "
            f"{self.accept(rel)}, used, {path.shortest == 'allShortestPaths'}, "
            f"{tally}):", opens=True,
        )
        for pattern, local in zip(path.nodes, ends):
            self.bind(pattern.variable, local, Node)
        for name, value, kind in ((rel.variable, f"list({walk}[2])", list),
                                  (path.variable, f"path(*{walk}[1:])", Path)):
            if name is not None and not self.is_bound(name):
                local = self.local("x")
                self.emit(f"{local} = {value}")
                self.bind(name, local, kind)
        self.claims.append((f"used.update({walk}[0])",
                            f"used.difference_update({walk}[0])"))

    def finish(self, pattern: ast.Pattern) -> CompiledPattern:
        self.claim()
        self.emit("yield {**base" + "".join(
            f", {name!r}: {local}" for name, (local, _) in self.env.items()
        ) + "}")
        for depth, line in reversed(self.tail):
            self.body.append("    " * depth + line)
        source = "\n".join(
            ["def run(m, scope, base, counts):"]
            + ["    " + line for line in self.head] + self.body
            + ["    if counts is not None:"]
            + ["        " + line for line in self.flush]
        )
        exec(compile(source, f"<pattern {pattern.render()}>", "exec"),
             self.names)
        return CompiledPattern(
            pattern, self.bound, tuple(self.env), tuple(self.slots),
            self.names.pop("run"), source,
        )


def _trail_ends(expand: Expand, start: Node, direction: str, types: Types,
                low: int, high: Optional[int], used: UsedRels,
                rels: List[Relationship], nodes: List[Node], accept: Accept,
                tally: List[int]) -> Iterator[Node]:
    """The end of every trail from ``start`` with ``low..high`` (``None``:
    unbounded) relationships, depth-first in pre-order: a trail's end
    comes before its extensions'.

    While an end is out, ``rels`` and ``nodes`` hold its trail (``start``
    excluded) and ``used`` also holds the trail's ids.  A relationship
    extends a trail only if ``used`` lacks it and ``accept`` takes it.
    Once the search is done, ``tally[0]`` gains how many relationships
    extended a trail.
    """
    extended = 0
    if low == 0:
        yield start
    stack = [expand(start.id, direction, types)] if high != 0 else []
    while stack:
        for rel, node in stack[-1]:
            if rel.id not in used and (accept is None or accept(rel)):
                break
        else:
            stack.pop()
            if rels:
                used.discard(rels.pop().id)
                nodes.pop()
            continue
        extended += 1
        rels.append(rel)
        nodes.append(node)
        used.add(rel.id)
        # A trail at its upper bound extends no further: an empty level.
        stack.append(
            expand(node.id, direction, types)
            if high is None or len(rels) < high else ()
        )
        if len(rels) >= low:
            yield node
    tally[0] += extended


def _rel_ids(value: Any, reverse: bool) -> Optional[List[Any]]:
    """A bound relationship list's ids in walk order; ``None`` (equal to
    no segment's) when the value is not a list of relationships."""
    if isinstance(value, list) and all(isinstance(item, Relationship) for item in value):
        return [item.id for item in (value[::-1] if reverse else value)]
    return None


def _path(nodes: Tuple[Node, ...], rels: Tuple[Relationship, ...]) -> Path:
    """A path the walk has built step by step: not checked again."""
    path = object.__new__(Path)
    object.__setattr__(path, "nodes", nodes)
    object.__setattr__(path, "relationships", rels)
    return path


class PatternMatcher:
    """Matches patterns against one property graph: the graph and the
    expression evaluator a compiled pattern runs with."""

    def __init__(self, graph: PropertyGraph, evaluator: ExpressionEvaluator):
        self.graph = graph
        self.evaluator = evaluator

    def match_pattern(self, pattern: ast.Pattern,
                      scope: Mapping[str, Any]) -> Iterator[Bindings]:
        """The new-bindings records ``u'`` of each match of the whole
        comma-separated pattern (one-shot: compiled through the cache)."""
        return compile_pattern(pattern, frozenset(scope)).run(self, scope, {}, None)

    def has_match(self, path: ast.PathPattern, scope: Mapping[str, Any]) -> bool:
        """Existence check for pattern predicates (no uniqueness sharing
        with the enclosing MATCH, per Cypher)."""
        for _ in self._predicate(path, scope).run(self, scope, {}, None):
            return True
        return False

    def _predicate(self, path: ast.PathPattern,
                   scope: Mapping[str, Any]) -> CompiledPattern:
        """A pattern predicate's compiled form, found per row by the
        path's identity in the evaluator's per-query cache."""
        cache = self.evaluator.compile_cache
        entry = cache.get(("pattern", id(path)))
        if entry is None or entry[0] is not path:
            entry = cache[("pattern", id(path))] = (
                path, path.free_variables(), {}
            )
        bound = frozenset(name for name in entry[1] if name in scope)
        compiled = entry[2].get(bound)
        if compiled is None:
            compiled = entry[2][bound] = compile_pattern(
                ast.Pattern(paths=(path,)), bound
            )
        return compiled


# -- shortestPath: a set at a time (docs/PLANNING.md) -------------------------


def _shortest(graph: PropertyGraph, starts: List[Node], ends: List[Node],
              direction: str, types: Types, low: int, high: Optional[int],
              accept: Accept, used: UsedRels, every: bool,
              tally: List[int]) -> Iterator[Tuple[Node, Node, Walk]]:
    """``(start, end, walk)`` for the shortest trail of each pair with
    one (all of them when ``every``), start-major, end-minor, in the
    lists' orders.

    The search is rooted on the side with fewer candidates (the end side
    walks the relationship pattern reversed), and :func:`_shortest_from`
    answers every target of a root from one breadth-first search.
    """
    # A trail repeats no relationship, so the graph size bounds its
    # length even when the pattern is unbounded above.
    max_depth = len(graph.relationships)
    if high is not None:
        max_depth = min(max_depth, high)
    search = partial(
        _shortest_from, graph.expand_pairs, types=types, accept=accept,
        used=used, low=low, max_depth=max_depth, tally=tally,
    )
    from_end = None
    if len(ends) < len(starts):
        back = _REVERSED_TAGS[direction]
        from_end = {end.id: search(end, starts, back, rooted_at_end=True)
                    for end in ends}
    for start in starts:
        if from_end is None:
            found = search(start, ends, direction)
        for end in ends:
            walks = (found.get(end.id) if from_end is None
                     else from_end[end.id].get(start.id))
            for walk in (walks or ()) if every else (walks or ())[:1]:
                yield start, end, walk


def _shortest_from(expand: Expand, root: Node, targets: List[Node],
                   direction: str, rooted_at_end: bool = False, *,
                   types: Types, accept: Accept, used: UsedRels, low: int,
                   max_depth: int, tally: List[int]) -> Dict[int, List[Walk]]:
    """``{target id: its shortest trails of length in [low, max_depth]}``
    from one search rooted at ``root`` (walking ``direction``, reversed by
    the caller when the root is the pattern's end), each list in source
    orientation, ordered by relationship-id sequence; targets without a
    trail are absent.

    The first pass enters each node once, at its distance, recording the
    parents of every shortest walk (one repeats no node, so it is a
    trail).  Only a target nearer than ``low`` (``*3..`` with a 1-hop
    shortcut, or the root) needs walks that revisit nodes: a second pass
    keyed by ``(node, depth)``, reading off the relationship-unique ones.
    """
    found: Dict[int, List[Walk]] = {}
    pending = {target.id for target in targets}
    if low == 0 and root.id in pending:
        pending.discard(root.id)
        found[root.id] = [((), (root,), ())]
    for enter_once in (True, False):
        if not pending:
            break
        near: Set[int] = set()
        if enter_once and root.id in pending:
            pending.discard(root.id)
            near.add(root.id)
        root_key = root.id if enter_once else (root.id, 0)
        # key -> [(parent key, parent node, relationship)], one entry
        # per walk step of minimal depth into that key.
        parents: Dict[Any, List[tuple]] = {root_key: []}
        frontier = [(root_key, root)]
        depth = 0
        while frontier and pending and depth < max_depth:
            depth += 1
            entered: Dict[Any, Node] = {}
            for key, node in frontier:
                for rel, nxt in expand(node.id, direction, types):
                    if rel.id in used or (accept is not None and not accept(rel)):
                        continue
                    tally[0] += 1
                    nxt_key = nxt.id if enter_once else (nxt.id, depth)
                    if nxt_key in entered:
                        parents[nxt_key].append((key, node, rel))
                    elif nxt_key not in parents:
                        entered[nxt_key] = nxt
                        parents[nxt_key] = [(key, node, rel)]
            frontier = list(entered.items())
            for target_id in list(pending):
                key = target_id if enter_once else (target_id, depth)
                if key not in entered:
                    continue
                if depth < low:
                    if enter_once:
                        pending.discard(target_id)
                        near.add(target_id)
                    continue
                trails = _trails(parents, key, entered[key], rooted_at_end)
                if trails:
                    pending.discard(target_id)
                    found[target_id] = trails
        pending = near
    return found


def _trails(parents: Dict[Any, List[tuple]], key: Any, target: Node,
            rooted_at_end: bool) -> List[Walk]:
    """The relationship-unique walks from the search root to ``key``,
    read backward off the BFS ``parents``, in source orientation,
    ordered by relationship-id sequence."""
    walks: List[Walk] = []
    # (key, nodes, relationships, relationship ids), target first.
    stack = [(key, (target,), (), ())]
    while stack:
        key, nodes, rels, ids = stack.pop()
        steps = parents[key]
        if not steps:  # the root: only it was entered by no step
            if not rooted_at_end:
                nodes, rels, ids = nodes[::-1], rels[::-1], ids[::-1]
            walks.append((ids, nodes, rels))
            continue
        for parent_key, parent, rel in steps:
            if rel.id not in ids:
                stack.append((
                    parent_key, nodes + (parent,), rels + (rel,),
                    ids + (rel.id,),
                ))
    # The deterministic pick: smallest relationship-id sequence as
    # the pattern is written, whichever end the search started from.
    walks.sort(key=lambda walk: walk[0])
    return walks
