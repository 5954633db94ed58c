"""Unit tests for the core-Cypher parser (Figure 3 conformance)."""

import pytest

from repro.cypher import ast
from repro.cypher.parser import parse_cypher, parse_cypher_expression
from repro.errors import CypherSyntaxError


def single(query_text):
    query = parse_cypher(query_text)
    assert len(query.parts) == 1
    return query.parts[0]


class TestNodePatterns:
    def test_bare_node(self):
        clause = single("MATCH () RETURN 1").clauses[0]
        node = clause.pattern.paths[0].nodes[0]
        assert node.variable is None and node.labels == ()

    def test_variable_and_labels(self):
        clause = single("MATCH (n:Person:Admin) RETURN n").clauses[0]
        node = clause.pattern.paths[0].nodes[0]
        assert node.variable == "n"
        assert node.labels == ("Person", "Admin")

    def test_properties(self):
        clause = single("MATCH (n {name: 'x', age: 3}) RETURN n").clauses[0]
        node = clause.pattern.paths[0].nodes[0]
        assert dict(node.properties).keys() == {"name", "age"}

    def test_missing_close_paren(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher("MATCH (n RETURN n")


class TestRelationshipPatterns:
    @pytest.mark.parametrize(
        "arrow,direction",
        [
            ("-[r:T]->", ast.Direction.OUT),
            ("<-[r:T]-", ast.Direction.IN),
            ("-[r:T]-", ast.Direction.BOTH),
        ],
    )
    def test_directions(self, arrow, direction):
        clause = single(f"MATCH (a){arrow}(b) RETURN a").clauses[0]
        rel = clause.pattern.paths[0].relationships[0]
        assert rel.direction is direction
        assert rel.variable == "r" and rel.types == ("T",)

    def test_bare_arrows(self):
        clause = single("MATCH (a)-->(b)<--(c)--(d) RETURN a").clauses[0]
        rels = clause.pattern.paths[0].relationships
        assert [rel.direction for rel in rels] == [
            ast.Direction.OUT, ast.Direction.IN, ast.Direction.BOTH,
        ]

    def test_type_disjunction(self):
        clause = single("MATCH (a)-[:returnedAt|rentedAt]->(b) RETURN a").clauses[0]
        rel = clause.pattern.paths[0].relationships[0]
        assert rel.types == ("returnedAt", "rentedAt")

    @pytest.mark.parametrize(
        "spec,bounds",
        [
            ("*", (None, None)),
            ("*3..", (3, None)),
            ("*..5", (None, 5)),
            ("*2..4", (2, 4)),
            ("*2", (2, 2)),
        ],
    )
    def test_var_length_bounds(self, spec, bounds):
        clause = single(f"MATCH (a)-[{spec}]->(b) RETURN a").clauses[0]
        rel = clause.pattern.paths[0].relationships[0]
        assert rel.var_length == bounds

    def test_relationship_properties(self):
        clause = single("MATCH (a)-[r:T {w: 2}]->(b) RETURN r").clauses[0]
        rel = clause.pattern.paths[0].relationships[0]
        assert dict(rel.properties).keys() == {"w"}

    def test_double_arrow_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher("MATCH (a)<-[r]->(b) RETURN a")


class TestPathPatterns:
    def test_path_variable(self):
        clause = single("MATCH q = (a)-[*3..]-(b) RETURN q").clauses[0]
        assert clause.pattern.paths[0].variable == "q"

    def test_comma_separated_paths(self):
        clause = single("MATCH (a)-->(b), (b)-->(c) RETURN a").clauses[0]
        assert len(clause.pattern.paths) == 2

    def test_shortest_path(self):
        clause = single(
            "MATCH p = shortestPath((a)-[:T*..5]->(b)) RETURN p"
        ).clauses[0]
        path = clause.pattern.paths[0]
        assert path.shortest == "shortestPath"
        assert path.variable == "p"

    def test_all_shortest_paths(self):
        clause = single(
            "MATCH allShortestPaths((a)-[*]-(b)) RETURN 1"
        ).clauses[0]
        assert clause.pattern.paths[0].shortest == "allShortestPaths"

    def test_free_variables(self):
        clause = single("MATCH q = (a)-[r]->(b) RETURN 1").clauses[0]
        assert set(clause.pattern.free_variables()) == {"a", "r", "b", "q"}


class TestClauses:
    def test_match_where(self):
        clause = single("MATCH (n) WHERE n.x > 1 RETURN n").clauses[0]
        assert clause.where is not None

    def test_optional_match(self):
        clause = single("OPTIONAL MATCH (n)-->(m) RETURN m").clauses[0]
        assert clause.optional

    def test_unwind(self):
        clause = single("UNWIND [1,2] AS x RETURN x").clauses[0]
        assert isinstance(clause, ast.Unwind) and clause.alias == "x"

    def test_with_projection(self):
        clause = single("MATCH (n) WITH n.x AS x WHERE x > 0 RETURN x").clauses[1]
        assert isinstance(clause, ast.With)
        assert clause.items[0].alias == "x"
        assert clause.where is not None

    def test_with_star(self):
        clause = single("MATCH (n) WITH * RETURN n").clauses[1]
        assert clause.star

    def test_return_modifiers(self):
        ret = single(
            "MATCH (n) RETURN DISTINCT n.x AS x ORDER BY x DESC SKIP 1 LIMIT 2"
        ).clauses[-1]
        assert ret.distinct
        assert ret.order_by[0].descending
        assert ret.skip is not None and ret.limit is not None

    def test_order_by_multiple(self):
        ret = single("MATCH (n) RETURN n.x AS x ORDER BY x ASC, n.y DESC").clauses[-1]
        assert len(ret.order_by) == 2
        assert not ret.order_by[0].descending
        assert ret.order_by[1].descending

    def test_union_and_union_all(self):
        query = parse_cypher("RETURN 1 AS x UNION RETURN 2 AS x UNION ALL RETURN 3 AS x")
        assert len(query.parts) == 3
        assert query.union_all == (False, True)

    def test_query_must_not_be_empty(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher("RETURN 1 garbage")

    def test_trailing_semicolon_ok(self):
        parse_cypher("RETURN 1;")


class TestExpressions:
    def test_precedence_or_and(self):
        expression = parse_cypher_expression("true OR false AND false")
        assert isinstance(expression, ast.Or)

    def test_precedence_arithmetic(self):
        expression = parse_cypher_expression("1 + 2 * 3")
        assert isinstance(expression, ast.BinaryOp) and expression.op == "+"

    def test_chained_comparison(self):
        expression = parse_cypher_expression("1 <= x < 10")
        assert isinstance(expression, ast.Comparison)
        assert [op for op, _ in expression.rest] == ["<=", "<"]

    def test_unary_minus_vs_pattern_dash(self):
        expression = parse_cypher_expression("a < -1")
        assert isinstance(expression, ast.Comparison)

    def test_is_null(self):
        expression = parse_cypher_expression("x.y IS NOT NULL")
        assert isinstance(expression, ast.IsNull) and expression.negated

    def test_in_list(self):
        expression = parse_cypher_expression("'Station' IN labels(n)")
        assert isinstance(expression, ast.InList)

    def test_string_predicates(self):
        for text, kind in [
            ("a STARTS WITH 'x'", "STARTS WITH"),
            ("a ENDS WITH 'x'", "ENDS WITH"),
            ("a CONTAINS 'x'", "CONTAINS"),
            ("a =~ 'x.*'", "=~"),
        ]:
            expression = parse_cypher_expression(text)
            assert isinstance(expression, ast.StringPredicate)
            assert expression.kind == kind

    def test_list_comprehension_full(self):
        expression = parse_cypher_expression(
            "[n IN nodes(q) WHERE 'Station' IN labels(n) | n.id]"
        )
        assert isinstance(expression, ast.ListComprehension)
        assert expression.predicate is not None
        assert expression.projection is not None

    def test_list_comprehension_projection_only(self):
        expression = parse_cypher_expression("[x IN xs | x + 1]")
        assert expression.predicate is None and expression.projection is not None

    def test_list_literal(self):
        expression = parse_cypher_expression("[1, 2, 3]")
        assert isinstance(expression, ast.ListLiteral)

    def test_quantifiers(self):
        for kind in ("ALL", "ANY", "NONE", "SINGLE"):
            expression = parse_cypher_expression(
                f"{kind}(e IN rels WHERE e.x = 1)"
            )
            assert isinstance(expression, ast.Quantifier)
            assert expression.kind == kind

    def test_case_searched(self):
        expression = parse_cypher_expression(
            "CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END"
        )
        assert isinstance(expression, ast.CaseExpression)
        assert expression.operand is None

    def test_case_simple(self):
        expression = parse_cypher_expression("CASE x WHEN 1 THEN 'one' END")
        assert expression.operand is not None

    def test_case_requires_when(self):
        with pytest.raises(CypherSyntaxError):
            parse_cypher_expression("CASE ELSE 1 END")

    def test_count_star(self):
        assert isinstance(parse_cypher_expression("count(*)"), ast.CountStar)

    def test_function_distinct(self):
        expression = parse_cypher_expression("count(DISTINCT x)")
        assert expression.distinct

    def test_index_and_slice(self):
        assert isinstance(parse_cypher_expression("xs[0]"), ast.Index)
        assert isinstance(parse_cypher_expression("xs[1..2]"), ast.Slice)
        assert isinstance(parse_cypher_expression("xs[..2]"), ast.Slice)
        assert isinstance(parse_cypher_expression("xs[1..]"), ast.Slice)

    def test_map_literal(self):
        expression = parse_cypher_expression("{a: 1, b: 'x'}")
        assert isinstance(expression, ast.MapLiteral)

    def test_property_chain(self):
        expression = parse_cypher_expression("a.b.c")
        assert isinstance(expression, ast.PropertyAccess)
        assert expression.key == "c"

    def test_parameter(self):
        assert isinstance(parse_cypher_expression("$win_start"), ast.Parameter)

    def test_pattern_predicate_in_where(self):
        clause = single("MATCH (a) WHERE (a)-[:KNOWS]->() RETURN a").clauses[0]
        assert isinstance(clause.where, ast.PatternPredicate)

    def test_exists_with_pattern(self):
        expression = parse_cypher_expression("EXISTS((a)-[:R]->(b))")
        assert isinstance(expression, ast.PatternPredicate)

    def test_exists_with_property(self):
        expression = parse_cypher_expression("EXISTS(a.name)")
        assert isinstance(expression, ast.FunctionCall)
        assert expression.name == "exists"

    def test_power_right_associative(self):
        expression = parse_cypher_expression("2 ^ 3 ^ 2")
        assert expression.op == "^"
        assert isinstance(expression.right, ast.BinaryOp)


class TestListing1Parses:
    def test_running_example_cypher(self):
        from repro.usecases.micromobility import LISTING1_CYPHER

        query = parse_cypher(LISTING1_CYPHER)
        match = query.parts[0].clauses[0]
        assert isinstance(match, ast.Match)
        assert len(match.pattern.paths) == 2
        var_length = match.pattern.paths[1].relationships[0]
        assert var_length.var_length == (3, None)
        assert var_length.types == ("returnedAt", "rentedAt")


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (n:Person) WHERE n.age > 30 RETURN n.name AS name",
            "MATCH (a)-[r:T*2..4]->(b) RETURN r",
            "UNWIND [1, 2] AS x RETURN x ORDER BY x DESC SKIP 1 LIMIT 1",
            "MATCH (a) WITH DISTINCT a.x AS x WHERE x > 0 RETURN collect(x) AS xs",
            "RETURN 1 AS x UNION ALL RETURN 2 AS x",
            "MATCH p = shortestPath((a)-[:T*..5]->(b)) RETURN length(p) AS l",
        ],
    )
    def test_render_round_trip(self, text):
        first = parse_cypher(text)
        second = parse_cypher(first.render())
        assert first == second


class TestNestingLimit:
    """Deep nesting is a typed syntax error, never a ``RecursionError``."""

    @pytest.mark.parametrize("text", [
        "RETURN " + "(" * 120 + "1" + ")" * 120,
        "RETURN " + "[" * 80 + "1" + "]" * 80,
        "RETURN " + "{a: " * 80 + "1" + "}" * 80,
        "RETURN " + "NOT " * 400 + "true",
        "RETURN " + "- " * 400 + "1",
        "RETURN " + "2 ^ " * 400 + "2",
        "MATCH (a {k: " + "(" * 60 + "1" + ")" * 60 + "}) RETURN a",
        "MATCH (a) WHERE " + "(a)-[{k: " * 60 + "1" + "}]->()" * 60
        + " RETURN a",
    ])
    def test_too_deep_is_a_syntax_error_with_its_position(self, text):
        with pytest.raises(CypherSyntaxError, match="nesting too deep") as info:
            parse_cypher(text)
        assert info.value.line == 1 and info.value.column > 1

    def test_the_limit_itself_still_parses(self):
        from repro.cypher.parser import MAX_NESTING

        depth = MAX_NESTING - 1  # the RETURN item is the first level
        parse_cypher("RETURN " + "(" * depth + "1" + ")" * depth)
        parse_cypher("RETURN " + "[" * depth + "1" + "]" * depth)
        with pytest.raises(CypherSyntaxError):
            parse_cypher("RETURN " + "(" * (depth + 1) + "1" + ")" * (depth + 1))

    def test_a_registered_query_is_limited_too(self):
        from repro.seraph.parser import parse_seraph
        from repro.usecases.micromobility import LISTING5_SERAPH

        deep = "(" * 120 + "1" + ")" * 120
        with pytest.raises(CypherSyntaxError, match="nesting too deep"):
            parse_seraph(LISTING5_SERAPH.replace("EMIT ", f"EMIT {deep} AS d, ", 1))

    def test_backtracking_parses_each_nested_pattern_once(self, monkeypatch):
        # A syntax error under nested pattern predicates used to make every
        # enclosing level re-parse its subtree: 2^depth attempts.
        from repro.cypher.parser import CypherParser

        attempts = []
        original = CypherParser._parse_anonymous_path

        def counted(self):
            attempts.append(self.pos)
            return original(self)

        monkeypatch.setattr(CypherParser, "_parse_anonymous_path", counted)
        depth = 14
        with pytest.raises(CypherSyntaxError):
            parse_cypher("MATCH (a) WHERE " + "(a)-[{k: " * depth + "1 +"
                         + "}]->()" * depth + " RETURN a")
        assert len(attempts) == len(set(attempts)) <= 2 * depth
