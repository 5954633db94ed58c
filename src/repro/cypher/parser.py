"""Recursive-descent parser for the core Cypher grammar (Figure 3).

The Seraph parser (:mod:`repro.seraph.parser`) subclasses
:class:`CypherParser` and reuses all expression/pattern/clause machinery,
mirroring how the language in the paper "compositionally enriches" Cypher.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cypher import ast
from repro.cypher.lexer import tokenize
from repro.cypher.tokens import Token, TokenKind
from repro.errors import CypherSyntaxError

_COMPARISON_OPS = {
    TokenKind.EQ: "=",
    TokenKind.NEQ: "<>",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.LE: "<=",
    TokenKind.GE: ">=",
}

_QUANTIFIERS = ("ALL", "ANY", "NONE", "SINGLE")

_SHORTEST_FUNCTIONS = {"shortestpath": "shortestPath",
                       "allshortestpaths": "allShortestPaths"}

#: How deep expressions may nest (parentheses, list and map literals,
#: property maps, prefix operators).  A level costs the recursive descent
#: up to ~16 frames: 32 stay well inside the interpreter's recursion limit.
MAX_NESTING = 32


class CypherParser:
    """Parses one token stream into a :class:`repro.cypher.ast.Query`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.too_deep = False
        #: start position -> (pattern, end position), or None: no
        #: relationship pattern starts there (see :meth:`_try_pattern`).
        self.patterns: Dict[int, Optional[Tuple[ast.PathPattern, int]]] = {}

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _match_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise self._error(f"expected {kind.value} {context}, got {token.text!r}")
        return self._advance()

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}, got {token.text or token.kind.value!r}")
        return self._advance()

    def _error(self, message: str) -> CypherSyntaxError:
        token = self._peek()
        return CypherSyntaxError(message, token.line, token.column)

    def _nested(self, parse: Callable[[], ast.Expression]) -> ast.Expression:
        """``parse()`` one nesting level deeper (see :data:`MAX_NESTING`)."""
        if self.nesting == MAX_NESTING:
            self.too_deep = True  # no backtracking past this error
            raise self._error("nesting too deep")
        self.nesting += 1
        try:
            return parse()
        finally:
            self.nesting -= 1

    def _name_token(self, context: str) -> str:
        """An identifier, allowing non-reserved use of keywords as names."""
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            self._advance()
            return token.value
        if token.kind is TokenKind.KEYWORD:
            self._advance()
            return token.value  # original spelling, not the uppercased form
        raise self._error(f"expected a name {context}, got {token.text!r}")

    # -- entry points ---------------------------------------------------------

    def parse_query(self) -> ast.Query:
        """Parse a complete query (with UNION) and require EOF."""
        query = self.parse_query_body()
        self._match(TokenKind.SEMICOLON)
        if not self._check(TokenKind.EOF):
            raise self._error(f"unexpected trailing input {self._peek().text!r}")
        return query

    def parse_query_body(self) -> ast.Query:
        parts = [self.parse_single_query()]
        union_all: List[bool] = []
        while self._match_keyword("UNION"):
            union_all.append(self._match_keyword("ALL") is not None)
            parts.append(self.parse_single_query())
        return ast.Query(parts=tuple(parts), union_all=tuple(union_all))

    def parse_single_query(self) -> ast.SingleQuery:
        parsers = {
            "MATCH": self.parse_match, "OPTIONAL": self.parse_match,
            "UNWIND": self.parse_unwind, "WITH": self.parse_with,
            "CREATE": self.parse_create, "MERGE": self.parse_merge,
            "SET": self.parse_set, "DELETE": self.parse_delete,
            "DETACH": self.parse_delete, "REMOVE": self.parse_remove,
            "RETURN": self.parse_return,
        }
        clauses: List[ast.Clause] = []
        # Clauses up to the first RETURN, or to a token that starts none.
        while not clauses or not isinstance(clauses[-1], ast.Return):
            token = self._peek()
            if token.kind is not TokenKind.KEYWORD or token.text not in parsers:
                break
            clauses.append(parsers[token.text]())
        if not clauses:
            raise self._error("expected a query clause")
        # A read query must end in RETURN; update queries may omit it.
        if not isinstance(clauses[-1], ast.Return) and not any(
            isinstance(clause, ast.WRITE_CLAUSES) for clause in clauses
        ):
            raise self._error("a read query must end with RETURN")
        return ast.SingleQuery(clauses=tuple(clauses))

    # -- write clauses -----------------------------------------------------------

    def parse_create(self) -> ast.Create:
        self._expect_keyword("CREATE")
        return ast.Create(pattern=self.parse_pattern())

    def parse_merge(self) -> ast.Merge:
        self._expect_keyword("MERGE")
        path = self.parse_path_pattern()
        on_create: List[object] = []
        on_match: List[object] = []
        while self._peek().is_keyword("ON"):
            self._advance()
            token = self._peek()
            if token.is_keyword("CREATE"):
                self._advance()
                self._expect_keyword("SET")
                on_create.extend(self._parse_set_items())
            elif token.is_keyword("MATCH"):
                self._advance()
                self._expect_keyword("SET")
                on_match.extend(self._parse_set_items())
            else:
                raise self._error("expected CREATE or MATCH after ON")
        return ast.Merge(
            path=path, on_create=tuple(on_create), on_match=tuple(on_match)
        )

    def parse_set(self) -> ast.SetClause:
        self._expect_keyword("SET")
        return ast.SetClause(items=tuple(self._parse_set_items()))

    def _parse_set_items(self) -> List[object]:
        items: List[object] = [self._parse_set_item()]
        while self._match(TokenKind.COMMA):
            items.append(self._parse_set_item())
        return items

    def _parse_set_item(self) -> object:
        # variable:Label / variable = map / variable += map / expr.key = v
        if self._peek().kind is TokenKind.IDENT:
            if self._peek(1).kind is TokenKind.COLON:
                variable = self._advance().value
                labels = []
                while self._match(TokenKind.COLON):
                    labels.append(self._name_token("as a label"))
                return ast.SetLabels(variable=variable, labels=tuple(labels))
            if self._peek(1).kind is TokenKind.EQ:
                variable = self._advance().value
                self._advance()
                return ast.SetFromMap(
                    variable=variable,
                    source=self.parse_expression(),
                    additive=False,
                )
            if (
                self._peek(1).kind is TokenKind.PLUS
                and self._peek(2).kind is TokenKind.EQ
            ):
                variable = self._advance().value
                self._advance()
                self._advance()
                return ast.SetFromMap(
                    variable=variable,
                    source=self.parse_expression(),
                    additive=True,
                )
        target = self._parse_postfix()
        if not isinstance(target, ast.PropertyAccess):
            raise self._error("SET expects 'entity.property = value'")
        self._expect(TokenKind.EQ, "in SET item")
        return ast.SetProperty(
            target=target.subject, key=target.key, value=self.parse_expression()
        )

    def parse_delete(self) -> ast.Delete:
        detach = self._match_keyword("DETACH") is not None
        self._expect_keyword("DELETE")
        targets = [self.parse_expression()]
        while self._match(TokenKind.COMMA):
            targets.append(self.parse_expression())
        return ast.Delete(targets=tuple(targets), detach=detach)

    def parse_remove(self) -> ast.Remove:
        self._expect_keyword("REMOVE")
        items: List[object] = [self._parse_remove_item()]
        while self._match(TokenKind.COMMA):
            items.append(self._parse_remove_item())
        return ast.Remove(items=tuple(items))

    def _parse_remove_item(self) -> object:
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).kind is TokenKind.COLON
        ):
            variable = self._advance().value
            labels = []
            while self._match(TokenKind.COLON):
                labels.append(self._name_token("as a label"))
            return ast.RemoveLabels(variable=variable, labels=tuple(labels))
        target = self._parse_postfix()
        if not isinstance(target, ast.PropertyAccess):
            raise self._error("REMOVE expects 'entity.property' or 'n:Label'")
        return ast.RemoveProperty(target=target.subject, key=target.key)

    # -- clauses ------------------------------------------------------------------

    def parse_match(self) -> ast.Match:
        optional = self._match_keyword("OPTIONAL") is not None
        self._expect_keyword("MATCH")
        pattern = self.parse_pattern()
        where = self._parse_optional_where()
        return ast.Match(pattern=pattern, optional=optional, where=where)

    def _parse_optional_where(self) -> Optional[ast.Expression]:
        if self._match_keyword("WHERE"):
            return self.parse_expression()
        return None

    def parse_unwind(self) -> ast.Unwind:
        self._expect_keyword("UNWIND")
        source = self.parse_expression()
        self._expect_keyword("AS")
        alias = self._name_token("after AS")
        return ast.Unwind(source=source, alias=alias)

    def _parse_projection_body(
        self,
    ) -> Tuple[Tuple[ast.ProjectionItem, ...], bool, bool,
               Tuple[ast.OrderItem, ...], Optional[ast.Expression],
               Optional[ast.Expression]]:
        distinct = self._match_keyword("DISTINCT") is not None
        star = False
        items: List[ast.ProjectionItem] = []
        if self._check(TokenKind.STAR):
            self._advance()
            star = True
            while self._match(TokenKind.COMMA):
                items.append(self._parse_projection_item())
        else:
            items.append(self._parse_projection_item())
            while self._match(TokenKind.COMMA):
                items.append(self._parse_projection_item())
        order_by: List[ast.OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match(TokenKind.COMMA):
                order_by.append(self._parse_order_item())
        skip = self.parse_expression() if self._match_keyword("SKIP") else None
        limit = self.parse_expression() if self._match_keyword("LIMIT") else None
        return tuple(items), distinct, star, tuple(order_by), skip, limit

    def _parse_projection_item(self) -> ast.ProjectionItem:
        expression = self.parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._name_token("after AS")
        return ast.ProjectionItem(expression=expression, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        descending = False
        if self._match_keyword("DESC", "DESCENDING"):
            descending = True
        else:
            self._match_keyword("ASC", "ASCENDING")
        return ast.OrderItem(expression=expression, descending=descending)

    def parse_with(self) -> ast.With:
        self._expect_keyword("WITH")
        items, distinct, star, order_by, skip, limit = self._parse_projection_body()
        where = self._parse_optional_where()
        return ast.With(
            items=items,
            distinct=distinct,
            star=star,
            order_by=order_by,
            skip=skip,
            limit=limit,
            where=where,
        )

    def parse_return(self) -> ast.Return:
        self._expect_keyword("RETURN")
        items, distinct, star, order_by, skip, limit = self._parse_projection_body()
        return ast.Return(
            items=items,
            distinct=distinct,
            star=star,
            order_by=order_by,
            skip=skip,
            limit=limit,
        )

    # -- patterns -------------------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        paths = [self.parse_path_pattern()]
        while self._match(TokenKind.COMMA):
            paths.append(self.parse_path_pattern())
        return ast.Pattern(paths=tuple(paths))

    def parse_path_pattern(self) -> ast.PathPattern:
        variable: Optional[str] = None
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).kind is TokenKind.EQ
            and self._peek(0).value.lower() not in _SHORTEST_FUNCTIONS
        ):
            variable = self._advance().value
            self._advance()  # '='
        shortest: Optional[str] = None
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek().value.lower() in _SHORTEST_FUNCTIONS
            and self._peek(1).kind is TokenKind.LPAREN
        ):
            shortest = _SHORTEST_FUNCTIONS[self._advance().value.lower()]
            self._expect(TokenKind.LPAREN, "after shortestPath")
        inner = self._parse_anonymous_path()
        if shortest is not None:
            self._expect(TokenKind.RPAREN, "closing shortestPath")
        return ast.PathPattern(
            nodes=inner.nodes,
            relationships=inner.relationships,
            variable=variable,
            shortest=shortest,
        )

    def _parse_anonymous_path(self) -> ast.PathPattern:
        nodes = [self.parse_node_pattern()]
        relationships: List[ast.RelationshipPattern] = []
        while self._check(TokenKind.MINUS) or self._check(TokenKind.LT):
            relationships.append(self.parse_relationship_pattern())
            nodes.append(self.parse_node_pattern())
        return ast.PathPattern(nodes=tuple(nodes), relationships=tuple(relationships))

    def parse_node_pattern(self) -> ast.NodePattern:
        self._expect(TokenKind.LPAREN, "to start a node pattern")
        variable = None
        if self._check(TokenKind.IDENT):
            variable = self._advance().value
        labels: List[str] = []
        while self._match(TokenKind.COLON):
            labels.append(self._name_token("as a node label"))
        properties = ()
        if self._check(TokenKind.LBRACE):
            properties = self._parse_property_map()
        self._expect(TokenKind.RPAREN, "to close the node pattern")
        return ast.NodePattern(
            variable=variable, labels=tuple(labels), properties=properties
        )

    def parse_relationship_pattern(self) -> ast.RelationshipPattern:
        left_arrow = False
        if self._match(TokenKind.LT):
            left_arrow = True
        self._expect(TokenKind.MINUS, "in a relationship pattern")
        variable = None
        types: Tuple[str, ...] = ()
        var_length = None
        properties: Tuple[Tuple[str, ast.Expression], ...] = ()
        if self._match(TokenKind.LBRACKET):
            if self._check(TokenKind.IDENT):
                variable = self._advance().value
            if self._match(TokenKind.COLON):
                type_names = [self._name_token("as a relationship type")]
                while self._match(TokenKind.PIPE):
                    self._match(TokenKind.COLON)  # tolerate the |:T variant
                    type_names.append(self._name_token("as a relationship type"))
                types = tuple(type_names)
            if self._match(TokenKind.STAR):
                var_length = self._parse_var_length_bounds()
            if self._check(TokenKind.LBRACE):
                properties = self._parse_property_map()
            self._expect(TokenKind.RBRACKET, "to close the relationship detail")
        self._expect(TokenKind.MINUS, "in a relationship pattern")
        right_arrow = self._match(TokenKind.GT) is not None
        if left_arrow and right_arrow:
            raise self._error("a relationship pattern cannot point both ways")
        if left_arrow:
            direction = ast.Direction.IN
        elif right_arrow:
            direction = ast.Direction.OUT
        else:
            direction = ast.Direction.BOTH
        return ast.RelationshipPattern(
            variable=variable,
            types=types,
            direction=direction,
            var_length=var_length,
            properties=properties,
        )

    def _parse_var_length_bounds(
        self,
    ) -> Tuple[Optional[int], Optional[int]]:
        low: Optional[int] = None
        high: Optional[int] = None
        if self._check(TokenKind.INTEGER):
            low = self._advance().value
            if self._match(TokenKind.DOTDOT):
                if self._check(TokenKind.INTEGER):
                    high = self._advance().value
            else:
                high = low  # '*n' means exactly n
        elif self._match(TokenKind.DOTDOT):
            if self._check(TokenKind.INTEGER):
                high = self._advance().value
        return (low, high)

    def _parse_property_map(self) -> Tuple[Tuple[str, ast.Expression], ...]:
        self._expect(TokenKind.LBRACE, "to start a property map")
        entries: List[Tuple[str, ast.Expression]] = []
        if not self._check(TokenKind.RBRACE):
            while True:
                key = self._parse_map_key()
                self._expect(TokenKind.COLON, "after map key")
                entries.append((key, self.parse_expression()))
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RBRACE, "to close the property map")
        return tuple(entries)

    def _parse_map_key(self) -> str:
        token = self._peek()
        if token.kind is TokenKind.STRING:
            self._advance()
            return token.value
        return self._name_token("as a map key")

    # -- expressions ----------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self._nested(self._parse_or)

    def _parse_or(self) -> ast.Expression:
        left = self._parse_xor()
        while self._match_keyword("OR"):
            left = ast.Or(left=left, right=self._parse_xor())
        return left

    def _parse_xor(self) -> ast.Expression:
        left = self._parse_and()
        while self._match_keyword("XOR"):
            left = ast.Xor(left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = ast.And(left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._match_keyword("NOT"):
            return ast.Not(operand=self._nested(self._parse_not))
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_predicated()
        chain: List[Tuple[str, ast.Expression]] = []
        while self._peek().kind in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self._advance().kind]
            chain.append((op, self._parse_predicated()))
        if chain:
            return ast.Comparison(first=left, rest=tuple(chain))
        return left

    def _parse_predicated(self) -> ast.Expression:
        """Additive expression followed by postfix predicates
        (IS NULL / IN / STARTS WITH / ENDS WITH / CONTAINS / =~)."""
        expression = self._parse_additive()
        while True:
            token = self._peek()
            if token.is_keyword("IS"):
                self._advance()
                negated = self._match_keyword("NOT") is not None
                self._expect_keyword("NULL")
                expression = ast.IsNull(operand=expression, negated=negated)
            elif token.is_keyword("IN"):
                self._advance()
                expression = ast.InList(
                    item=expression, container=self._parse_additive()
                )
            elif token.is_keyword("STARTS"):
                self._advance()
                self._expect_keyword("WITH")
                expression = ast.StringPredicate(
                    kind="STARTS WITH", left=expression, right=self._parse_additive()
                )
            elif token.is_keyword("ENDS"):
                self._advance()
                self._expect_keyword("WITH")
                expression = ast.StringPredicate(
                    kind="ENDS WITH", left=expression, right=self._parse_additive()
                )
            elif token.is_keyword("CONTAINS"):
                self._advance()
                expression = ast.StringPredicate(
                    kind="CONTAINS", left=expression, right=self._parse_additive()
                )
            elif token.kind is TokenKind.REGEX_MATCH:
                self._advance()
                expression = ast.StringPredicate(
                    kind="=~", left=expression, right=self._parse_additive()
                )
            else:
                return expression

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            if self._match(TokenKind.PLUS):
                left = ast.BinaryOp(op="+", left=left,
                                    right=self._parse_multiplicative())
            elif self._match(TokenKind.MINUS):
                left = ast.BinaryOp(op="-", left=left,
                                    right=self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_power()
        while True:
            if self._match(TokenKind.STAR):
                left = ast.BinaryOp(op="*", left=left, right=self._parse_power())
            elif self._match(TokenKind.SLASH):
                left = ast.BinaryOp(op="/", left=left, right=self._parse_power())
            elif self._match(TokenKind.PERCENT):
                left = ast.BinaryOp(op="%", left=left, right=self._parse_power())
            else:
                return left

    def _parse_power(self) -> ast.Expression:
        left = self._parse_unary()
        if self._match(TokenKind.CARET):
            # right-associative
            return ast.BinaryOp(op="^", left=left,
                                right=self._nested(self._parse_power))
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._match(TokenKind.MINUS):
            return ast.UnaryOp(op="-", operand=self._nested(self._parse_unary))
        if self._match(TokenKind.PLUS):
            return ast.UnaryOp(op="+", operand=self._nested(self._parse_unary))
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_atom()
        while True:
            if self._check(TokenKind.DOT):
                self._advance()
                key = self._name_token("as a property key")
                expression = ast.PropertyAccess(subject=expression, key=key)
            elif self._check(TokenKind.LBRACKET):
                self._advance()
                lower: Optional[ast.Expression] = None
                upper: Optional[ast.Expression] = None
                if self._match(TokenKind.DOTDOT):
                    if not self._check(TokenKind.RBRACKET):
                        upper = self.parse_expression()
                    self._expect(TokenKind.RBRACKET, "to close the slice")
                    expression = ast.Slice(subject=expression, lower=None, upper=upper)
                    continue
                lower = self.parse_expression()
                if self._match(TokenKind.DOTDOT):
                    if not self._check(TokenKind.RBRACKET):
                        upper = self.parse_expression()
                    self._expect(TokenKind.RBRACKET, "to close the slice")
                    expression = ast.Slice(subject=expression, lower=lower, upper=upper)
                else:
                    self._expect(TokenKind.RBRACKET, "to close the index")
                    expression = ast.Index(subject=expression, index=lower)
            else:
                return expression

    def _parse_atom(self) -> ast.Expression:
        token = self._peek()

        if token.kind is TokenKind.INTEGER or token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.Literal(value=token.value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(value=token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(value=True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(value=False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(value=None)
        if token.kind is TokenKind.PARAMETER:
            self._advance()
            return ast.Parameter(name=token.value)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword(*_QUANTIFIERS):
            return self._parse_quantifier()
        if token.is_keyword("EXISTS"):
            return self._parse_exists()
        if token.kind is TokenKind.LBRACKET:
            return self._parse_list_atom()
        if token.kind is TokenKind.LBRACE:
            entries = self._parse_property_map()
            return ast.MapLiteral(entries=entries)
        if token.kind is TokenKind.LPAREN:
            return self._parse_paren_or_pattern()
        if token.kind is TokenKind.IDENT:
            if self._peek(1).kind is TokenKind.LPAREN:
                return self._parse_function_or_pattern()
            self._advance()
            return ast.Variable(name=token.value)
        raise self._error(f"unexpected token {token.text or token.kind.value!r}")

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        operand = None
        if not self._peek().is_keyword("WHEN"):
            operand = self.parse_expression()
        alternatives: List[Tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            when = self.parse_expression()
            self._expect_keyword("THEN")
            then = self.parse_expression()
            alternatives.append((when, then))
        if not alternatives:
            raise self._error("CASE requires at least one WHEN")
        default = None
        if self._match_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpression(
            operand=operand, alternatives=tuple(alternatives), default=default
        )

    def _parse_quantifier(self) -> ast.Expression:
        kind = self._advance().text  # ALL/ANY/NONE/SINGLE
        self._expect(TokenKind.LPAREN, f"after {kind}")
        variable = self._name_token(f"as the {kind} variable")
        self._expect_keyword("IN")
        source = self.parse_expression()
        self._expect_keyword("WHERE")
        predicate = self.parse_expression()
        self._expect(TokenKind.RPAREN, f"to close {kind}(...)")
        return ast.Quantifier(
            kind=kind, variable=variable, source=source, predicate=predicate
        )

    def _parse_exists(self) -> ast.Expression:
        self._expect_keyword("EXISTS")
        self._expect(TokenKind.LPAREN, "after EXISTS")
        saved = self.pos
        pattern = self._try_pattern()
        if pattern is not None and self._match(TokenKind.RPAREN):
            return ast.PatternPredicate(
                pattern=ast.PathPattern(
                    nodes=pattern.nodes, relationships=pattern.relationships
                )
            )
        self.pos = saved
        expression = self.parse_expression()
        self._expect(TokenKind.RPAREN, "to close EXISTS(...)")
        return ast.FunctionCall(name="exists", args=(expression,))

    def _parse_list_atom(self) -> ast.Expression:
        """A list literal or a list comprehension."""
        self._expect(TokenKind.LBRACKET, "to start a list")
        # Lookahead for `ident IN`: a comprehension.
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).is_keyword("IN")
        ):
            variable = self._advance().value
            self._advance()  # IN
            source = self.parse_expression()
            predicate = None
            projection = None
            if self._match_keyword("WHERE"):
                predicate = self.parse_expression()
            if self._match(TokenKind.PIPE):
                projection = self.parse_expression()
            self._expect(TokenKind.RBRACKET, "to close the list comprehension")
            return ast.ListComprehension(
                variable=variable,
                source=source,
                predicate=predicate,
                projection=projection,
            )
        items: List[ast.Expression] = []
        if not self._check(TokenKind.RBRACKET):
            items.append(self.parse_expression())
            while self._match(TokenKind.COMMA):
                items.append(self.parse_expression())
        self._expect(TokenKind.RBRACKET, "to close the list")
        return ast.ListLiteral(items=tuple(items))

    def _parse_function_or_pattern(self) -> ast.Expression:
        """An identifier followed by '(' — function call, count(*), or a
        pattern predicate starting with a bare node like (a)-[...]->(b)."""
        name_token = self._advance()
        name = name_token.value
        self._expect(TokenKind.LPAREN, "after function name")
        if name.lower() == "count" and self._check(TokenKind.STAR):
            self._advance()
            self._expect(TokenKind.RPAREN, "to close count(*)")
            return ast.CountStar()
        distinct = self._match_keyword("DISTINCT") is not None
        args: List[ast.Expression] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self.parse_expression())
            while self._match(TokenKind.COMMA):
                args.append(self.parse_expression())
        self._expect(TokenKind.RPAREN, "to close the argument list")
        return ast.FunctionCall(name=name.lower(), args=tuple(args),
                                distinct=distinct)

    def _parse_paren_or_pattern(self) -> ast.Expression:
        """Disambiguate '(expr)' from a pattern predicate '(a)-[..]-(b)'."""
        pattern = self._try_pattern()
        if pattern is not None:
            return ast.PatternPredicate(pattern=pattern)
        self._expect(TokenKind.LPAREN, "to start a parenthesized expression")
        expression = self.parse_expression()
        self._expect(TokenKind.RPAREN, "to close the parenthesized expression")
        return expression

    def _try_pattern(self) -> Optional[ast.PathPattern]:
        """The relationship pattern starting here, or ``None`` with the
        position unchanged.  Remembered per position, so backtracking out
        of nested pattern predicates parses each of them once, not once
        per enclosing attempt."""
        start = self.pos
        if start not in self.patterns:
            try:
                pattern = self._parse_anonymous_path()
                found = (pattern, self.pos) if pattern.relationships else None
            except CypherSyntaxError:
                if self.too_deep:
                    raise
                found = None
            self.patterns[start] = found
        pattern, self.pos = self.patterns[start] or (None, start)
        return pattern


def parse_cypher(text: str) -> ast.Query:
    """Parse a core-Cypher query string into an AST."""
    return CypherParser(text).parse_query()


def parse_cypher_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (testing and tooling helper)."""
    parser = CypherParser(text)
    expression = parser.parse_expression()
    if not parser._check(TokenKind.EOF):
        raise parser._error("unexpected trailing input")
    return expression
