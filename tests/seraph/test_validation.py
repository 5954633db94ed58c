"""Tests for registration-time semantic validation."""

import pytest

from repro.errors import SeraphSemanticError
from repro.seraph import SeraphEngine
from repro.seraph.validation import check, validate
from repro.usecases.micromobility import LISTING5_SERAPH
from repro.usecases.network import (
    anomalous_routes_query,
    anomalous_routes_query_data_driven,
)
from repro.usecases.pole import crime_suspects_query


def wrap(body, terminal="EMIT 1 AS one SNAPSHOT EVERY PT1M"):
    return (
        "REGISTER QUERY v STARTING AT 2022-08-01T10:00\n"
        f"{{ {body}\n{terminal} }}"
    )


class TestCleanQueries:
    @pytest.mark.parametrize(
        "text",
        [
            LISTING5_SERAPH,
            anomalous_routes_query(),
            anomalous_routes_query_data_driven(),
            crime_suspects_query(),
        ],
    )
    def test_paper_queries_validate_cleanly(self, text):
        assert validate(text) == []

    def test_win_bounds_implicitly_in_scope(self):
        assert validate(wrap(
            "MATCH (n) WITHIN PT1H",
            "EMIT win_end - win_start AS width SNAPSHOT EVERY PT1M",
        )) == []


    def test_order_by_after_with_sees_the_projected_names(self):
        """``WITH n.name AS name ORDER BY name`` used to be rejected as an
        undefined variable; the incoming names stay visible too."""
        assert validate(wrap(
            "MATCH (n) WITHIN PT1H WITH n.name AS name ORDER BY name, n.age",
            "EMIT collect(name) AS names SNAPSHOT EVERY PT1M",
        )) == []


class TestErrors:
    def test_undefined_variable_in_emit(self):
        with pytest.raises(SeraphSemanticError, match="ghost"):
            validate(wrap(
                "MATCH (n) WITHIN PT1H",
                "EMIT ghost SNAPSHOT EVERY PT1M",
            ))

    def test_undefined_variable_in_where(self):
        with pytest.raises(SeraphSemanticError, match="missing"):
            validate(wrap("MATCH (n) WITHIN PT1H WHERE n.x > missing"))

    def test_aggregate_in_where(self):
        with pytest.raises(SeraphSemanticError, match="aggregate"):
            validate(wrap("MATCH (n) WITHIN PT1H WHERE count(*) > 1"))

    def test_undefined_in_pattern_properties(self):
        with pytest.raises(SeraphSemanticError, match="who"):
            validate(wrap("MATCH (n {id: who}) WITHIN PT1H"))

    def test_engine_register_rejects_invalid(self):
        engine = SeraphEngine()
        with pytest.raises(SeraphSemanticError):
            engine.register(wrap(
                "MATCH (n) WITHIN PT1H",
                "EMIT ghost SNAPSHOT EVERY PT1M",
            ))

    def test_engine_register_can_skip_validation(self):
        engine = SeraphEngine()
        engine.register(
            wrap("MATCH (n) WITHIN PT1H",
                 "EMIT 1 AS one SNAPSHOT EVERY PT1M"),
            validate=False,
        )


class TestWarnings:
    def test_projected_away_variable_warns(self):
        warnings = validate(wrap(
            "MATCH (n) WITHIN PT1H WITH n.x AS x",
            "EMIT n SNAPSHOT EVERY PT1M",
        ))
        assert any("projected away" in str(w) for w in warnings)

    def test_gapped_window_warns(self):
        warnings = validate(wrap(
            "MATCH (n) WITHIN PT1M",
            "EMIT count(*) AS n SNAPSHOT EVERY PT10M",
        ))
        assert any("never evaluated" in str(w) for w in warnings)

    def test_warnings_available_on_handle(self):
        engine = SeraphEngine()
        handle = engine.register(wrap(
            "MATCH (n) WITHIN PT1M",
            "EMIT count(*) AS n SNAPSHOT EVERY PT10M",
        ))
        assert handle.warnings


class TestScopeTracking:
    def test_with_star_keeps_scope(self):
        assert validate(wrap(
            "MATCH (n) WITHIN PT1H WITH *, n.x AS x",
            "EMIT n, x SNAPSHOT EVERY PT1M",
        )) == []

    def test_unwind_binds_alias(self):
        assert validate(wrap(
            "MATCH (n) WITHIN PT1H UNWIND labels(n) AS label",
            "EMIT label, count(*) AS c SNAPSHOT EVERY PT1M",
        )) == []

    def test_quantifier_binder_is_local(self):
        assert validate(wrap(
            "MATCH (n)-[rs*1..2]->(m) WITHIN PT1H "
            "WHERE ALL(e IN rs WHERE e.w > 0)",
            "EMIT count(*) AS c SNAPSHOT EVERY PT1M",
        )) == []

    def test_comprehension_binder_is_local(self):
        assert validate(wrap(
            "MATCH q = (n)-[*1..2]->(m) WITHIN PT1H "
            "WITH [x IN nodes(q) | x.id] AS ids",
            "EMIT ids SNAPSHOT EVERY PT1M",
        )) == []

    def test_check_returns_issue_objects(self):
        from repro.seraph.parser import parse_seraph

        issues = check(parse_seraph(wrap(
            "MATCH (n) WITHIN PT1M",
            "EMIT count(*) AS n SNAPSHOT EVERY PT10M",
        )))
        assert all(issue.severity in ("error", "warning")
                   for issue in issues)
