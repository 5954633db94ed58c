"""Unit tests for the service building blocks (no sockets involved):
token-bucket admission, bearer auth, SSE framing, the bounded emission
log, and the JSON engine-config fragment."""

import asyncio

import pytest

from repro.api import EngineConfig, reference_mode
from repro.errors import (
    AuthenticationError,
    ConsumerLagError,
    EngineError,
    EngineModeError,
)
from repro.service.admission import TokenBucket
from repro.service.auth import Authenticator, parse_bearer
from repro.service.server import engine_config_from_dict
from repro.service.sse import (
    HEARTBEAT_FRAME,
    EmissionLog,
    ServiceSink,
    emission_json,
    format_event,
)

from ..modes import (
    MODE_SELECTIONS,
    assert_names_the_offending_fields,
    expected_mode,
    selection_id,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert bucket.try_acquire(4.0)
        assert not bucket.try_acquire(1.0)
        assert bucket.rejected == 1

    def test_refills_at_rate_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert bucket.try_acquire(4.0)
        clock.tick(1.0)
        assert bucket.available == pytest.approx(2.0)
        clock.tick(100.0)
        assert bucket.available == pytest.approx(4.0)  # capped

    def test_zero_rate_disables_throttling(self):
        bucket = TokenBucket(rate=0.0, clock=FakeClock())
        assert bucket.try_acquire(10_000.0)
        assert bucket.available == float("inf")
        assert bucket.as_dict()["available"] is None

    def test_batch_cost_counts_whole_batch_on_rejection(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert not bucket.try_acquire(5.0)
        assert bucket.rejected == 5

    def test_burst_defaults_to_one_second_of_tokens(self):
        assert TokenBucket(rate=7.0, clock=FakeClock()).burst == 7.0
        assert TokenBucket(rate=0.25, clock=FakeClock()).burst == 1.0


class TestAuth:
    def test_parse_bearer(self):
        assert parse_bearer("Bearer s3cret") == "s3cret"
        assert parse_bearer("bearer  s3cret ") == "s3cret"
        assert parse_bearer("Basic dXNlcg==") is None
        assert parse_bearer("Bearer") is None
        assert parse_bearer(None) is None

    def test_open_tenant_accepts_anything(self):
        auth = Authenticator({"open": None})
        auth.check("open", None)
        auth.check("open", "Bearer whatever")

    def test_protected_tenant_requires_exact_token(self):
        auth = Authenticator({"locked": "s3cret"})
        auth.check("locked", "Bearer s3cret")
        with pytest.raises(AuthenticationError):
            auth.check("locked", None)
        with pytest.raises(AuthenticationError):
            auth.check("locked", "Bearer wrong")
        with pytest.raises(AuthenticationError):
            auth.check("locked", "Basic s3cret")

    def test_tokens_are_mutable_per_tenant(self):
        auth = Authenticator()
        auth.set_token("t", "one")
        auth.check("t", "Bearer one")
        auth.set_token("t", "two")
        with pytest.raises(AuthenticationError):
            auth.check("t", "Bearer one")
        auth.forget("t")
        auth.check("t", None)  # forgotten = open


class TestSseFraming:
    def test_frame_layout(self):
        frame = format_event('{"a": 1}', event_id=7, event="emission")
        assert frame == b'id: 7\nevent: emission\ndata: {"a": 1}\n\n'

    def test_multiline_data_splits_into_data_lines(self):
        frame = format_event("one\ntwo")
        assert frame == b"data: one\ndata: two\n\n"

    def test_heartbeat_is_a_comment_frame(self):
        assert HEARTBEAT_FRAME.startswith(b":")
        assert HEARTBEAT_FRAME.endswith(b"\n\n")


class TestEmissionLog:
    def test_ids_are_absolute_and_monotonic(self):
        log = EmissionLog(capacity=2)
        assert [log.append(d) for d in "abc"] == [0, 1, 2]
        assert log.first_id == 1  # 'a' evicted
        assert log.evicted == 1
        assert log.after(0) == [(1, "b"), (2, "c")]
        assert log.after(2) == []

    def test_lagging_cursor_is_circuit_broken(self):
        log = EmissionLog(capacity=1)
        for data in "abc":
            log.append(data)
        with pytest.raises(ConsumerLagError):
            log.after(0)
        assert log.after(1) == [(2, "c")]

    def test_seeded_offset_for_checkpoint_restore(self):
        log = EmissionLog(capacity=4, next_id=10)
        assert log.append("x") == 10
        assert log.after(9) == [(10, "x")]
        with pytest.raises(ConsumerLagError):
            log.after(3)

    def test_wait_wakes_on_append(self):
        async def scenario():
            log = EmissionLog(capacity=4)
            waiter = asyncio.ensure_future(log.wait())
            await asyncio.sleep(0)
            log.append("x")
            await asyncio.wait_for(waiter, 1.0)

        asyncio.run(scenario())

    def test_close_wakes_waiters(self):
        async def scenario():
            log = EmissionLog(capacity=4)
            waiter = asyncio.ensure_future(log.wait())
            await asyncio.sleep(0)
            log.close()
            await asyncio.wait_for(waiter, 1.0)

        asyncio.run(scenario())


class TestServiceSink:
    def _emission(self, empty=False):
        from repro.graph.table import Record, Table
        from repro.seraph.sinks import Emission
        from repro.stream.timeline import TimeInterval
        from repro.stream.tvt import TimeAnnotatedTable

        table = Table([] if empty else [Record({"n": 1})], fields=["n"])
        annotated = TimeAnnotatedTable(
            table=table, interval=TimeInterval(0, 10)
        )
        return Emission(query_name="q", instant=10, table=annotated)

    def test_appends_serialized_emissions(self):
        log = EmissionLog(capacity=4)
        seen = []
        sink = ServiceSink(log, skip_empty=False,
                           on_append=lambda: seen.append(1))
        emission = self._emission()
        sink.receive(emission)
        assert log.after(-1) == [(0, emission_json(emission))]
        assert seen == [1]
        assert sink.received == 1

    def test_skip_empty_drops_empty_tables(self):
        log = EmissionLog(capacity=4)
        sink = ServiceSink(log, skip_empty=True)
        sink.receive(self._emission(empty=True))
        assert len(log) == 0
        assert sink.received == 1


class TestEngineConfigFromDict:
    def test_scalar_fields_and_policy_by_name(self):
        config = engine_config_from_dict({
            "policy": "trailing", "resilient": True,
            "allowed_lateness": 600, "graph_backend": "reference",
            "vectorized": None, "dead_letter_capacity": 2,
        })
        assert config == EngineConfig(
            resilient=True, allowed_lateness=600, dead_letter_capacity=2,
        )

    def test_the_slow_twin_is_settable_from_json(self):
        twin = {"incremental": False, "reuse_unchanged_windows": False,
                "delta_eval": False, "physical_plans": False,
                "graph_backend": "reference", "vectorized": False}
        assert engine_config_from_dict(twin) == EngineConfig(**twin)

    @pytest.mark.parametrize("fragment,field", [
        ({"graph_backend": "columnar"}, "graph_backend"),
        ({"vectorized": True}, "vectorized"),
        ({"delta_eval": False}, "delta_eval"),
    ])
    def test_a_removed_or_partial_mode_is_a_typed_400(self, fragment, field):
        with pytest.raises(EngineModeError, match=field) as raised:
            engine_config_from_dict(fragment)
        assert raised.value.status == 400

    @pytest.mark.parametrize("selection", MODE_SELECTIONS, ids=selection_id)
    def test_every_mode_selection_answers_as_engine_config_does(
        self, selection
    ):
        mode = expected_mode(selection)
        if mode is None:
            with pytest.raises(EngineModeError) as raised:
                engine_config_from_dict(dict(selection))
            assert raised.value.status == 400
            assert_names_the_offending_fields(selection, str(raised.value))
        else:
            config = engine_config_from_dict(dict(selection))
            assert config == EngineConfig(**selection)
            assert reference_mode(vars(config)) is (mode == "reference")

    @pytest.mark.parametrize("fragment", [
        {"parallel_workers": 2}, {"offload_threshold": 0.0},
        {"max_worker_restarts": 3}, {"task_timeout": 1.5},
        {"resilient": True, "parallel_workers": None},
    ], ids=["parallel_workers", "offload_threshold", "max_worker_restarts",
            "task_timeout", "null-pool-size"])
    def test_a_process_pool_field_is_a_typed_400_saying_it_was_removed(
        self, fragment
    ):
        with pytest.raises(EngineError, match="were removed") as raised:
            engine_config_from_dict(fragment)
        assert raised.value.status == 400
        (field,) = set(fragment) - {"resilient"}
        assert field in str(raised.value)

    def test_observability_flag_the_benchmarks_traced_server_sends(self):
        assert engine_config_from_dict(
            {"observability": True}
        ).observability is True

    def test_empty_fragment_is_the_default_config(self):
        assert engine_config_from_dict({}) == EngineConfig()

    @pytest.mark.parametrize("fragment", [
        {"allowed_lateness": "5"},     # was a bare TypeError
        {"allowed_lateness": True},    # bool is not a JSON integer
        {"static_graph": "x"},         # was an AttributeError downstream
        {"incremental": "no"},         # was silently truthy
        {"retry": 3},                  # failed at the first sink retry
        {"resilient": None},           # null only where the field allows
        {"late_policy": "skip"},
        {"no_such_field": 1},
        {"policy": "sometimes"},
        {"graph_backend": "bogus"},
        ["resilient"],                 # not an object at all
    ])
    def test_everything_else_is_a_typed_error(self, fragment):
        with pytest.raises(EngineError):
            engine_config_from_dict(fragment)
