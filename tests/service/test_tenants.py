"""Tenant-layer tests (no sockets): quotas, containment, checkpoints."""

import pytest

from repro.api import EngineConfig
from repro.errors import (
    CypherSyntaxError,
    QuotaExceededError,
    TenantQuarantinedError,
    UnknownTenantError,
)
from repro.service.sse import emission_json
from repro.service.tenants import (
    TenantManager,
    TenantQuotas,
    TenantSpec,
    TenantState,
)
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

COUNT_QUERY = """
REGISTER QUERY rentals STARTING AT 2022-08-01T14:45
{
  MATCH ()-[r:rentedAt]->() WITHIN PT1H
  EMIT count(r) AS rentals SNAPSHOT EVERY PT5M
}
"""


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def make_tenant(**quota_kwargs):
    return TenantState(TenantSpec(
        name="t", quotas=TenantQuotas(**quota_kwargs),
    ))


def offline_emissions(query=LISTING5_SERAPH, until=None):
    from repro.api import build_engine
    from repro.seraph.sinks import CollectingSink

    engine = build_engine(EngineConfig())
    sink = CollectingSink()
    engine.register(query, sink=sink)
    engine.run_stream(figure1_stream(), until=until)
    return [emission_json(e) for e in sink.emissions]


class TestQuotas:
    def test_query_quota_rejects_at_limit(self):
        tenant = make_tenant(max_queries=1)
        tenant.register_query(LISTING5_SERAPH)
        with pytest.raises(QuotaExceededError):
            tenant.register_query(COUNT_QUERY)

    def test_admission_throttles_and_recovers(self):
        clock = FakeClock()
        tenant = TenantState(
            TenantSpec(name="t", quotas=TenantQuotas(
                max_events_per_sec=2.0, burst=2.0,
            )),
            clock=clock,
        )
        tenant.admit(2)
        with pytest.raises(QuotaExceededError):
            tenant.admit(1)
        assert tenant.service_status()["metrics"]["throttled"] == 1
        clock.tick(1.0)
        tenant.admit(2)

    def test_zero_rate_never_throttles(self):
        tenant = make_tenant(max_events_per_sec=0.0)
        tenant.admit(1_000_000)


class TestPushDiscipline:
    def test_pushes_match_offline_run(self):
        tenant = make_tenant()
        tenant.register_query(LISTING5_SERAPH)
        for element in figure1_stream():
            tenant.push(element)
        tenant.advance(_t("15:40"))
        log = tenant.log_for("student_trick")
        streamed = [data for _, data in log.after(-1)]
        assert streamed == offline_emissions(until=_t("15:40"))

    def test_resilient_tenant_matches_offline_run(self):
        tenant = TenantState(TenantSpec(
            name="t",
            engine=EngineConfig(resilient=True, allowed_lateness=1200),
        ))
        tenant.register_query(LISTING5_SERAPH)
        elements = figure1_stream()
        # Swap two arrivals: the reorder buffer re-sequences them.
        elements[1], elements[2] = elements[2], elements[1]
        for element in elements:
            tenant.push(element)
        tenant.advance(_t("15:40"))
        log = tenant.log_for("student_trick")
        streamed = [data for _, data in log.after(-1)]
        assert streamed == offline_emissions(until=_t("15:40"))


class TestContainment:
    def _broken_tenant(self, failures=2):
        tenant = make_tenant(max_engine_failures=failures)
        tenant.register_query(COUNT_QUERY)

        def boom(*args, **kwargs):
            raise RuntimeError("engine blew up")

        tenant.engine.push = boom
        return tenant

    def test_repro_errors_pass_through_without_counting(self):
        tenant = make_tenant()
        with pytest.raises(CypherSyntaxError):
            tenant.register_query("REGISTER QUERY broken {")
        assert tenant.failures == 0
        assert not tenant.quarantined

    def test_consecutive_failures_quarantine(self):
        tenant = self._broken_tenant(failures=2)
        element = figure1_stream()[0]
        for _ in range(2):
            with pytest.raises(RuntimeError):
                tenant.push(element)
        assert tenant.quarantined
        with pytest.raises(TenantQuarantinedError):
            tenant.push(element)
        assert tenant.service_status()["metrics"]["engine_errors"] == 2

    def test_restore_clears_quarantine(self):
        tenant = make_tenant(max_engine_failures=1)
        tenant.register_query(COUNT_QUERY)
        document = tenant.checkpoint()
        tenant.engine.push = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError):
            tenant.push(figure1_stream()[0])
        assert tenant.quarantined
        tenant.restore(document)
        assert not tenant.quarantined
        tenant.push(figure1_stream()[0])  # fresh engine works again


class TestCheckpointRestore:
    @pytest.mark.parametrize("engine_config", [
        None, EngineConfig(resilient=True)],
        ids=["core", "resilient"],
    )
    def test_mid_stream_checkpoint_resumes_bag_equal(self, engine_config):
        elements = figure1_stream()
        first = TenantState(TenantSpec(name="t", engine=engine_config))
        first.register_query(LISTING5_SERAPH)
        for element in elements[:3]:
            first.push(element)
        document = first.checkpoint()
        head = [data for _, data in
                first.log_for("student_trick").after(-1)]

        second = TenantState(TenantSpec(name="t", engine=engine_config))
        second.restore(document)
        for element in elements[3:]:
            second.push(element)
        second.advance(_t("15:40"))
        log = second.log_for("student_trick")
        # The restored log resumes numbering at the checkpointed offset;
        # read from its own first retained id.
        tail = [data for _, data in log.after(log.first_id - 1)]
        assert head + tail == offline_emissions(until=_t("15:40"))
        # Event ids continue monotonically across the restore.
        assert log.first_id == len(head)

    def test_restore_rejects_unknown_version(self):
        from repro.errors import CheckpointError

        tenant = make_tenant()
        with pytest.raises(CheckpointError):
            tenant.restore({"version": 99})


class TestManager:
    def test_unknown_tenant_404s_without_dynamic_mode(self):
        manager = TenantManager()
        with pytest.raises(UnknownTenantError):
            manager.get("ghost")

    def test_dynamic_mode_creates_with_default_quotas(self):
        manager = TenantManager(
            allow_dynamic_tenants=True,
            default_quotas=TenantQuotas(max_queries=2),
        )
        state = manager.get("fresh")
        assert state.quotas.max_queries == 2
        assert manager.get("fresh") is state

    def test_duplicate_tenant_rejected(self):
        manager = TenantManager()
        manager.add(TenantSpec(name="a"))
        with pytest.raises(QuotaExceededError):
            manager.add(TenantSpec(name="a"))

    def test_snapshot_round_trip(self):
        manager = TenantManager()
        manager.add(TenantSpec(name="a"))
        manager.tenants["a"].register_query(COUNT_QUERY)
        for element in figure1_stream()[:2]:
            manager.tenants["a"].push(element)
        snapshot = manager.snapshot()

        fresh = TenantManager()
        fresh.add(TenantSpec(name="a"))
        fresh.restore_snapshot(snapshot)
        restored = fresh.tenants["a"]
        assert restored.query_names == ["rentals"]
        for element in figure1_stream()[2:]:
            restored.push(element)
        restored.advance(_t("15:40"))
        restored_log = restored.log_for("rentals")
        combined = (
            [d for _, d in manager.tenants["a"]
             .log_for("rentals").after(-1)]
            + [d for _, d in
               restored_log.after(restored_log.first_id - 1)]
        )
        assert combined == offline_emissions(COUNT_QUERY, until=_t("15:40"))


class TestStatusDocument:
    def test_unified_status_with_service_section_validates(self):
        from repro.obs.schema import validate_status

        tenant = TenantState(TenantSpec(
            name="t", engine=EngineConfig(observability=True),
        ))
        tenant.register_query(COUNT_QUERY)
        for element in figure1_stream():
            tenant.push(element)
        document = tenant.status()
        validate_status(document)
        assert document["service"]["tenant"] == "t"
        assert document["service"]["metrics"]["events"] == 5
        counters = document["obs"]["metrics"]["counters"]
        assert counters.get("service.tenant.t.events") == 5
