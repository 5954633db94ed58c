"""The pool supervisor: crash detection, rebuilds, retry, degradation.

Worker tasks here are module-level (picklable) and deterministic: they
coordinate across worker processes through flag files under ``tmp_path``
or distinguish worker from parent by PID, so every failure fires exactly
where and when the test says.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import EngineError, ParallelExecutionError
from repro.obs import Observability
from repro.runtime.faults import ChaosConfig, ChaosInjector
from repro.runtime.supervisor import (
    PoolSupervisor,
    SupervisorConfig,
    _supervised_task,
)


def _square(x):
    return x * x


def _kill_once(payload):
    """Murder the worker on the first run; succeed ever after."""
    flag = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return "ok"


def _kill_in_worker(parent_pid):
    """Murder any worker process; succeed in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return "parent"


def _fail_in_worker(parent_pid):
    """Raise in any worker process; succeed in the parent."""
    if os.getpid() != parent_pid:
        raise ValueError("worker-only failure")
    return "parent"


def _fail_n_times(payload):
    """Raise until ``n`` attempts happened (counted via flag files)."""
    flag_dir, n = payload
    done = len(os.listdir(flag_dir))
    if done < n:
        open(os.path.join(flag_dir, f"attempt-{done}-{os.getpid()}"),
             "w").close()
        raise ValueError(f"injected failure #{done}")
    return "recovered"


def _slow_once(payload):
    """Sleep past the timeout on the first run; fast ever after."""
    flag, duration = payload
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(duration)
        return "slow"
    return "fast"


@pytest.fixture
def fast_supervisor():
    """A supervisor with no backoff sleeping (deterministic, instant)."""
    def build(**kwargs):
        kwargs.setdefault("sleep", lambda _s: None)
        workers = kwargs.pop("workers", 2)
        return PoolSupervisor(workers, **kwargs)

    supervisors = []

    def tracked(**kwargs):
        supervisor = build(**kwargs)
        supervisors.append(supervisor)
        return supervisor

    yield tracked
    for supervisor in supervisors:
        supervisor.close()


class TestHealthyPath:
    def test_results_in_payload_order(self, fast_supervisor):
        supervisor = fast_supervisor()
        assert supervisor.run_batch(_square, [3, 1, 2]) == [9, 1, 4]
        assert supervisor.obs.registry.value("supervision.pooled_tasks") == 3
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 0

    def test_pool_is_lazy(self, fast_supervisor):
        supervisor = fast_supervisor()
        assert supervisor.pool is None
        supervisor.run_batch(_square, [2])
        assert supervisor.pool is not None

    def test_empty_batch_never_builds_a_pool(self, fast_supervisor):
        supervisor = fast_supervisor()
        assert supervisor.run_batch(_square, []) == []
        assert supervisor.pool is None

    def test_close_is_idempotent(self, fast_supervisor):
        supervisor = fast_supervisor()
        supervisor.run_batch(_square, [1])
        supervisor.close()
        supervisor.close()
        assert supervisor.pool is None


class TestCrashRecovery:
    def test_worker_death_rebuilds_pool_and_retries(
        self, fast_supervisor, tmp_path
    ):
        supervisor = fast_supervisor()
        flag = str(tmp_path / "killed")
        assert supervisor.run_batch(_kill_once, [flag]) == ["ok"]
        assert supervisor.obs.registry.value("supervision.worker_crashes") == 1
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 1
        assert supervisor.as_dict()["mode"] == "pooled"

    def test_batch_mates_of_a_crash_are_recomputed(
        self, fast_supervisor, tmp_path
    ):
        # One murderous payload among pure ones: the whole batch still
        # comes back complete and ordered.
        supervisor = fast_supervisor()
        flag = str(tmp_path / "killed")
        results = supervisor.run_batch(
            _mixed, [("sq", 4), ("kill", flag), ("sq", 5)]
        )
        assert results == [16, "ok", 25]
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 1

    def test_backoff_is_bounded_exponential(self, fast_supervisor):
        delays = []
        supervisor = fast_supervisor(
            sleep=delays.append,
            config=SupervisorConfig(
                max_restarts=4, backoff_base=0.1, backoff_max=0.3
            ),
        )
        for restart in (1, 2, 3, 4):
            assert supervisor.config.backoff(restart) == min(
                0.1 * 2 ** (restart - 1), 0.3
            )

    def test_timeout_counts_as_crash_and_retries(
        self, fast_supervisor, tmp_path
    ):
        supervisor = fast_supervisor(
            config=SupervisorConfig(task_timeout=0.2)
        )
        flag = str(tmp_path / "slept")
        results = supervisor.run_batch(_slow_once, [(flag, 1.0)])
        assert results == ["fast"]
        assert supervisor.obs.registry.value("supervision.task_timeouts") == 1
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 1

    def test_obs_counters_and_rebuild_span(self, fast_supervisor, tmp_path):
        obs = Observability.create()
        supervisor = fast_supervisor(obs=obs)
        flag = str(tmp_path / "killed")
        supervisor.run_batch(_kill_once, [flag])
        counters = obs.registry.snapshot()["counters"]
        assert counters["supervision.worker_crashes"] == 1
        assert counters["supervision.pool_rebuilds"] == 1
        assert obs.tracer.find("pool_rebuild")


def _mixed(payload):
    kind, arg = payload
    if kind == "kill":
        return _kill_once(arg)
    return arg * arg


class TestTaskRetry:
    def test_failing_task_retries_until_success(
        self, fast_supervisor, tmp_path
    ):
        flag_dir = tmp_path / "attempts"
        flag_dir.mkdir()
        supervisor = fast_supervisor(
            config=SupervisorConfig(task_retries=4)
        )
        results = supervisor.run_batch(_fail_n_times, [(str(flag_dir), 2)])
        assert results == ["recovered"]
        assert supervisor.obs.registry.value("supervision.task_retries") == 2
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 0

    def test_exhausted_retries_fall_back_inline(self, fast_supervisor):
        supervisor = fast_supervisor(
            config=SupervisorConfig(task_retries=1)
        )
        results = supervisor.run_batch(_fail_in_worker, [os.getpid()])
        assert results == ["parent"]
        assert supervisor.obs.registry.value("supervision.inline_tasks") == 1
        # The supervisor stays pooled: one bad task is not a pool crash.
        assert supervisor.as_dict()["mode"] == "pooled"

    def test_exhausted_retries_raise_typed_when_degrade_off(
        self, fast_supervisor
    ):
        supervisor = fast_supervisor(
            config=SupervisorConfig(task_retries=0, degrade=False)
        )
        with pytest.raises(ParallelExecutionError) as info:
            supervisor.run_batch(
                _fail_in_worker, [os.getpid()], signatures=["sig-0"]
            )
        assert info.value.signature == "sig-0"
        assert info.value.workers == 2
        assert isinstance(info.value.__cause__, ValueError)


class TestDegradationLadder:
    def test_crash_budget_exhaustion_degrades_not_raises(
        self, fast_supervisor
    ):
        supervisor = fast_supervisor(
            config=SupervisorConfig(max_restarts=1)
        )
        results = supervisor.run_batch(
            _kill_in_worker, [os.getpid()] * 3
        )
        assert results == ["parent"] * 3
        assert supervisor.degraded is True
        assert supervisor.obs.registry.value("supervision.degraded_transitions") == 1
        assert supervisor.obs.registry.value("supervision.pool_rebuilds") == 1
        assert supervisor.as_dict()["mode"] == "degraded"

    def test_budget_exhaustion_raises_typed_when_degrade_off(
        self, fast_supervisor
    ):
        supervisor = fast_supervisor(
            config=SupervisorConfig(max_restarts=0, degrade=False)
        )
        with pytest.raises(ParallelExecutionError) as info:
            supervisor.run_batch(
                _kill_in_worker, [os.getpid()], signatures=[("w", 1)]
            )
        assert info.value.signature == ("w", 1)
        assert "crash budget" in str(info.value)

    def test_probation_returns_to_pooled_mode(self, fast_supervisor):
        supervisor = fast_supervisor(
            config=SupervisorConfig(max_restarts=0, probation_tasks=3)
        )
        supervisor.run_batch(_kill_in_worker, [os.getpid()])
        assert supervisor.degraded is True
        supervisor.run_batch(_square, [1, 2, 3])
        assert supervisor.degraded is False
        assert supervisor.restarts == 0  # fresh budget after recovery
        assert supervisor.obs.registry.value("supervision.degraded_recoveries") == 1
        # Back in pooled mode for real: the next batch uses workers.
        assert supervisor.run_batch(_square, [4]) == [16]
        assert supervisor.obs.registry.value("supervision.pooled_tasks") >= 1

    def test_degraded_document_reports_probation(self, fast_supervisor):
        supervisor = fast_supervisor(
            config=SupervisorConfig(max_restarts=0, probation_tasks=10)
        )
        supervisor.run_batch(_kill_in_worker, [os.getpid()])
        supervisor.run_batch(_square, [1, 2])
        info = supervisor.as_dict()
        assert info["mode"] == "degraded"
        # 3 = the degrading batch's own inline task + the two after it.
        assert info["probation"] == {"successes": 3, "required": 10}


class TestInjectedPool:
    def test_injected_pool_is_never_shut_down(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            supervisor = PoolSupervisor(1, pool=pool)
            assert supervisor.run_batch(_square, [3]) == [9]
            supervisor.close()
            # Still usable: close() must not have touched it.
            assert pool.submit(_square, 2).result() == 4

    def test_injected_pool_abandoned_on_crash_replacement_owned(
        self, tmp_path
    ):
        with ProcessPoolExecutor(max_workers=1) as pool:
            supervisor = PoolSupervisor(
                1, pool=pool, sleep=lambda _s: None
            )
            flag = str(tmp_path / "killed")
            assert supervisor.run_batch(_kill_once, [flag]) == ["ok"]
            assert supervisor.pool is not pool
            assert supervisor._owns_pool is True
            supervisor.close()


class TestChaosDirectives:
    def test_injector_is_deterministic_per_seed(self):
        config = ChaosConfig.profile(seed=7)
        first = [ChaosInjector(config).directive() for _ in range(50)]
        second = [ChaosInjector(config).directive() for _ in range(50)]
        assert first == second

    def test_rates_validate(self):
        with pytest.raises(EngineError, match="worker_kill_rate"):
            ChaosConfig(worker_kill_rate=1.5)

    def test_certain_kills_degrade_then_complete_inline(self):
        supervisor = PoolSupervisor(
            2,
            config=SupervisorConfig(max_restarts=1),
            chaos=ChaosConfig(worker_kill_rate=1.0),
            sleep=lambda _s: None,
        )
        try:
            results = supervisor.run_batch(_square, [2, 3, 4])
        finally:
            supervisor.close()
        assert results == [4, 9, 16]
        assert supervisor.degraded is True
        assert supervisor.obs.registry.value("supervision.worker_crashes") >= 2
        assert supervisor.as_dict()["chaos"]["kills"] >= 2

    def test_certain_drops_terminate_via_last_resort(self):
        supervisor = PoolSupervisor(
            1,
            config=SupervisorConfig(task_retries=2),
            chaos=ChaosConfig(result_drop_rate=1.0),
            sleep=lambda _s: None,
        )
        try:
            results = supervisor.run_batch(_square, [5])
        finally:
            supervisor.close()
        assert results == [25]
        assert supervisor.obs.registry.value("supervision.dropped_results") == 3
        assert supervisor.obs.registry.value("supervision.inline_tasks") == 1

    def test_delay_directive_slows_but_preserves_results(self):
        supervisor = PoolSupervisor(
            1,
            chaos=ChaosConfig(result_delay_rate=1.0, delay_seconds=0.0),
            sleep=lambda _s: None,
        )
        try:
            assert supervisor.run_batch(_square, [6, 7]) == [36, 49]
        finally:
            supervisor.close()
        assert supervisor.as_dict()["chaos"]["delays"] == 2

    def test_supervised_task_wrapper_poison_directive(self):
        from repro.runtime.faults import POISON_TASK, ChaosPoisonError

        with pytest.raises(ChaosPoisonError):
            _supervised_task(_square, (POISON_TASK, 1), 3)
        assert _supervised_task(_square, None, 3) == 9


class TestConfigValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(EngineError):
            SupervisorConfig(max_restarts=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(EngineError):
            SupervisorConfig(task_timeout=0)

    def test_probation_requires_at_least_one_task(self):
        with pytest.raises(EngineError):
            SupervisorConfig(probation_tasks=0)
