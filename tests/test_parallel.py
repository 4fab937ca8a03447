"""Tests for the process-pool layer (repro.parallel)."""

import time

import pytest

from repro.obs.metrics import get_registry
from repro.parallel import parallel_map, worker_count
from repro.parallel.pool import _is_picklable
from repro.resilience import ChaosPolicy


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.1)
    return x * x


def failing_square(x):
    raise RuntimeError("this item always fails")


# Chaos-wrapped workers: deterministic by seed, and only misbehave inside
# worker processes (the parent's serial retry always runs clean).
KILLER = ChaosPolicy(seed=11, kill_rate=0.4).wrap(square)
ERRORER = ChaosPolicy(seed=12, error_rate=0.5).wrap(square)


class TestWorkerCount:
    def test_explicit_wins(self):
        assert worker_count(3) == 3

    def test_explicit_beats_env(self, monkeypatch):
        # An explicit argument is the caller's decision; the env var is
        # only the *default* — reproducibility contract in docs/SCALE.md.
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert worker_count(3) == 3

    def test_explicit_clamped_to_one(self):
        assert worker_count(0) == 1
        assert worker_count(-5) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert worker_count() == 2

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError):
            worker_count()

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() >= 1


class TestParallelMap:
    def test_order_preserved_serial(self):
        assert parallel_map(square, range(10), workers=1) == [x * x for x in range(10)]

    def test_order_preserved_parallel(self):
        items = list(range(50))
        assert parallel_map(square, items, workers=2) == [x * x for x in items]

    def test_empty(self):
        assert parallel_map(square, [], workers=2) == []

    def test_small_input_stays_serial(self):
        # 2 items < threshold: must work even with many workers requested
        assert parallel_map(square, [1, 2], workers=8) == [1, 4]

    def test_unpicklable_falls_back(self):
        closure_val = 10
        fn = lambda x: x + closure_val  # noqa: E731 - deliberately a lambda
        out = parallel_map(fn, list(range(20)), workers=2)
        assert out == [x + 10 for x in range(20)]

    def test_chunk_size_respected(self):
        items = list(range(30))
        out = parallel_map(square, items, workers=2, chunk_size=7)
        assert out == [x * x for x in items]


class TestCrashRecovery:
    def test_worker_kill_recovered_serially(self):
        # Workers die mid-chunk (os._exit) on a seeded schedule; the pool
        # must still return every result, via serial parent re-runs.
        reg = get_registry()
        reg.reset()
        items = list(range(40))
        out = parallel_map(KILLER, items, workers=2, chunk_size=5)
        assert out == [x * x for x in items]
        snap = reg.snapshot()
        assert snap["parallel.worker_failures"]["value"] >= 1
        assert snap["parallel.serial_retries"]["value"] >= 1

    def test_worker_error_recovered_serially(self):
        items = list(range(40))
        out = parallel_map(ERRORER, items, workers=2, chunk_size=5)
        assert out == [x * x for x in items]

    def test_chunk_timeout_recovered_serially(self):
        reg = get_registry()
        reg.reset()
        items = list(range(6))
        out = parallel_map(slow_square, items, workers=2, chunk_size=2,
                           chunk_timeout_s=0.01)
        assert out == [x * x for x in items]
        assert reg.snapshot()["parallel.chunk_timeouts"]["value"] >= 1

    def test_permanent_failure_raises_by_default(self):
        with pytest.raises(RuntimeError):
            parallel_map(failing_square, list(range(6)), workers=2,
                         chunk_size=2)


class TestPicklable:
    def test_module_function_picklable(self):
        assert _is_picklable(square)

    def test_lambda_not_picklable(self):
        assert not _is_picklable(lambda x: x)
