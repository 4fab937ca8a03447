"""Tests for the service's worker-count resolution (repro.parallel)."""

import pytest

from repro.parallel import worker_count


class TestWorkerCount:
    def test_explicit_wins(self):
        assert worker_count(3) == 3

    def test_explicit_beats_env(self, monkeypatch):
        # An explicit argument is the caller's decision; the env var is
        # only the *default* pool size — docs/SERVICE.md.
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
