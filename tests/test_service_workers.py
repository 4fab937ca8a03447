"""The supervised worker tier: shard routing, crash recovery, chaos drills.

Enforces the supervision contracts frozen in ``docs/SERVICE.md`` and the
service-level fault sites of ``docs/RESILIENCE.md``:

* consistent-hash shard routing is deterministic and sticky (repeat
  instances land on the same worker; a dead worker's keys spill to its
  ring sibling and return on recovery);
* the circuit breaker trips after consecutive failures, half-opens after
  the cooldown, and closes on probe success;
* :class:`repro.parallel.PipeWorker` surfaces every transport failure
  (timeout, EOF, corrupted frame) as one typed ``WorkerCrashed``;
* **the headline chaos drill**: with seed-deterministic worker SIGKILLs
  injected under load, every admitted request still answers status 0
  with a value identical to a chaos-free run, and
  ``service.supervisor.restarts`` > 0 is observed;
* blackholed and corrupted reply frames are healed by redispatch;
* with every worker down, ``ping``/``stats`` stay answerable, solves
  degrade to the engine in the service process instead of failing, and
  event ops are refused with status 5 (their session needs a worker).
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.engine import SolveRequest, clear_caches, solve
from repro.model import generators
from repro.model.serialization import instance_to_dict
from repro.obs.metrics import get_registry
from repro.parallel import PipeWorker, WorkerCrashed
from repro.resilience.chaos import ChaosPolicy
from repro.service import (
    STATUS_OK,
    STATUS_OVERLOADED,
    CircuitBreaker,
    ServiceClient,
    ShardRing,
    start_in_thread,
)
from repro.service.workers import describe_ring, shard_key


def _instances(count, n=12, k=2):
    return [generators.uniform_angles(n=n, k=k, seed=s) for s in range(count)]


def _counter(metrics: dict, name: str) -> int:
    return int(metrics.get(name, {}).get("value", 0))


# ----------------------------------------------------------------------
# ShardRing
# ----------------------------------------------------------------------
class TestShardRing:
    def test_owner_is_deterministic_and_total(self):
        ring = ShardRing([0, 1, 2])
        keys = [shard_key(inst) for inst in _instances(20)]
        owners = [ring.owner(key) for key in keys]
        assert owners == [ShardRing([0, 1, 2]).owner(k) for k in keys]
        assert set(owners) <= {0, 1, 2}
        # With 20 distinct keys and 64 vnodes each, every worker owns some.
        assert len(set(owners)) == 3

    def test_spill_and_return(self):
        """A dead worker's keys move to the ring sibling, then move back."""
        ring = ShardRing([0, 1, 2])
        key = shard_key(_instances(1)[0])
        full_order = ring.owners(key)
        primary = full_order[0]
        without_primary = [w for w in (0, 1, 2) if w != primary]
        spilled = ring.owner(key, available=without_primary)
        assert spilled == full_order[1]  # the natural sibling inherits
        assert ring.owner(key) == primary  # ...and the key returns

    def test_owners_orders_all_available_distinctly(self):
        ring = ShardRing([0, 1, 2, 3])
        order = ring.owners("some-key")
        assert sorted(order) == [0, 1, 2, 3]
        assert ring.owners("some-key", available=[2]) == [2]
        assert ring.owners("some-key", available=[]) == []

    def test_describe_ring_splits_load(self):
        ring = ShardRing([0, 1])
        counts = describe_ring(ring, [shard_key(i) for i in _instances(40)])
        assert sum(counts.values()) == 40
        assert all(c > 0 for c in counts.values())

    def test_shard_key_handles_knapsack_triples(self):
        key = shard_key(([1.0, 2.0], [3.0, 4.0], 2.5))
        assert key.startswith("repr:")
        assert key == shard_key(([1.0, 2.0], [3.0, 4.0], 2.5))


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # success resets the run
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_half_open_then_close_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.probe_due()
        clock[0] = 5.0
        assert breaker.state == "half_open" and breaker.probe_due()
        assert not breaker.allow()  # only the probe may touch it
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_rearms_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.probe_due()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        clock[0] = 9.0
        assert breaker.state == "open"  # cooldown restarted at t=5
        clock[0] = 10.0
        assert breaker.state == "half_open"


# ----------------------------------------------------------------------
# ChaosPolicy service extensions
# ----------------------------------------------------------------------
class TestChaosReplySites:
    def test_decide_reply_is_deterministic(self):
        policy = ChaosPolicy(seed=3, kill_rate=0.3, blackhole_rate=0.3,
                             corrupt_rate=0.3, delay_rate=0.3)
        schedule = [policy.decide_reply("service.worker.0.gen1", i)
                    for i in range(50)]
        again = [policy.decide_reply("service.worker.0.gen1", i)
                 for i in range(50)]
        assert schedule == again
        assert set(schedule) <= {None, "kill", "blackhole", "corrupt", "delay"}
        assert any(v is not None for v in schedule)

    def test_generation_gets_a_fresh_stream(self):
        """Restarted workers must not replay their predecessor's kill."""
        policy = ChaosPolicy(seed=3, kill_rate=0.5)
        gen1 = [policy.decide_reply("service.worker.0.gen1", i)
                for i in range(40)]
        gen2 = [policy.decide_reply("service.worker.0.gen2", i)
                for i in range(40)]
        assert gen1 != gen2

    def test_certain_kill(self):
        policy = ChaosPolicy(kill_rate=1.0)
        assert policy.decide_reply("s", 0) == "kill"
        assert ChaosPolicy().decide_reply("s", 0) is None

    def test_from_spec_round_trip(self):
        policy = ChaosPolicy.from_spec("seed=7, kill_rate=0.2,delay_s=0.01")
        assert policy == ChaosPolicy(seed=7, kill_rate=0.2, delay_s=0.01)
        assert ChaosPolicy.from_spec("") == ChaosPolicy()

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown chaos field"):
            ChaosPolicy.from_spec("frobnicate=1")
        with pytest.raises(ValueError, match="key=value"):
            ChaosPolicy.from_spec("kill_rate")
        with pytest.raises(ValueError, match="non-numeric"):
            ChaosPolicy.from_spec("kill_rate=lots")
        with pytest.raises(ValueError, match="must be in"):
            ChaosPolicy.from_spec("kill_rate=1.5")


# ----------------------------------------------------------------------
# PipeWorker transport
# ----------------------------------------------------------------------
def _scripted_worker(conn):
    """Test worker: echoes, sleeps, dies, or replies garbage on demand."""
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        seq, op, payload = pickle.loads(raw)
        if op == "stop":
            conn.send_bytes(pickle.dumps((seq, "ok", None)))
            return
        if op == "die":
            os._exit(3)
        if op == "sleep":
            time.sleep(payload)
            conn.send_bytes(pickle.dumps((seq, "ok", "slept")))
            continue
        if op == "garbage":
            conn.send_bytes(b"\x00 not a pickle frame")
            continue
        conn.send_bytes(pickle.dumps((seq, "ok", payload)))


class TestPipeWorker:
    def _spawn(self):
        return PipeWorker(_scripted_worker,
                          context=multiprocessing.get_context("fork"))

    def test_request_round_trip_and_stop(self):
        worker = self._spawn()
        try:
            assert worker.alive()
            assert worker.request("echo", {"x": 1}, timeout_s=10.0) == {"x": 1}
        finally:
            worker.stop()
        assert not worker.alive()

    def test_timeout_is_worker_crashed_and_stale_reply_discarded(self):
        worker = self._spawn()
        try:
            with pytest.raises(WorkerCrashed, match="no reply"):
                worker.request("sleep", 0.5, timeout_s=0.05)
            # The late reply for the timed-out seq must be discarded, not
            # delivered to the next caller.
            assert worker.request("echo", "fresh", timeout_s=10.0) == "fresh"
        finally:
            worker.stop()

    def test_dead_worker_is_worker_crashed(self):
        worker = self._spawn()
        try:
            with pytest.raises(WorkerCrashed):
                worker.request("die", timeout_s=10.0)
        finally:
            worker.stop()

    def test_corrupt_frame_is_worker_crashed(self):
        worker = self._spawn()
        try:
            with pytest.raises(WorkerCrashed, match="corrupted"):
                worker.request("garbage", timeout_s=10.0)
        finally:
            worker.stop()


# ----------------------------------------------------------------------
# Supervised service end to end
# ----------------------------------------------------------------------
class TestSupervisedService:
    def test_shard_affinity_across_bursts(self):
        """The same instances route to the same workers, burst after burst."""
        clear_caches()
        insts = _instances(8)
        handle = start_in_thread(port=0, workers=2, max_batch=4)
        try:
            with ServiceClient(port=handle.port) as client:
                def per_worker_dispatches():
                    stats = client.stats()["workers"]["workers"]
                    return {w["id"]: w["dispatches"] for w in stats}

                client.solve_batch(insts, algorithm="greedy", use_cache=False)
                first = per_worker_dispatches()
                client.solve_batch(insts, algorithm="greedy", use_cache=False)
                second = per_worker_dispatches()
                deltas = {wid: second[wid] - first[wid] for wid in first}
                assert deltas == first  # identical split = sticky shards
                assert sum(first.values()) == 8
        finally:
            handle.stop()

    def test_kill_chaos_value_identity_and_restarts(self):
        """The acceptance drill: seeded SIGKILLs under load lose nothing."""
        clear_caches()
        insts = _instances(40)
        baseline = [
            solve(SolveRequest(instance=i, algorithm="greedy",
                               use_cache=False)).value
            for i in insts
        ]
        before = get_registry().snapshot()
        chaos = ChaosPolicy(seed=11, kill_rate=0.35)
        handle = start_in_thread(
            port=0, workers=2, max_batch=4, chaos=chaos,
            supervisor_options={
                "call_timeout_s": 30.0,
                "probe_interval_s": 0.1,
                "restart_backoff_s": 0.05,
            },
        )
        try:
            with ServiceClient(port=handle.port, timeout_s=300.0) as client:
                responses = client.solve_batch(
                    insts, algorithm="greedy", use_cache=False
                )
                assert [r["status"] for r in responses] == [STATUS_OK] * 40
                assert [r["value"] for r in responses] == baseline
                metrics = client.stats()["metrics"]
        finally:
            handle.stop()
        restarts = (_counter(metrics, "service.supervisor.restarts")
                    - _counter(before, "service.supervisor.restarts"))
        failures = (_counter(metrics, "service.worker.failures")
                    - _counter(before, "service.worker.failures"))
        assert restarts > 0, "chaos never killed a worker; drill is vacuous"
        assert failures > 0

    def test_blackhole_and_corrupt_replies_are_healed(self):
        clear_caches()
        insts = _instances(16)
        baseline = [
            solve(SolveRequest(instance=i, algorithm="greedy",
                               use_cache=False)).value
            for i in insts
        ]
        chaos = ChaosPolicy(seed=5, blackhole_rate=0.3, corrupt_rate=0.3)
        handle = start_in_thread(
            port=0, workers=2, max_batch=4, chaos=chaos,
            supervisor_options={
                "call_timeout_s": 0.75,
                "probe_interval_s": 0.1,
                "restart_backoff_s": 0.05,
            },
        )
        try:
            with ServiceClient(port=handle.port, timeout_s=300.0) as client:
                responses = client.solve_batch(
                    insts, algorithm="greedy", use_cache=False
                )
                assert [r["status"] for r in responses] == [STATUS_OK] * 16
                assert [r["value"] for r in responses] == baseline
                metrics = client.stats()["metrics"]
                assert _counter(metrics, "service.worker.failures") > 0
        finally:
            handle.stop()

    def test_degraded_mode_keeps_answering_with_all_workers_down(self):
        """SIGKILL every worker: ping/stats/solve answer, events shed."""
        clear_caches()
        handle = start_in_thread(
            port=0, workers=2,
            supervisor_options={
                # A sleepy probe loop holds the workers down long enough
                # for the degraded-path assertions to be deterministic.
                "probe_interval_s": 1.0,
                "restart_backoff_s": 0.2,
                "call_timeout_s": 5.0,
            },
        )
        try:
            with ServiceClient(port=handle.port, timeout_s=120.0) as client:
                workers = client.stats()["workers"]["workers"]
                pids = [w["pid"] for w in workers]
                assert all(isinstance(p, int) for p in pids)
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                # Inline ops never depend on the pool.
                assert client.ping()["status"] == STATUS_OK
                stats = client.stats()
                assert stats["status"] == STATUS_OK
                # Solves degrade to the service process's engine, not to
                # errors.
                response = client.solve(_instances(1)[0], algorithm="greedy",
                                        use_cache=False)
                assert response["status"] == STATUS_OK
                # A session lives in one worker, never in the service
                # process: with none up, an event op is shed, not run.
                refused = client.event("degraded-sess",
                                       instance=_instances(1)[0])
                assert refused["status"] == STATUS_OVERLOADED
                assert "degraded-sess" in refused["error"]
                assert "no worker is up" in refused["error"]
                metrics = client.stats()["metrics"]
                assert _counter(metrics, "service.worker.degraded") >= 1
                # The supervisor heals the pool underneath.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    described = client.stats()["workers"]
                    if described["alive"] == 2:
                        break
                    time.sleep(0.2)
                assert described["alive"] == 2, "workers never restarted"
                restarted = client.solve(_instances(1)[0], algorithm="greedy")
                assert restarted["status"] == STATUS_OK
        finally:
            handle.stop()

    def test_partitioned_request_is_served(self):
        """A worker solves a forced partitioned request in its own process.

        Service workers are daemonic, so they cannot start child
        processes; the parts must solve in the worker itself.
        """
        inst = generators.scenario_metro_blockage(n=2000, towns=6, seed=0)
        expected = solve(SolveRequest(instance=inst, algorithm="greedy",
                                      partition="force", use_cache=False))
        assert expected.extra["partitions"] >= 4
        handle = start_in_thread(port=0, workers=2)
        try:
            with ServiceClient(port=handle.port, timeout_s=120.0) as client:
                response = client.request({
                    "op": "solve", "instance": instance_to_dict(inst),
                    "algorithm": "greedy", "partition": "force",
                    "use_cache": False,
                })
        finally:
            handle.stop()
        assert response["status"] == STATUS_OK, response.get("error")
        assert response["value"] == expected.value

    def test_stats_reports_worker_tier(self):
        handle = start_in_thread(port=0, workers=1)
        try:
            with ServiceClient(port=handle.port) as client:
                client.solve(_instances(1)[0], algorithm="greedy")
                described = client.stats()["workers"]
                assert described["count"] == 1
                assert described["chaos"] is False
                (worker,) = described["workers"]
                for field in ("id", "pid", "alive", "generation", "breaker",
                              "dispatches", "failures", "restarts", "latency"):
                    assert field in worker, field
                assert worker["alive"] is True
                assert worker["breaker"] == "closed"
                assert worker["latency"]["type"] == "histogram"
                metrics = client.stats()["metrics"]
                for name in ("service.worker.dispatches",
                             "service.worker.failures",
                             "service.worker.redispatches",
                             "service.worker.degraded",
                             "service.worker.latency",
                             "service.supervisor.restarts",
                             "service.supervisor.breaker_opens",
                             "service.supervisor.alive"):
                    assert name in metrics, name
        finally:
            handle.stop()
