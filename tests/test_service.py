"""The solver service: protocol, batching, backpressure, drain, metrics.

Everything here enforces the contracts frozen in ``docs/SERVICE.md``:
wire status codes, micro-batch coalescing observable through
``batch_size``, end-to-end deadlines (queue wait counts), load shedding
at the queue bound, graceful SIGTERM drain (exit 0), and the
``service.*`` metric names.  No pytest-asyncio here — async pieces run
under ``asyncio.run`` and the full server runs via ``start_in_thread``
or a subprocess.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import SolveReport, SolveRequest, clear_caches
from repro.model import generators
from repro.obs.metrics import get_registry
from repro.parallel import worker_count
from repro.service import (
    STATUS_INVALID_INPUT,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    STATUS_USAGE,
    MicroBatcher,
    Overloaded,
    ProtocolError,
    ServiceClient,
    start_in_thread,
)
from repro.service import protocol

REPO = Path(__file__).resolve().parent.parent


def _instances(count, n=12, k=2):
    return [generators.uniform_angles(n=n, k=k, seed=s) for s in range(count)]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        envelope = {"op": "ping", "id": 7}
        line = protocol.encode_line(envelope)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line) == envelope

    def test_malformed_json_is_invalid_input(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_line(b"{nope\n")
        assert err.value.status == STATUS_INVALID_INPUT

    def test_non_object_envelope_is_usage(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_line(b"[1, 2]\n")
        assert err.value.status == STATUS_USAGE

    def test_unknown_field_is_usage(self):
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_request({"instance": {}, "algorthm": "greedy"})
        assert err.value.status == STATUS_USAGE
        assert "algorthm" in str(err.value)

    @pytest.mark.parametrize("parse,envelope", [
        (protocol.envelope_to_request, {"instance": {}, "backend": "numpy"}),
        (protocol.envelope_to_event,
         {"op": "event", "session": "s", "resolve": {"backend": "numpy"}}),
    ], ids=["solve", "resolve"])
    def test_backend_field_is_unknown(self, parse, envelope):
        # The backend knob is retired: the field is no longer part of the
        # wire grammar, so it gets the unknown-field usage status.
        with pytest.raises(ProtocolError) as err:
            parse(envelope)
        assert err.value.status == STATUS_USAGE
        assert "backend" in str(err.value)

    def test_missing_instance_is_usage(self):
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_request({"op": "solve"})
        assert err.value.status == STATUS_USAGE

    def test_status_from_error_mapping(self):
        assert protocol.status_from_error(None) == STATUS_OK
        assert protocol.status_from_error("BudgetExpired: x") == STATUS_TIMEOUT
        assert (protocol.status_from_error("InvalidInstanceError: y")
                == STATUS_INVALID_INPUT)
        assert protocol.status_from_error("ValueError: z") == STATUS_USAGE
        assert protocol.status_from_error("SomethingWeird: q") == 1

    def test_knapsack_triple_instance(self):
        request = protocol.envelope_to_request({
            "instance": [[1.0, 2.0], [3.0, 4.0], 2.5],
            "family": "knapsack",
        })
        assert request.family == "knapsack"
        weights, profits, capacity = request.instance
        assert capacity == 2.5 and len(weights) == len(profits) == 2


# ----------------------------------------------------------------------
# MicroBatcher (event-loop level, no sockets)
# ----------------------------------------------------------------------
async def _fake_dispatch(requests):
    """Stand-in for the worker pool: one empty ok report per request."""
    return [SolveReport(family=r.family, algorithm=r.algorithm, label=r.label)
            for r in requests]


class TestMicroBatcher:
    def test_queue_bound_sheds(self):
        async def scenario():
            batcher = MicroBatcher(_fake_dispatch, queue_bound=2,
                                   flush_interval_s=0.001)
            inst = _instances(1)[0]
            batcher.submit(SolveRequest(instance=inst, algorithm="greedy"))
            batcher.submit(SolveRequest(instance=inst, algorithm="greedy"))
            with pytest.raises(Overloaded):
                batcher.submit(SolveRequest(instance=inst, algorithm="greedy"))
            assert batcher.depth == 2

        asyncio.run(scenario())

    def test_closed_batcher_sheds(self):
        async def scenario():
            batcher = MicroBatcher(_fake_dispatch)
            batcher.close()
            with pytest.raises(Overloaded):
                batcher.submit(
                    SolveRequest(instance=_instances(1)[0], algorithm="greedy")
                )

        asyncio.run(scenario())

    def test_drain_completes_admitted_work(self):
        """close() lets everything already admitted finish (the SIGTERM path)."""
        async def scenario():
            clear_caches()
            batcher = MicroBatcher(_fake_dispatch, max_batch=4,
                                   flush_interval_s=0.001)
            futures = [
                batcher.submit(
                    SolveRequest(instance=inst, algorithm="greedy",
                                 use_cache=False)
                )
                for inst in _instances(6)
            ]
            batcher.close()          # drain requested before any dispatch ran
            await batcher.run()      # must terminate on its own...
            assert all(f.done() for f in futures)
            return [f.result() for f in futures]

        reports = asyncio.run(scenario())
        assert len(reports) == 6
        assert all(r.error is None for r in reports)

    def test_expired_deadline_sheds_without_solving(self):
        async def scenario():
            clear_caches()
            batcher = MicroBatcher(_fake_dispatch, max_batch=8,
                                   flush_interval_s=0.05)
            inst = _instances(1)[0]
            future = batcher.submit(
                SolveRequest(instance=inst, algorithm="greedy",
                             timeout_s=1e-9, use_cache=False)
            )
            await asyncio.sleep(0.01)  # let the deadline pass in the queue
            batcher.close()
            await batcher.run()
            return future.result()

        report = asyncio.run(scenario())
        assert report.error is not None
        assert report.error.startswith("BudgetExpired")
        assert protocol.status_from_error(report.error) == STATUS_TIMEOUT


# ----------------------------------------------------------------------
# End-to-end over TCP (start_in_thread)
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_batch_coalescing_and_metrics(self):
        clear_caches()
        handle = start_in_thread(port=0, max_batch=16, flush_interval_s=0.02)
        try:
            with ServiceClient(port=handle.port) as client:
                assert client.ping()["status"] == STATUS_OK

                responses = client.solve_batch(
                    _instances(8), algorithm="greedy", use_cache=False
                )
                assert [r["status"] for r in responses] == [STATUS_OK] * 8
                assert all(r["algorithm"] == "greedy" for r in responses)
                # A pipelined burst must coalesce: the contract the
                # micro-batcher exists for (docs/SERVICE.md).
                assert max(r["batch_size"] for r in responses) > 1

                # Repeat solve -> warm service-side cache.
                inst = _instances(1)[0]
                first = client.solve(inst, algorithm="greedy")
                again = client.solve(inst, algorithm="greedy")
                assert first["status"] == again["status"] == STATUS_OK
                assert again["cached"] is True
                assert again["value"] == pytest.approx(first["value"])

                stats = client.stats()
                assert stats["status"] == STATUS_OK
                assert stats["queue_bound"] == 256
                # The default service solves on the supervised pool.
                assert stats["workers"]["count"] == worker_count()
                metrics = stats["metrics"]
                for name in [
                    "service.requests", "service.responses", "service.shed",
                    "service.expired", "service.batches",
                    "service.cache_served", "service.batch_occupancy",
                    "service.queue_depth", "service.latency",
                    "service.connections",
                ]:
                    assert name in metrics, name
                assert metrics["service.latency"]["type"] == "histogram"
                assert metrics["service.latency"]["count"] >= 10
                assert metrics["service.cache_served"]["value"] >= 1
        finally:
            handle.stop()

    def test_wire_statuses_for_bad_requests(self):
        handle = start_in_thread(port=0)
        try:
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"not json\n")
                assert json.loads(reader.readline())["status"] == STATUS_INVALID_INPUT
                sock.sendall(b'{"op": "warp", "id": 1}\n')
                response = json.loads(reader.readline())
                assert response["id"] == 1
                assert response["status"] == STATUS_USAGE
                sock.sendall(b'{"op": "solve", "id": 2}\n')
                assert json.loads(reader.readline())["status"] == STATUS_USAGE
        finally:
            handle.stop()

    def test_oversized_line_is_structured_error(self):
        """A line past ``max_line_bytes`` answers status 3, not silence."""
        handle = start_in_thread(port=0, max_line_bytes=1024)
        try:
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "id": 1}\n')
                assert json.loads(reader.readline())["status"] == STATUS_OK
                sock.sendall(b'{"pad": "' + b"x" * 4096 + b'"}\n')
                response = json.loads(reader.readline())
                assert response["status"] == STATUS_INVALID_INPUT
                assert "exceeds" in response["error"]
                assert response["limit"] == 1024
                # The stream cannot be resynchronized after an overlong
                # line, so the server must close the connection.
                assert reader.readline() == b""
        finally:
            handle.stop()

    def test_deadline_expired_answers_status_4(self):
        clear_caches()
        handle = start_in_thread(port=0, flush_interval_s=0.05)
        try:
            with ServiceClient(port=handle.port) as client:
                response = client.solve(
                    _instances(1)[0], algorithm="greedy",
                    timeout_s=1e-9, use_cache=False,
                )
                assert response["status"] == STATUS_TIMEOUT
                assert "BudgetExpired" in response["error"]
        finally:
            handle.stop()

    def test_queue_bound_answers_status_5(self):
        clear_caches()
        handle = start_in_thread(
            port=0, queue_bound=1, max_batch=1, flush_interval_s=0.5
        )
        try:
            with ServiceClient(port=handle.port) as client:
                responses = client.solve_batch(
                    _instances(12, n=20), algorithm="greedy", use_cache=False
                )
                statuses = {r["status"] for r in responses}
                shed = [r for r in responses if r["status"] == STATUS_OVERLOADED]
                assert STATUS_OVERLOADED in statuses
                assert all("shed" in r["error"] for r in shed)
                assert any(r["status"] == STATUS_OK for r in responses)
        finally:
            handle.stop()

    def test_solution_payload_round_trips(self):
        from repro.model.serialization import solution_from_dict

        clear_caches()
        inst = _instances(1)[0]
        handle = start_in_thread(port=0)
        try:
            with ServiceClient(port=handle.port) as client:
                response = client.solve(
                    inst, algorithm="greedy", want_solution=True
                )
            assert response["status"] == STATUS_OK
            solution = solution_from_dict(response["solution"])
            solution.verify(inst)
            assert solution.value(inst) == pytest.approx(response["value"])
        finally:
            handle.stop()

    def test_shutdown_op_drains(self):
        handle = start_in_thread(port=0)
        with ServiceClient(port=handle.port) as client:
            response = client.shutdown()
            assert response["status"] == STATUS_OK and response["draining"]
        handle.stop()  # must already be stopping; idempotent
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", handle.port), timeout=0.5)


# ----------------------------------------------------------------------
# The event op (dynamic workloads, docs/ONLINE.md)
# ----------------------------------------------------------------------
class TestEventOp:
    def test_envelope_validation(self):
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_event({"op": "event"})  # no session
        assert err.value.status == STATUS_USAGE
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_event(
                {"op": "event", "session": "s", "frobnicate": 1}
            )
        assert err.value.status == STATUS_USAGE
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_event(
                {"op": "event", "session": "s",
                 "events": [{"type": "teleport"}]}
            )
        assert err.value.status == STATUS_USAGE
        with pytest.raises(ProtocolError) as err:
            protocol.envelope_to_event(
                {"op": "event", "session": "s",
                 "resolve": {"bogus_option": 1}}
            )
        assert err.value.status == STATUS_USAGE

    def test_open_apply_resolve_round_trip(self):
        from repro.online.delta import AddCustomer, RemoveCustomer, UpdateDemand

        clear_caches()
        inst = _instances(1, n=16)[0]
        handle = start_in_thread(port=0)
        try:
            with ServiceClient(port=handle.port) as client:
                opened = client.event("t-sess", instance=inst,
                                      resolve={"algorithm": "greedy"})
                assert opened["status"] == STATUS_OK
                assert opened["extra"]["n"] == 16
                offline = opened["extra"]["resolve"]["value"]

                applied = client.event(
                    "t-sess",
                    events=[AddCustomer(demand=1.0, theta=0.25),
                            UpdateDemand(index=0, demand=2.0, profit=2.0),
                            RemoveCustomer(index=3)],
                    resolve={"algorithm": "greedy"},
                )
                assert applied["status"] == STATUS_OK
                assert applied["extra"]["applied"] == 3
                assert applied["extra"]["n"] == 16
                assert applied["extra"]["fingerprint"] != opened["extra"]["fingerprint"]
                assert applied["extra"]["resolve"]["value"] > 0.0
                assert offline > 0.0
        finally:
            handle.stop()

    def test_unknown_session_is_usage_status(self):
        handle = start_in_thread(port=0)
        try:
            with ServiceClient(port=handle.port) as client:
                response = client.event(
                    "never-opened",
                    events=[{"type": "remove_customer", "index": 0}],
                )
                assert response["status"] == STATUS_USAGE
                assert "unknown session" in response["error"]
        finally:
            handle.stop()

    def test_bad_event_value_is_invalid_input_status(self):
        clear_caches()
        inst = _instances(1, n=8)[0]
        handle = start_in_thread(port=0)
        try:
            with ServiceClient(port=handle.port) as client:
                opened = client.event("bad-sess", instance=inst)
                assert opened["status"] == STATUS_OK
                response = client.event(
                    "bad-sess",
                    events=[{"type": "add_customer", "demand": -1.0,
                             "theta": 0.5}],
                )
                assert response["status"] == STATUS_INVALID_INPUT
                assert "InvalidInstanceError" in response["error"]
        finally:
            handle.stop()

    def test_events_batch_alongside_solves(self):
        """Event and solve requests can share one pipelined connection."""
        clear_caches()
        inst = _instances(1, n=12)[0]
        handle = start_in_thread(port=0, flush_interval_s=0.05)
        try:
            with ServiceClient(port=handle.port) as client:
                opened = client.event("mix-sess", instance=inst)
                assert opened["status"] == STATUS_OK
                solve = client.solve(inst, algorithm="greedy")
                assert solve["status"] == STATUS_OK
                applied = client.event(
                    "mix-sess",
                    events=[{"type": "add_customer", "demand": 1.0,
                             "theta": 1.0}],
                )
                assert applied["status"] == STATUS_OK
                assert applied["extra"]["n"] == 13
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Client reconnect-with-backoff
# ----------------------------------------------------------------------
class _CutOnceProxy:
    """TCP proxy that severs the first client connection after relaying
    exactly one response line, then forwards later connections untouched.

    Models a mid-pipeline connection loss: the client has sent several
    requests, received one answer, and the socket dies under it.
    """

    def __init__(self, backend_port):
        self._backend_port = backend_port
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._cut_spent = threading.Event()
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def close(self):
        self._listener.close()

    def _accept_loop(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            cut = not self._cut_spent.is_set()
            self._cut_spent.set()
            threading.Thread(
                target=self._serve, args=(client, cut), daemon=True
            ).start()

    def _serve(self, client, cut_after_one_line):
        backend = socket.create_connection(("127.0.0.1", self._backend_port))

        def upstream():
            try:
                while True:
                    data = client.recv(65536)
                    if not data:
                        break
                    backend.sendall(data)
            except OSError:
                pass
            finally:
                try:
                    backend.shutdown(socket.SHUT_WR)
                except OSError:
                    pass

        threading.Thread(target=upstream, daemon=True).start()
        buffered = b""
        try:
            while True:
                data = backend.recv(65536)
                if not data:
                    break
                if not cut_after_one_line:
                    client.sendall(data)
                    continue
                buffered += data
                newline = buffered.find(b"\n")
                if newline >= 0:
                    client.sendall(buffered[: newline + 1])
                    break  # drop the rest and hang up mid-pipeline
        except OSError:
            pass
        finally:
            for sock in (client, backend):
                # shutdown() before close(): the upstream thread may still
                # be blocked in recv() on this socket, which pins the kernel
                # file description — a bare close() would never send FIN and
                # the peer would hang instead of seeing the cut.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass


class TestClientReconnect:
    def test_mid_pipeline_cut_resends_without_resolving(self):
        """The client redials and resends the *same* envelopes; the server's
        result cache answers the resends, so nothing is solved twice."""
        clear_caches()
        handle = start_in_thread(port=0, max_batch=8, flush_interval_s=0.005)
        proxy = _CutOnceProxy(handle.port)
        try:
            before = get_registry().snapshot()
            with ServiceClient(port=proxy.port, timeout_s=60.0) as client:
                responses = client.solve_batch(
                    _instances(4), algorithm="greedy"
                )
                assert client.reconnects >= 1
            assert [r["status"] for r in responses] == [STATUS_OK] * 4
            # One answer arrived before the cut; the other three were
            # resent under their original ids and served from cache.
            assert sum(1 for r in responses if r.get("cached")) == 3
            after = get_registry().snapshot()
            served = (after["service.cache_served"]["value"]
                      - before.get("service.cache_served", {}).get("value", 0))
            assert served == 3
        finally:
            proxy.close()
            handle.stop()

    def test_reconnect_attempts_exhausted_raises(self):
        from repro.service import ServiceError

        handle = start_in_thread(port=0)
        client = ServiceClient(port=handle.port, reconnect_backoff_s=0.001)
        try:
            assert client.ping()["status"] == STATUS_OK
            handle.stop()  # nothing is listening on this port any more
            with pytest.raises(ServiceError, match="reconnect"):
                client.ping()
        finally:
            client.close()


# ----------------------------------------------------------------------
# The CLI pair: serve drains on SIGTERM/SIGINT, client relays statuses
# ----------------------------------------------------------------------
class TestServeProcess:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return env

    def _drain_on_signal(self, tmp_path, sig):
        sock_path = tmp_path / "repro.sock"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--unix", str(sock_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self._env(), cwd=REPO,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock_path.exists():
                assert time.monotonic() < deadline, "service never bound"
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.05)
            with ServiceClient(unix_path=str(sock_path)) as client:
                assert client.ping()["status"] == STATUS_OK
                response = client.solve(
                    _instances(1)[0], algorithm="greedy"
                )
                assert response["status"] == STATUS_OK
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "serving on" in out
        assert "drained cleanly" in out

    def test_sigterm_drains_cleanly(self, tmp_path):
        self._drain_on_signal(tmp_path, signal.SIGTERM)

    def test_sigint_drains_cleanly(self, tmp_path):
        """Ctrl-C parity: SIGINT takes the same drain path as SIGTERM."""
        self._drain_on_signal(tmp_path, signal.SIGINT)

    def test_version_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, env=self._env(), cwd=REPO,
        )
        assert out.returncode == 0
        assert out.stdout.strip().startswith("repro-sectors ")

    def test_help_epilog_documents_exit_codes(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=self._env(), cwd=REPO,
        )
        assert out.returncode == 0
        assert "exit codes:" in out.stdout
        for code in range(6):
            assert f"\n  {code}  " in out.stdout
