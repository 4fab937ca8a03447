"""The service side of serve-burst: inputs, replays and layer metrics.

The server runs in its own process, so nothing inside it is timed here.
Its layers are read from response fields (``seconds``, ``batch_size``,
``extra``), from ``stats`` counter deltas over the measured phase, and
from replays of the protocol functions on the very envelopes and
responses of the phase.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence

from lib import SOLVE_OPTIONS, Tracer, delta, median, percentile, require
from repro.engine import SolveReport, solve
from repro.model import generators
from repro.model.serialization import instance_to_dict
from repro.obs.bench import _upper_bound
from repro.service import protocol


def small_solve(seed: int, stream: int, i: int, towns_n: int,
                **fields) -> dict:
    """Envelope (without ``id``) of never-seen small solve ``i`` of a stream.

    Even ``i`` draw ``clustered_angles`` (n=40, k=3), odd ``i``
    ``clustered_towns`` with ``towns_n`` customers, so angle and sector
    solves alternate.
    """
    rng_seed = [seed, stream, i]
    instance = (generators.clustered_angles(n=40, k=3, seed=rng_seed)
                if i % 2 == 0 else
                generators.clustered_towns(n=towns_n, seed=rng_seed))
    return {"op": "solve", "instance": instance_to_dict(instance),
            **SOLVE_OPTIONS, **fields}


def line(envelope: dict, op_id: str) -> bytes:
    """Encode an envelope under the given ``id``."""
    return protocol.encode_line({**envelope, "id": op_id})


def decode(line: bytes):
    """The server's decode path for one envelope line."""
    envelope = protocol.decode_line(line)
    if envelope.get("op") == "event":
        return protocol.envelope_to_event(envelope)
    return protocol.envelope_to_request(envelope)


def encode(response: dict) -> bytes:
    """The server's encode path, rebuilt from a received response."""
    report = SolveReport(
        family=response["family"], algorithm=response["algorithm"],
        value=response["value"], seconds=response["seconds"],
        cached=response["cached"], planned=response["planned"],
        error=response["error"], extra=response["extra"])
    return protocol.encode_line(protocol.report_to_response(
        response["id"], report, batch_size=response["batch_size"]))


def timed(fn, arg) -> float:
    """Wall seconds of one call."""
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def check_resolves(lines: Sequence[bytes], responses: Sequence[dict],
                   every: int) -> None:
    """Re-solve every ``every``-th solve in-process; values must be equal."""
    for line, response in list(zip(lines, responses))[::every]:
        request = dataclasses.replace(decode(line), use_cache=False)
        local = solve(request).value
        require(local == response["value"],
                f"{response['id']}: served value {response['value']!r} != "
                f"in-process value {local!r}")


def upper_bound(line: bytes) -> float:
    """Proven upper bound on the optimum of a solve envelope's instance."""
    return _upper_bound(decode(line).instance)


def add_op_spans(tracer: Tracer, op: int, sent: float, recv: float,
                 response: dict, decode_s: float, encode_s: float) -> None:
    """Spans of one op's server round trip.

    The round trip's children are the replayed decode and encode and the
    server-side time the response reports, placed before the encode; its
    self time is what no layer accounts for (the wait behind the rest of
    its burst, batch formation, transport, pipe transit to workers).
    """
    rtt = tracer.add("serve", sent, recv, op=op)
    tracer.add("service.protocol.decode", sent, sent + decode_s, rtt, op)
    done = recv - encode_s
    server_s = response["seconds"]
    resolve = response["extra"].get("resolve")
    if resolve is not None:
        ev = tracer.add("service.events", done - server_s, done, rtt, op)
        tracer.add("online.resolve", done - resolve["seconds"], done, ev, op)
    else:
        tracer.add("engine.solve", done - server_s, done, rtt, op)
    tracer.add("service.protocol.encode", done, recv, rtt, op)


def service_layers(before: Dict[str, dict], after: Dict[str, dict],
                   responses: List[dict], rtts: List[float],
                   tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics every service workload reports."""
    counters = {name: delta(before, after, name) for name in (
        "service.batches", "service.shed", "service.expired",
        "service.cache_served", "service.worker.dispatches",
        "service.worker.degraded", "service.worker.redispatches",
        "service.supervisor.restarts", "engine.online.invalidated",
        "engine.online.retained")}
    solves = [r for r in responses if "resolve" not in r["extra"]]
    misses = [r["seconds"] for r in solves if not r["cached"]]
    overhead = {"hit": [], "miss": [], "event": []}
    for r, rtt in zip(responses, rtts):
        kind = ("event" if "resolve" in r["extra"]
                else "hit" if r["cached"] else "miss")
        overhead[kind].append(rtt - r["seconds"])
    dispatches = counters["service.worker.dispatches"]
    worker_total = delta(before, after, "service.worker.latency", "total")
    values = {
        "service.protocol.decode_ms": tracer.layer_ms("service.protocol.decode"),
        "service.protocol.encode_ms": tracer.layer_ms("service.protocol.encode"),
        "serve.unaccounted_ms": tracer.layer_ms("serve"),
        "service.batcher.batch_size_mean":
            sum(r["batch_size"] for r in responses) / len(responses),
        "service.batcher.batches": counters["service.batches"],
        "service.shed": counters["service.shed"],
        "service.expired": counters["service.expired"],
        "engine.cache.served_ratio":
            counters["service.cache_served"] / max(len(solves), 1),
        "service.worker.dispatches": dispatches,
        "service.worker.degraded": counters["service.worker.degraded"],
        "service.worker.redispatches": counters["service.worker.redispatches"],
        "service.supervisor.restarts": counters["service.supervisor.restarts"],
        "engine.online.invalidated": counters["engine.online.invalidated"],
        "engine.online.retained": counters["engine.online.retained"],
    }
    if misses:
        values["engine.solve_p50_ms"] = 1e3 * percentile(misses, 0.5)
        values["engine.solve_p90_ms"] = 1e3 * percentile(misses, 0.9)
    if dispatches:
        values["service.worker.latency_p50_ms"] = 1e3 * float(
            after["service.worker.latency"]["p50"])
        values["service.worker.transit_ms"] = 1e3 * (
            worker_total - sum(r["seconds"] for r in responses)) / dispatches
    for kind, samples in overhead.items():
        values[f"service.overhead_{kind}_ms"] = 1e3 * median(samples)
    return values
