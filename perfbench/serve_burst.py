"""serve-burst: saturated capacity of the supervised worker pool on a mixed stream.

Two connections into ``python -m repro serve --workers 2``, each in a
closed loop: write a burst of 16 ops in one write, read the 16
responses, repeat.  Every burst holds, in a seeded order, 10 never-seen
small solves with ``use_cache: false``, 4 distinct repeats of a
16-instance hot set solved in set-up (answered from the parent's result
cache) and 2 ``event`` ops on the connection's own delta session of 10⁴
customers.  An op's latency runs from its burst's first write to its
response.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import serving
from lib import (SOLVE_OPTIONS, BenchError, Conn, CpuProbe, Phase, Server,
                 Tracer, check_bounds, delta, median, require)
from repro.engine import SolveRequest, solve
from repro.model import generators
from repro.model.serialization import instance_to_dict
from repro.obs.bench import _upper_bound
from repro.online.delta import DeltaCompiledInstance

WORKERS = 2
CONNECTIONS = 2
#: One burst; its order is shuffled per burst.
BURST = ["miss"] * 10 + ["hot"] * 4 + ["event"] * 2
HOT = 16
SESSION_N = 10_000
TOWNS_N = 80
#: Ops generated per second of run, well above the 30–45 ops/s measured
#: on 2 vCPUs; running out fails the run instead of reusing an op.
OPS_PER_SECOND_CAP = 80
#: Every this many misses, one is re-solved in-process and compared.
RESOLVE_EVERY = 16
RESOLVE = {**SOLVE_OPTIONS, "use_cache": False}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Spans are built after the phase from its responses, ``stats`` deltas
#: and replays, so a traced run measures one full-length phase.
TRACES_IN_PHASE = False
#: ``stats`` counters whose per-phase deltas :func:`check_health` reads.
HEALTH_COUNTERS = (
    "service.worker.degraded", "service.supervisor.restarts",
    "service.worker.dispatches", "service.shed", "service.expired",
    "service.cache_served")


@dataclass
class Ctx:
    kinds: List[str]
    lines: List[bytes]
    bursts: List[List[List[int]]]
    hot: List[bytes]
    hot_of: Dict[int, int]
    opens: List[bytes]
    server: Server
    conns: List[Conn]
    hot_values: List[float]
    setup_parts: Dict[str, float]
    cursors: List[int]


def _event(rng: np.random.Generator, session: int) -> dict:
    """One event op: 1 add, 1 remove, 2 demand updates, then a resolve."""
    events = [
        {"type": "add_customer", "theta": float(rng.uniform(0, 2 * np.pi)),
         "demand": float(rng.uniform(0.2, 1.8))},
        {"type": "remove_customer", "index": int(rng.integers(SESSION_N + 1))},
    ] + [{"type": "update_demand", "index": int(rng.integers(SESSION_N)),
          "demand": float(rng.uniform(0.2, 1.8))} for _ in range(2)]
    return {"op": "event", "session": f"s{session}", "events": events,
            "resolve": RESOLVE}


def _inputs(seed: int, seconds: float):
    """Every op of the run, in bursts per connection.

    Connection ``c`` sends the events of session ``s<c>`` only, so each
    session sees its events in the order of the op indices.
    """
    rng = np.random.default_rng([seed, 1])
    rounds = math.ceil(OPS_PER_SECOND_CAP * seconds / (CONNECTIONS * len(BURST)))
    hot = [serving.small_solve(seed, 3, j, TOWNS_N) for j in range(HOT)]
    kinds: List[str] = []
    lines: List[bytes] = []
    hot_of: Dict[int, int] = {}
    bursts: List[List[List[int]]] = [[] for _ in range(CONNECTIONS)]
    misses = 0
    for _ in range(rounds + 1):
        for c in range(CONNECTIONS):
            order = list(BURST)
            rng.shuffle(order)
            picks = iter(rng.choice(HOT, size=order.count("hot"), replace=False))
            burst = []
            for kind in order:
                i = len(kinds)
                if kind == "miss":
                    envelope = serving.small_solve(seed, 2, misses, TOWNS_N,
                                                   use_cache=False)
                    misses += 1
                elif kind == "hot":
                    hot_of[i] = int(next(picks))
                    envelope = hot[hot_of[i]]
                else:
                    envelope = _event(rng, c)
                kinds.append(kind)
                lines.append(serving.line(envelope, f"b{i}"))
                burst.append(i)
            bursts[c].append(burst)
    opens = [serving.line({
        "op": "event", "session": f"s{c}",
        "instance": instance_to_dict(generators.uniform_angles(
            n=SESSION_N, capacity_fraction=0.5, seed=[seed, 4, c])),
    }, f"open-{c}") for c in range(CONNECTIONS)]
    hot = [serving.line(envelope, f"hot-{j}") for j, envelope in enumerate(hot)]
    return kinds, lines, bursts, hot, hot_of, opens


def setup(seed: int, seconds: float) -> Ctx:
    t0 = time.perf_counter()
    kinds, lines, bursts, hot, hot_of, opens = _inputs(seed, seconds)
    t1 = time.perf_counter()
    server = Server("serve-burst", ["--workers", str(WORKERS)])
    conns: List[Conn] = []
    try:
        conns = [Conn(server.socket_path) for _ in range(CONNECTIONS)]
        t2 = time.perf_counter()
        for conn, line in zip(conns, opens):
            conn.send(line)
            require(conn.recv()["status"] == 0, "opening a session failed")
        conns[0].send(b"".join(hot))
        warm = {}
        for _ in hot:
            response = conns[0].recv()
            require(response["status"] == 0, "warming the hot set failed")
            warm[response["id"]] = response["value"]
        hot_values = [warm[f"hot-{j}"] for j in range(HOT)]
        for c, conn in enumerate(conns):
            response = conn.call({"op": "event", "id": f"warm-{c}",
                                  "session": f"s{c}", "resolve": RESOLVE})
            require(response["status"] == 0, "warming a resolve failed")
    except BaseException:
        for conn in conns:
            conn.close()
        server.stop()
        raise
    return Ctx(kinds, lines, bursts, hot, hot_of, opens, server, conns,
               hot_values, {"inputs_s": t1 - t0,
                            "server_ready_s": server.ready_s,
                            "warmup_s": time.perf_counter() - t2},
               [0] * CONNECTIONS)


def teardown(ctx: Ctx) -> None:
    for conn in ctx.conns:
        conn.close()
    ctx.server.stop()


def phase(ctx: Ctx, seconds: float) -> Phase:
    before = ctx.conns[0].metrics()
    worker_pids = [w["pid"] for w in ctx.conns[0].call(
        {"op": "stats", "id": "pids"})["workers"]["workers"]]
    probe = CpuProbe([ctx.server.proc.pid, *worker_pids])
    ops: Dict[int, tuple] = {}
    sent_ops: List[int] = []
    errors: List[BaseException] = []
    start = time.perf_counter()
    end = start + seconds

    def client(c: int, conn: Conn) -> None:
        try:
            while time.perf_counter() < end:
                if ctx.cursors[c] == len(ctx.bursts[c]):
                    raise BenchError("ran out of generated ops")
                burst = ctx.bursts[c][ctx.cursors[c]]
                ctx.cursors[c] += 1
                sent_ops.extend(burst)
                t0 = time.perf_counter()
                conn.send(b"".join(ctx.lines[i] for i in burst))
                for _ in burst:
                    response = conn.recv()
                    ops[int(response["id"][1:])] = (t0, time.perf_counter(),
                                                    response)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c, conn), daemon=True)
               for c, conn in enumerate(ctx.conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 90)
    require(not any(t.is_alive() for t in threads), "phase did not finish")
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    env = probe.read()
    after = ctx.conns[0].metrics()
    index = sorted(ops)
    require(index == sorted(sent_ops), "responses missing")
    sent = [ops[i][0] for i in index]
    recv = [ops[i][1] for i in index]
    responses = [ops[i][2] for i in index]
    latencies = [r - s if resp["status"] == 0 else float("inf")
                 for s, r, resp in zip(sent, recv, responses)]
    return Phase(latencies, max(recv) - start, {
        "ops": index, "sent": sent, "recv": recv, "responses": responses,
        "before": before, "after": after, "env": env})


def _replay_sessions(ctx: Ctx, phases: List[Phase]) -> Dict[int, float]:
    """Replay the event ops of ``phases`` in op order on local delta views.

    Returns the proven upper bound of each resolved instance by op index;
    a resolve value that differs from the local one fails the run.  Each
    phase keeps the ``(op, start, end)`` of its applies under ``"applies"``.
    """
    views = [DeltaCompiledInstance(serving.decode(line).open_instance)
             for line in ctx.opens]
    bounds: Dict[int, float] = {}
    for p in phases:
        p.data["applies"] = []
        for k, i in enumerate(p.data["ops"]):
            if ctx.kinds[i] != "event":
                continue
            request = serving.decode(ctx.lines[i])
            view = views[int(request.session[1:])]
            t0 = time.perf_counter()
            view.apply(list(request.events))
            p.data["applies"].append((i, t0, time.perf_counter()))
            local = solve(SolveRequest(instance=view.instance, **RESOLVE)).value
            served = p.data["responses"][k]["value"]
            require(local == served, f"op {i}: served resolve value "
                    f"{served!r} != local replay value {local!r}")
            bounds[i] = _upper_bound(view.instance)
    return bounds


def check_health(d: Dict[str, float], hot_ops: int) -> None:
    """A healthy phase reached a worker, lost none and cached only repeats.

    ``d`` maps each of :data:`HEALTH_COUNTERS` to its delta over the
    measured phase, never to a process-global total.
    """
    def get(name: str) -> float:
        return d.get(name, 0.0)
    require(get("service.worker.degraded") == 0,
            f"service.worker.degraded rose by {get('service.worker.degraded'):g}")
    require(get("service.supervisor.restarts") == 0,
            f"service.supervisor.restarts rose by "
            f"{get('service.supervisor.restarts'):g}")
    require(get("service.worker.dispatches") > 0,
            "service.worker.dispatches did not rise: no op reached a worker")
    require(get("service.shed") == 0 and get("service.expired") == 0,
            "the server shed or expired ops")
    require(get("service.cache_served") == hot_ops,
            f"{get('service.cache_served'):g} ops served from the cache, "
            f"want the {hot_ops} hot repeats")


def check(ctx: Ctx, phases: List[Phase]) -> None:
    for p in phases:
        for r in p.data["responses"]:
            require(r["status"] == 0, f"op {r['id']} failed: {r.get('error')}")
    event_bounds = _replay_sessions(ctx, phases)
    hot_bounds = [serving.upper_bound(line) for line in ctx.hot]
    for p in phases:
        d = p.data
        kinds = [ctx.kinds[i] for i in d["ops"]]
        lines = [ctx.lines[i] for i in d["ops"]]
        values, bounds = [], []
        for i, kind, line, r in zip(d["ops"], kinds, lines, d["responses"]):
            if kind == "hot":
                j = ctx.hot_of[i]
                require(r["value"] == ctx.hot_values[j],
                        f"op {i}: hot value {r['value']!r} != warm value")
                bounds.append(hot_bounds[j])
            elif kind == "miss":
                bounds.append(serving.upper_bound(line))
            else:
                bounds.append(event_bounds[i])
            values.append(r["value"])
        check_bounds(values, bounds)
        d["quality"] = (sum(values), sum(bounds))
        misses = [k for k, kind in enumerate(kinds) if kind == "miss"]
        serving.check_resolves([lines[k] for k in misses],
                               [d["responses"][k] for k in misses],
                               RESOLVE_EVERY)
        check_health({name: delta(d["before"], d["after"], name)
                      for name in HEALTH_COUNTERS}, kinds.count("hot"))


def end_to_end(ctx: Ctx, result: Phase) -> Dict[str, float]:
    value, bound = result.data["quality"]
    return result.end_to_end(value / bound)


def per_layer(ctx: Ctx, result: Phase, tracer: Tracer) -> Dict[str, float]:
    d = result.data
    for i, s, r, response in zip(d["ops"], d["sent"], d["recv"],
                                 d["responses"]):
        serving.add_op_spans(
            tracer, i, s, r, response,
            serving.timed(serving.decode, ctx.lines[i]),
            serving.timed(serving.encode, response))
    for i, t0, t1 in d["applies"]:
        tracer.add("online.delta.apply", t0, t1, op=i)
    rtts = [r - s for s, r in zip(d["sent"], d["recv"])]
    values = serving.service_layers(d["before"], d["after"], d["responses"],
                                    rtts, tracer)
    events = [k for k, i in enumerate(d["ops"]) if ctx.kinds[i] == "event"]
    values.update({
        "service.event.rtt_ms": 1e3 * median(rtts[k] for k in events),
        "online.resolve_ms": tracer.layer_ms("online.resolve"),
        "online.delta.apply_ms": tracer.layer_ms("online.delta.apply"),
        "env.cpu_steal_pct": d["env"]["cpu_steal_pct"],
        "env.other_cpu_pct": d["env"]["other_cpu_pct"],
    })
    return values
