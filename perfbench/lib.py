"""Shared machinery of the perfbench workloads.

Statistics with failures at +inf, an in-memory span tracer, the solver
server as a child process (started in its own process group and reaped
on every exit path), a JSON-lines connection, CPU probes of the
environment, and the checks every workload shares.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in, and the package source.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Output directory of a run (sockets, server logs, traces), relative to
#: the checkout root the benchmark runs from.
OUT_DIR = ".perfbench_out"

#: Algorithm and accuracy of every solve the benchmark sends.  ``auto``
#: with the default ``eps=1.0`` plans the exact knapsack oracle, whose
#: run time on continuous demands is unbounded in practice.
SOLVE_OPTIONS = {"algorithm": "greedy", "eps": 0.5}


class BenchError(Exception):
    """A correctness, health or hygiene check failed: no numbers are recorded."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); ``+inf`` entries are failures.

    A failed or refused op is recorded as ``+inf``, so it lands above every
    completed op and pulls the percentile to ``+inf`` once it is reached.
    """
    data = sorted(values)
    if not data:
        raise BenchError("percentile of an empty sample")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    if math.isinf(data[lo]) or (frac > 0 and math.isinf(data[hi])):
        return math.inf
    return data[lo] + frac * (data[hi] - data[lo])


def median(values: Iterable[float]) -> float:
    """The 0.5-quantile (see :func:`percentile`); 0.0 for an empty sample."""
    values = list(values)
    return percentile(values, 0.5) if values else 0.0


@dataclass
class Phase:
    """Outcome of one measured phase.

    ``latencies`` holds one entry per attempted op in seconds, ``+inf``
    for an op that failed or was refused; ``elapsed_s`` is the phase's
    wall time; ``data`` carries what the workload's checks and per-layer
    metrics need.
    """

    latencies: List[float]
    elapsed_s: float
    data: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.latencies if math.isinf(x))

    def end_to_end(self, quality_ratio: float) -> Dict[str, float]:
        """The shared end-to-end metrics (all but ``setup_s``)."""
        return {
            "latency_p50_ms": 1e3 * percentile(self.latencies, 0.5),
            "latency_p90_ms": 1e3 * percentile(self.latencies, 0.9),
            "throughput_ops": (self.attempted - self.failed) / self.elapsed_s,
            "quality_ratio": quality_ratio,
        }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory, written out once at the end of the run.

    :meth:`span` times a block of the benchmark's own code around a call
    into one layer; :meth:`add` records an interval measured elsewhere
    (a server-side duration carried by a response).  A span's self time
    is its duration minus the durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: object = None) -> int:
        """Record a finished span; returns its id."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "op": op,
                           "start": start, "end": end})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: object = None):
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), math.nan, parent, op)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def self_times(self) -> Dict[str, List[float]]:
        """Self time in seconds of every span, grouped by span name."""
        child_sum = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_sum[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            out.setdefault(s["name"], []).append(
                s["end"] - s["start"] - child_sum[s["id"]])
        return out

    def layer_ms(self, name: str) -> float:
        """Median self time of the spans called ``name``, in ms (0 if none)."""
        return 1e3 * median(self.self_times().get(name, []))

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ----------------------------------------------------------------------
# Environment probes
# ----------------------------------------------------------------------
def _proc_stat_ticks() -> tuple:
    """System-wide ``(busy, steal, total)`` jiffies from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq = fields[:7]
    steal = fields[7] if len(fields) > 7 else 0
    return user + nice + system + irq + softirq, steal, sum(fields[:8])


def _pid_cpu_s(pid: int) -> float:
    """CPU seconds of one process and its reaped children (0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of proc(5).
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


class CpuProbe:
    """CPU steal and CPU used outside the benchmark over an interval.

    ``other_cpu_pct`` is system busy time minus the benchmark's own tree
    (this process, its reaped children and the ``pids`` it is told
    about), in percent of one CPU.
    """

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.pids = list(pids)
        self._t0 = time.monotonic()
        self._ticks0 = _proc_stat_ticks()
        self._own0 = self._own_cpu_s()

    def _own_cpu_s(self) -> float:
        t = os.times()
        return (t.user + t.system + t.children_user + t.children_system
                + sum(_pid_cpu_s(p) for p in self.pids))

    def read(self) -> Dict[str, float]:
        """``{"cpu_steal_pct", "other_cpu_pct"}`` since construction."""
        elapsed = max(time.monotonic() - self._t0, 1e-9)
        busy1, steal1, total1 = _proc_stat_ticks()
        busy0, steal0, total0 = self._ticks0
        hz = os.sysconf("SC_CLK_TCK")
        other = (busy1 - busy0) / hz - (self._own_cpu_s() - self._own0)
        return {
            "cpu_steal_pct": 100.0 * (steal1 - steal0) / max(total1 - total0, 1),
            "other_cpu_pct": max(0.0, 100.0 * other / elapsed),
        }


def flag_busy_machine(seconds: float = 0.5, limit_pct: float = 50.0) -> None:
    """Warn on stderr when something else is using CPU before the run.

    The run is flagged, not refused: the machine may be shared, and the
    ``env.*`` per-layer metrics record the load seen during the phase.
    """
    probe = CpuProbe()
    time.sleep(seconds)
    other = probe.read()["other_cpu_pct"]
    if other > limit_pct:
        print(f"perfbench: warning: {other:.0f}% of a CPU busy outside the "
              "benchmark before the run; its timings may be disturbed",
              file=sys.stderr)


# ----------------------------------------------------------------------
# The solver server as a child process
# ----------------------------------------------------------------------
def _wait_group_gone(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until no process of a group is left."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    raise BenchError(f"server process group {pgid} survived SIGKILL")


def reap_leftover(pidfile: str) -> None:
    """Kill a server group recorded by an earlier run that never cleaned up."""
    try:
        with open(pidfile, encoding="ascii") as fh:
            pgid = int(fh.read().strip())
    except (OSError, ValueError):
        return
    try:
        with open(f"/proc/{pgid}/cmdline", "rb") as fh:
            cmdline = fh.read().split(b"\0")
    except OSError:
        cmdline = []
    if b"repro" in cmdline and b"serve" in cmdline:
        print(f"perfbench: reaping leftover server group {pgid}", file=sys.stderr)
        os.killpg(pgid, signal.SIGKILL)
        _wait_group_gone(pgid)
    os.unlink(pidfile)


class Server:
    """``python -m repro serve`` on a Unix socket, in its own process group.

    The group id is written to a pidfile until the group is gone, so a run
    that was killed outright gets its server reaped by the next run.
    :meth:`stop` kills the whole group (workers included) and waits for it.
    """

    def __init__(self, name: str, extra_args: Sequence[str] = (),
                 ready_timeout_s: float = 60.0) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.pidfile = os.path.join(OUT_DIR, f"{name}.pgid")
        reap_leftover(self.pidfile)
        self.socket_path = os.path.join(OUT_DIR, f"{name}.sock")
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        with open(os.path.join(OUT_DIR, f"{name}.log"), "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--unix", self.socket_path, *extra_args],
                stdout=subprocess.PIPE, stderr=log, env=env,
                start_new_session=True,
            )
        with open(self.pidfile, "w", encoding="ascii") as fh:
            fh.write(str(self.proc.pid))
        try:
            self._wait_ready(ready_timeout_s)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("server did not print its 'serving on' line")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(
                        f"server exited during start-up (code {self.proc.poll()})")
                line += chunk
        if b"serving on" not in line:
            raise BenchError(f"unexpected server output: {line!r}")

    def stop(self) -> None:
        """Kill every process of the group and wait until all have ended."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        _wait_group_gone(self.proc.pid)
        self.proc.stdout.close()
        for path in (self.pidfile, self.socket_path):
            if os.path.exists(path):
                os.unlink(path)


class Conn:
    """One JSON-lines connection to the server's Unix socket."""

    def __init__(self, path: str, timeout_s: float = 60.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self._rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        """Write pre-encoded envelope line(s)."""
        self.sock.sendall(data)

    def recv(self) -> dict:
        """Read one response envelope."""
        line = self._rfile.readline()
        if not line:
            raise BenchError("server closed the connection")
        return json.loads(line)

    def call(self, envelope: dict) -> dict:
        """One request, one response (nothing else may be in flight)."""
        self.send((json.dumps(envelope) + "\n").encode())
        return self.recv()

    def metrics(self) -> Dict[str, dict]:
        """The server's metric snapshot (the ``stats`` op)."""
        return self.call({"op": "stats", "id": "stats"})["metrics"]

    def close(self) -> None:
        """Close the connection."""
        self._rfile.close()
        self.sock.close()


def delta(before: Dict[str, dict], after: Dict[str, dict], name: str,
          key: str = "value") -> float:
    """Change of one metric field between two ``stats`` snapshots."""
    def read(snap: Dict[str, dict]) -> float:
        return float(snap.get(name, {}).get(key, 0.0))
    return read(after) - read(before)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def require(condition: bool, message: str) -> None:
    """Raise :class:`BenchError` unless ``condition`` holds."""
    if not condition:
        raise BenchError(message)


def check_bounds(values: Sequence[float], bounds: Sequence[float]) -> None:
    """Every returned value must be at most its proven upper bound."""
    for i, (v, ub) in enumerate(zip(values, bounds)):
        require(v <= ub * (1 + 1e-9) + 1e-9,
                f"op {i}: value {v!r} exceeds its proven upper bound {ub!r}")
