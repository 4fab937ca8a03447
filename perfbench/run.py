"""Run one perfbench workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-burst --seed 1 --seconds 30 --trace 0

The package under test is imported from the checkout's ``src/`` only;
without it the run exits with code 2 before printing a result.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A violated
correctness or health check exits with code 1 and prints no result.
Workloads, layers and predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import statistics
import sys
import time

from lib import ROOT, SRC

#: Hard limit on one run; the run must end well inside 180 s.
RUN_DEADLINE_S = 170

WORKLOADS = ("serve-burst", "plan-metro")


def _import_repro() -> None:
    """Import the package from this checkout's ``src/`` or exit with code 2."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Aborted(BaseException):
    """The run hit its deadline or got a signal.

    A ``BaseException`` so that no ``except Exception`` in the code under
    test can swallow it.
    """


def _abort(signum, frame):
    # Pool workers busy in a solve would keep the pool's shutdown waiting.
    for child in multiprocessing.active_children():
        child.kill()
    raise Aborted(signal.Signals(signum).name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _import_repro()
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    import lib
    import plan_metro
    import serve_burst

    module = dict(zip(WORKLOADS, (serve_burst, plan_metro)))[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _abort)
    signal.alarm(RUN_DEADLINE_S)
    lib.flag_busy_machine()
    ctx = None
    try:
        setups = []
        for _ in range(module.SETUP_REPEATS):
            if ctx is not None:
                module.teardown(ctx)
                ctx = None
            t0 = time.perf_counter()
            ctx = module.setup(args.seed, args.seconds)
            setups.append((time.perf_counter() - t0, ctx.setup_parts))
        setup_s = statistics.median(s for s, _ in setups)
        if args.trace:
            tracer = lib.Tracer()
            if module.TRACES_IN_PHASE:
                untraced = module.phase(ctx, args.seconds / 2)
                traced = module.phase(ctx, args.seconds / 2, tracer)
                phases = [untraced, traced]
            else:
                traced = module.phase(ctx, args.seconds)
                phases = [traced]
            module.check(ctx, phases)
            t0 = time.perf_counter()
            values = module.per_layer(ctx, traced, tracer)
            values["trace.overhead_ms"] = 1e3 * (
                lib.median(traced.latencies) - lib.median(untraced.latencies)
                if module.TRACES_IN_PHASE else
                # Spans built after the phase cannot slow it; report what
                # building them and the replays cost per op instead.
                (time.perf_counter() - t0) / traced.attempted)
            for part in ("server_ready_s", "inputs_s", "warmup_s"):
                values[f"setup.{part}"] = statistics.median(
                    p.get(part, 0.0) for _, p in setups)
            os.makedirs(lib.OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(
                lib.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            result = module.phase(ctx, args.seconds)
            module.check(ctx, [result])
            values = module.end_to_end(ctx, result)
            values["setup_s"] = setup_s
            phases = [result]
    except (lib.BenchError, Aborted) as exc:
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if ctx is not None:
            module.teardown(ctx)
        signal.alarm(0)

    names = {m["name"]: m["unit"] for m in declared}
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
    metrics = {}
    for name, unit in names.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            print(f"perfbench: {args.workload}: {name} is {value}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": True,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
