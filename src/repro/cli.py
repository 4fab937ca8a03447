"""Command line interface: ``repro-sectors`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Write a synthetic instance (any registered family) to JSON.
``solve``
    Solve an instance file with a chosen algorithm, print a report, and
    optionally write the solution to JSON.
``compare``
    Run the standard solver suite on one instance and print a table.
``cover``
    Solve the dual covering problem (serve everyone, minimize antennas).
``online``
    Stream an instance's customers through the online admission policies.
``stats``
    Print instance statistics and an ASCII rendering.
``report``
    Regenerate the compact evaluation report (EXPERIMENTS.md headline rows).
``families``
    List the registered instance families and solver names.
``serve``
    Run the batched async solver service (JSON-lines over TCP / Unix
    socket, see ``docs/SERVICE.md``); drains gracefully on SIGTERM.
``client``
    Talk to a running service: ``solve`` / ``event`` / ``stats`` /
    ``ping`` / ``shutdown``.  ``event`` streams dynamic-workload events
    (add/remove/update customers) into a server-side delta session
    (``docs/ONLINE.md``).

Exit codes (error hygiene contract, ``docs/RESILIENCE.md``): ``0`` success,
``1`` unexpected internal error, ``2`` usage / unknown name, ``3`` invalid
input (malformed JSON, bad instance fields, unreadable files), ``4``
deadline expired (``--timeout`` without ``--fallback``), ``5`` request
shed by an overloaded solver service (``client`` only, the wire status of
``docs/SERVICE.md``).  Errors print one line to stderr — never a raw
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.analysis.tables import format_table
from repro.engine import SolveRequest
from repro.engine import solve as engine_solve
from repro.engine import solver_names, specs
from repro.errors import (
    EXIT_INTERNAL,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    classify,
)
from repro.model import generators as gen
from repro.model.instance import AngleInstance
from repro.model.serialization import load_instance, save_instance, solution_to_dict
from repro.packing.bounds import combined_upper_bound


#: The ``--help`` epilog: the full exit-code contract in one place
#: (mirrors docs/RESILIENCE.md and docs/SERVICE.md).
_EXIT_CODE_EPILOG = """\
exit codes:
  0  success
  1  unexpected internal error (incl. infeasible solver output)
  2  usage error / unknown name
  3  invalid input (malformed JSON, bad instance fields, unreadable files)
  4  deadline expired (--timeout without --fallback)
  5  request shed by an overloaded solver service (client subcommand only)

The same numbers are the solver service's wire status codes; full contract
in docs/RESILIENCE.md and docs/SERVICE.md.
"""


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # noqa: BLE001 - uninstalled source checkout
        import repro

        return repro.__version__


def _solve_algorithm_choices() -> list:
    """``solve --algorithm`` choices, generated from the engine registry."""
    return ["auto"] + sorted(
        set(solver_names("angle")) | set(solver_names("sector"))
    )


def _exact_affordable(instance) -> bool:
    """Whether exponential solvers belong in a compare table."""
    if isinstance(instance, AngleInstance):
        return instance.n <= 12
    return instance.n <= 12 and instance.total_antennas <= 3


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: write a seeded family instance as JSON."""
    params = json.loads(args.params) if args.params else {}
    params.setdefault("seed", args.seed)
    if args.family in gen.ANGLE_FAMILIES:
        inst = gen.ANGLE_FAMILIES[args.family](**params)
    elif args.family in gen.SECTOR_FAMILIES:
        inst = gen.SECTOR_FAMILIES[args.family](**params)
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return 2
    save_instance(inst, args.output)
    print(f"wrote {inst!r} to {args.output}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """``solve``: run one algorithm (or the planner) on an instance file."""
    from contextlib import nullcontext

    from repro.obs import tracing

    inst = load_instance(args.instance)
    timeout = getattr(args, "timeout", None)
    use_fallback = getattr(args, "fallback", False)
    trace_ctx = tracing(args.trace) if getattr(args, "trace", None) else nullcontext()
    chain_result = None
    start = time.perf_counter()
    with trace_ctx:
        if use_fallback:
            from repro.resilience import default_chain_for

            chain = default_chain_for(
                inst,
                eps=args.eps if args.eps < 1.0 else 0.25,
                exact_timeout_s=timeout if timeout is not None else 1.0,
            )
            chain_result = chain.run(inst)
            sol = chain_result.solution
            algo_label = "fallback-chain"
        else:
            report = engine_solve(
                SolveRequest(
                    instance=inst,
                    algorithm=args.algorithm,
                    eps=args.eps,
                    timeout_s=timeout,
                    partition=getattr(args, "partition", "auto"),
                )
            )
            sol = report.solution
            algo_label = (
                f"auto -> {report.algorithm}" if args.algorithm == "auto"
                else report.algorithm
            )
    seconds = time.perf_counter() - start
    if getattr(args, "trace", None):
        print(f"trace events written to {args.trace}")
    sol.verify(inst)
    rows = [
        ["algorithm", algo_label],
        ["value", sol.value(inst)],
        ["served demand", sol.served_demand(inst)],
        ["total demand", inst.total_demand],
        ["seconds", seconds],
    ]
    if chain_result is not None:
        rows.append(["stage", chain_result.stage])
        rows.append(["reason", chain_result.reason])
        rows.append(["degraded", chain_result.degraded])
    if isinstance(inst, AngleInstance):
        ub = combined_upper_bound(inst)
        rows.append(["upper bound", ub])
        rows.append(["ratio vs bound", sol.value(inst) / ub if ub > 0 else 1.0])
    print(format_table(["metric", "value"], rows, title=f"solve {args.instance}"))
    if getattr(args, "render", False) and isinstance(inst, AngleInstance):
        from repro.analysis.viz import render_loads, render_solution

        print()
        print(render_solution(inst, sol))
        print()
        print(render_loads(inst, sol))
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(
            json.dumps(solution_to_dict(sol), indent=2)
        )
        print(f"solution written to {args.output}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: table of every applicable solver on one instance."""
    inst = load_instance(args.instance)
    family = "angle" if isinstance(inst, AngleInstance) else "sector"
    exact_ok = _exact_affordable(inst)
    rows = []
    for spec in specs(family):
        if spec.name == "exact-anytime":
            continue  # duplicates `exact` in a value table
        if spec.complexity == "exponential" and not exact_ok:
            continue
        if spec.rejects(inst) is not None:
            continue
        try:
            report = engine_solve(
                SolveRequest(
                    instance=inst, family=family, algorithm=spec.name,
                    eps=args.eps, use_cache=False,
                )
            )
        except (ValueError, RuntimeError) as exc:
            rows.append([spec.name, "failed", 0.0, str(exc)[:40]])
            continue
        note = spec.variant if spec.variant != "overlap" else ""
        rows.append([spec.name, report.value, report.seconds, note])
    print(
        format_table(
            ["algorithm", "value", "seconds", "note"],
            rows,
            title=f"compare {args.instance}",
        )
    )
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    """``cover``: the dual problem — antennas needed to serve everyone."""
    inst = load_instance(args.instance)
    # The engine verifies the cover and raises ValueError ("angle
    # instances only" -> exit 2) on sector input.
    report = engine_solve(
        SolveRequest(instance=inst, family="covering", eps=args.eps)
    )
    rows = [
        ["antennas used", int(report.value)],
        ["lower bound", report.extra["lower_bound"]],
        ["gap", report.extra["gap"]],
        ["seconds", report.seconds],
    ]
    print(format_table(["metric", "value"], rows, title=f"cover {args.instance}"))
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """``online``: replay the instance through the admission policies."""
    from repro.online import work_conserving_bound

    inst = load_instance(args.instance)
    rows = []
    offline = 0.0
    for name in sorted(solver_names("online")):
        report = engine_solve(
            SolveRequest(instance=inst, family="online", algorithm=name,
                         seed=args.seed)
        )
        offline = report.extra["offline_reference"]
        rows.append([name, report.value, report.extra["competitive"],
                     report.extra["rejected"]])
    floor = work_conserving_bound(inst.antennas, inst.demands)
    print(
        format_table(
            ["policy", "accepted", "vs offline", "rejected"],
            rows,
            title=f"online {args.instance} (offline={offline:.3f}, floor={floor:.3f})",
        )
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: instance statistics table (tightness, concentration)."""
    from repro.analysis.stats import instance_stats
    from repro.analysis.viz import render_instance

    inst = load_instance(args.instance)
    if not isinstance(inst, AngleInstance):
        print("stats currently supports angle instances only", file=sys.stderr)
        return 2
    s = instance_stats(inst)
    rows = [[k, v] for k, v in s.as_dict().items()]
    print(format_table(["statistic", "value"], rows, title=f"stats {args.instance}"))
    print()
    print(render_instance(inst))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: the compact E1..E12 evaluation report."""
    from repro.analysis.report_runner import run_report

    print(run_report(seeds=args.seeds, quick=args.quick))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the solver service until a signal drains it."""
    from repro.service.server import run_service

    chaos = None
    if args.chaos is not None:
        from repro.resilience.chaos import ChaosPolicy

        try:
            chaos = ChaosPolicy.from_spec(args.chaos)
        except ValueError as exc:
            print(f"error: bad --chaos spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return run_service(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        max_batch=args.max_batch,
        flush_interval_s=args.flush_ms / 1000.0,
        queue_bound=args.queue_bound,
        workers=args.workers,
        chaos=chaos,
    )


def cmd_client(args: argparse.Namespace) -> int:
    """``client``: talk to a running service (solve/event/stats/ping/...)."""
    from repro.service.client import ServiceClient, ServiceError

    try:
        client = ServiceClient(host=args.host, port=args.port,
                               unix_path=args.unix)
    except (OSError, ServiceError) as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    with client:
        if args.action == "ping":
            response = client.ping()
            print(json.dumps(response))
            return int(response.get("status", EXIT_INTERNAL))
        if args.action == "shutdown":
            response = client.shutdown()
            print(json.dumps(response))
            return int(response.get("status", EXIT_INTERNAL))
        if args.action == "stats":
            response = client.stats()
            metrics = response.pop("metrics", {})
            rows = [[k, v] for k, v in sorted(response.items()) if k != "id"]
            print(format_table(["field", "value"], rows, title="service stats"))
            service_rows = [
                [name, json.dumps(payload)]
                for name, payload in sorted(metrics.items())
                if name.startswith(("service.", "engine.cache.", "engine.compile."))
            ]
            if service_rows:
                print()
                print(format_table(["metric", "snapshot"], service_rows,
                                   title="service metrics"))
            return int(response.get("status", EXIT_INTERNAL))
        if args.action == "event":
            if not args.session:
                print("error: client event needs --session", file=sys.stderr)
                return EXIT_USAGE
            events = []
            if args.events:
                import pathlib

                events = json.loads(pathlib.Path(args.events).read_text())
                if not isinstance(events, list):
                    print(f"error: {args.events} must hold a JSON list of "
                          f"event dicts (docs/ONLINE.md)", file=sys.stderr)
                    return EXIT_INVALID_INPUT
            resolve = None
            if args.resolve:
                resolve = {"algorithm": args.algorithm}
                if args.eps != 1.0:
                    resolve["eps"] = args.eps
            instance = load_instance(args.instance) if args.instance else None
            response = client.event(
                args.session, events=events, instance=instance,
                resolve=resolve, timeout_s=args.timeout,
            )
            extra = response.get("extra", {})
            rows = [
                ["status", response["status"]],
                ["session", extra.get("session", args.session)],
                ["n", extra.get("n", "?")],
                ["events applied", extra.get("applied", 0)],
            ]
            inner = extra.get("resolve")
            if inner:
                rows.append(["resolve algorithm", inner.get("algorithm", "?")])
                rows.append(["resolve value", inner.get("value", 0.0)])
                rows.append(["resolve seconds", inner.get("seconds", 0.0)])
            if response["status"] != EXIT_OK:
                rows.append(["error", response.get("error", "?")])
            print(format_table(["metric", "value"], rows,
                               title=f"client event {args.session}"))
            return int(response.get("status", EXIT_INTERNAL))
        # action == "solve"
        if not args.instance:
            print("error: client solve needs an instance path", file=sys.stderr)
            return EXIT_USAGE
        instance = load_instance(args.instance)
        responses = client.solve_batch(
            [instance] * args.repeat,
            algorithm=args.algorithm,
            eps=args.eps if args.eps != 1.0 else None,
            timeout_s=args.timeout,
            use_cache=None if args.no_cache is False else False,
            want_solution=args.solution,
        )
    first = responses[0]
    rows = [
        ["status", first["status"]],
        ["algorithm", first.get("algorithm", "?")],
        ["value", first.get("value", 0.0)],
        ["cached", first.get("cached", False)],
        ["batch size (max)", max(r.get("batch_size", 1) for r in responses)],
        ["requests", len(responses)],
        ["ok", sum(1 for r in responses if r["status"] == EXIT_OK)],
    ]
    errors = [r for r in responses if r["status"] != EXIT_OK]
    if errors:
        rows.append(["first error", errors[0].get("error", "?")])
    print(format_table(["metric", "value"], rows,
                       title=f"client solve {args.instance}"))
    if args.output and first.get("solution") is not None:
        import pathlib

        pathlib.Path(args.output).write_text(json.dumps(first["solution"], indent=2))
        print(f"solution written to {args.output}")
    return int(errors[0]["status"]) if errors else EXIT_OK


def cmd_families(args: argparse.Namespace) -> int:
    """``families``: list generator families and their parameters."""
    print("angle families:  " + ", ".join(sorted(gen.ANGLE_FAMILIES)))
    print("sector families: " + ", ".join(sorted(gen.SECTOR_FAMILIES)))
    print()
    rows = [
        [s.name, s.family, s.variant, s.guarantee,
         "exact" if s.exact else "approx", s.complexity]
        for s in specs()
    ]
    print(
        format_table(
            ["solver", "family", "variant", "guarantee", "exactness", "complexity"],
            rows,
            title="registered solvers (repro.engine)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-sectors`` argparse tree (used by docs lint too)."""
    p = argparse.ArgumentParser(
        prog="repro-sectors",
        description="Packing to angles and sectors (SPAA 2007 reproduction)",
        epilog=_EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {_version()}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic instance")
    g.add_argument("family", help="instance family name (see `families`)")
    g.add_argument("output", help="output JSON path")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--params", help="JSON dict of generator keyword args")
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance", help="instance JSON path")
    s.add_argument(
        "--algorithm",
        default="auto",
        choices=_solve_algorithm_choices(),
        help="a registered engine solver, or 'auto' to let the planner "
             "pick from instance size, variant and deadline",
    )
    s.add_argument("--eps", type=float, default=1.0,
                   help="< 1 uses the FPTAS oracle at this eps; 1 = exact oracle")
    s.add_argument("--output", help="write the solution JSON here")
    s.add_argument("--render", action="store_true",
                   help="ASCII-render the solution (angle instances)")
    s.add_argument("--trace", metavar="PATH",
                   help="write structured span events (JSONL) to this file")
    s.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="cooperative wall-clock deadline; without --fallback "
                        "an expired deadline exits with code 4")
    s.add_argument("--fallback", action="store_true",
                   help="degrade exact -> fptas -> greedy instead of failing "
                        "(--timeout bounds the exact stage)")
    s.add_argument("--partition", default="auto",
                   choices=("auto", "never", "force"),
                   help="solve strategy: 'force' decomposes partitionable "
                        "sector solves into reach components with a "
                        "certified merge bound (docs/SCALE.md), 'auto' "
                        "partitions large multi-station instances, 'never' "
                        "forces the monolithic path")
    s.set_defaults(fn=cmd_solve)

    c = sub.add_parser("compare", help="run the solver suite on an instance")
    c.add_argument("instance", help="instance JSON path")
    c.add_argument("--eps", type=float, default=1.0)
    c.set_defaults(fn=cmd_compare)

    cov = sub.add_parser("cover", help="serve everyone with minimum antennas")
    cov.add_argument("instance", help="angle-instance JSON path")
    cov.add_argument("--eps", type=float, default=1.0)
    cov.set_defaults(fn=cmd_cover)

    onl = sub.add_parser("online", help="stream customers through admission policies")
    onl.add_argument("instance", help="angle-instance JSON path")
    onl.add_argument("--seed", type=int, default=0, help="arrival-order shuffle seed")
    onl.set_defaults(fn=cmd_online)

    st = sub.add_parser("stats", help="instance statistics + ASCII rendering")
    st.add_argument("instance", help="angle-instance JSON path")
    st.set_defaults(fn=cmd_stats)

    rep = sub.add_parser("report", help="regenerate the evaluation report")
    rep.add_argument("--seeds", type=int, default=3)
    rep.add_argument("--quick", action="store_true",
                     help="skip the exact-solver experiments")
    rep.set_defaults(fn=cmd_report)

    f = sub.add_parser("families", help="list families and algorithms")
    f.set_defaults(fn=cmd_families)

    sv = sub.add_parser(
        "serve",
        help="run the batched async solver service (docs/SERVICE.md)",
    )
    sv.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    sv.add_argument("--port", type=int, default=7077,
                    help="TCP port (0 binds an ephemeral port, printed on start)")
    sv.add_argument("--unix", metavar="PATH",
                    help="also listen on this Unix socket path")
    sv.add_argument("--max-batch", type=int, default=16,
                    help="most requests one batch dispatch carries")
    sv.add_argument("--flush-ms", type=float, default=5.0,
                    help="micro-batch flush interval in milliseconds")
    sv.add_argument("--queue-bound", type=int, default=256,
                    help="admission limit; excess requests are shed (status 5)")
    sv.add_argument("--workers", type=int,
                    help="number of supervised engine worker subprocesses "
                         "that solve every batch, with shard routing and "
                         "crash recovery (default: REPRO_WORKERS, else the "
                         "CPU count)")
    sv.add_argument("--chaos", metavar="SPEC",
                    help="deterministic service fault injection into the "
                         "workers, e.g. 'seed=7,kill_rate=0.2,corrupt_rate="
                         "0.1' (docs/RESILIENCE.md)")
    sv.set_defaults(fn=cmd_serve)

    cl = sub.add_parser(
        "client",
        help="talk to a running solver service (docs/SERVICE.md)",
    )
    cl.add_argument("action",
                    choices=("solve", "event", "stats", "ping", "shutdown"),
                    help="what to ask the service")
    cl.add_argument("instance", nargs="?",
                    help="instance JSON path (solve; for event it opens or "
                         "rebinds the session)")
    cl.add_argument("--host", default="127.0.0.1", help="service TCP address")
    cl.add_argument("--port", type=int, default=7077, help="service TCP port")
    cl.add_argument("--unix", metavar="PATH",
                    help="connect over this Unix socket instead of TCP")
    cl.add_argument("--algorithm", default="auto",
                    help="engine solver name, or 'auto' for the planner")
    cl.add_argument("--eps", type=float, default=1.0,
                    help="< 1 uses the FPTAS oracle at this eps; 1 = exact oracle")
    cl.add_argument("--timeout", type=float, metavar="SECONDS",
                    help="end-to-end deadline (queue time counts; status 4 "
                         "on expiry)")
    cl.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="pipeline the same solve N times (exercises batching)")
    cl.add_argument("--session", metavar="NAME",
                    help="delta-session name on the service (event action; "
                         "sessions are shard-sticky, docs/ONLINE.md)")
    cl.add_argument("--events", metavar="PATH",
                    help="JSON file holding a list of event dicts to apply "
                         "to the session, e.g. [{\"type\": \"add_customer\", "
                         "\"demand\": 2.0, \"theta\": 0.5}]")
    cl.add_argument("--resolve", action="store_true",
                    help="re-solve the post-event instance in the same "
                         "round trip (uses --algorithm/--eps)")
    cl.add_argument("--no-cache", action="store_true",
                    help="bypass the service's warm result cache")
    cl.add_argument("--solution", action="store_true",
                    help="request the serialized solution in the response")
    cl.add_argument("--output", help="write the returned solution JSON here")
    cl.set_defaults(fn=cmd_client)
    return p


def _error_message(exc: Exception, matched: Optional[type]) -> str:
    """The one stderr line for a failure the exit-code table classified."""
    from repro.model.solution import FeasibilityError
    from repro.resilience import BudgetExpired

    if matched is BudgetExpired:
        return (f"deadline expired ({exc.reason}); "
                f"re-run with --fallback for a degraded answer")
    if matched is json.JSONDecodeError:
        return f"malformed JSON: {exc}"
    if matched is FeasibilityError:
        return f"solver produced an infeasible solution: {exc}"
    if matched is None:
        return f"unexpected {type(exc).__name__}: {exc}"
    return str(exc)


def main(argv: Optional[list] = None) -> int:
    """Parse and dispatch; route failures to documented exit codes.

    Never lets a traceback reach the terminal: every failure maps to one
    stderr line and the exit code of :data:`repro.errors.ERROR_CODES`,
    the table the service wire classifies by too.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - classified by the shared table
        matched, code = classify(exc)
        print(f"error: {_error_message(exc, matched)}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
