#!/usr/bin/env python
"""Compare two bench payloads and flag throughput regressions.

Usage::

    python scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.2]

Diffs every *shared* throughput metric — sections or fields present in
only one payload are reported as informational and never fail the
comparison, so a newer payload may add sections (e.g. ``compile_bench``)
without breaking comparisons against older baselines.  The metrics are
read from the section declarations in ``repro.obs.bench`` (each
``BenchSection``'s ``metrics``): per-solver solve rates from
``summary``, and each optional section's rates, speedups and inverted
wall times — e.g. ``scenario_bench.compose_headroom``, the inverse
mask-compose overhead ratio, so a compose slowdown reads as a
throughput regression.  Run it with ``PYTHONPATH=src``.

Exit status: ``0`` when no shared metric regressed by more than
``--threshold`` (default 20%), ``1`` when at least one did, ``2`` on
bad inputs.  All metrics are oriented so that **higher is better**;
micro-benchmark wall times are noisy, so the intended wiring is an
*advisory* invocation (see ``scripts/smoke.sh``) — except for sections
named with ``--enforce``.

``--enforce SECTION`` (repeatable, e.g. ``--enforce backend_bench``)
narrows the *failing* set: only regressions in metrics of the named
sections set the exit code, everything else stays advisory (still
printed).  An enforced section missing from the candidate payload is
itself a failure — the gate cannot silently pass by dropping the
section it guards.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple

from repro.obs.bench import PAYLOAD, BenchSection


def _flatten(section: BenchSection, obj: dict, prefix: str,
             out: Dict[str, float]) -> None:
    """Collect ``section``'s declared metrics from ``obj`` as ``prefix+name``."""
    for spec in section.metrics:
        name, _, ratio = spec.partition("=")
        if not ratio:
            if name in obj:
                out[prefix + name] = obj[name]
            continue
        num, _, den = ratio.partition("/")
        top = 1.0 if num == "1" else obj.get(num, 0)
        if top and obj.get(den, 0.0) > 0:
            out[prefix + name] = top / obj[den]
    for part in section.parts:
        value = obj.get(part.name)
        if not value:
            continue
        if not part.many:
            _flatten(part, value, f"{prefix}{part.name}.", out)
            continue
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, element in items:
            label = part.label.format(key=key, **element)
            _flatten(part, element, f"{prefix}{label}.", out)


def _throughputs(payload: dict) -> Dict[str, float]:
    """Flatten every higher-is-better metric the payload carries."""
    out: Dict[str, float] = {}
    _flatten(PAYLOAD, payload, "", out)
    return out


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != "repro.bench":
        raise ValueError(f"{path}: not a repro.bench payload")
    return payload


def _compare(
    base: Dict[str, float], cand: Dict[str, float], threshold: float
) -> Iterator[Tuple[str, str, float, float, float]]:
    """Yield ``(status, metric, baseline, candidate, ratio)`` rows."""
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            yield ("new", name, float("nan"), cand[name], float("nan"))
            continue
        if name not in cand:
            yield ("gone", name, base[name], float("nan"), float("nan"))
            continue
        ratio = cand[name] / base[name] if base[name] > 0 else float("inf")
        status = "REGRESSED" if ratio < 1.0 - threshold else "ok"
        yield (status, name, base[name], cand[name], ratio)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="max tolerated fractional throughput drop (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--enforce", action="append", metavar="SECTION", default=None,
        help="only regressions in this section's metrics set the exit code "
             "(repeatable); the section must be present in the candidate",
    )
    args = parser.parse_args(argv)
    try:
        base_payload = _load(args.baseline)
        cand_payload = _load(args.candidate)
        base = _throughputs(base_payload)
        cand = _throughputs(cand_payload)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    for section in args.enforce or ():
        if section != "summary" and section not in cand_payload:
            print(
                f"bench_compare: enforced section {section!r} missing from "
                f"{args.candidate}",
                file=sys.stderr,
            )
            return 1
    if not base or not cand:
        print("bench_compare: no throughput metrics found", file=sys.stderr)
        return 2

    enforced_prefixes = tuple(f"{s}." for s in args.enforce or ())

    def _enforced(name: str) -> bool:
        return not enforced_prefixes or name.startswith(enforced_prefixes)

    regressions = 0
    failing = 0
    shared = 0
    width = max(len(name) for name in set(base) | set(cand))
    print(f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  ratio")
    for status, name, b, c, ratio in _compare(base, cand, args.threshold):
        if status == "new":
            print(f"{name:<{width}}  {'-':>12}  {c:>12.3f}  (new section)")
            continue
        if status == "gone":
            print(f"{name:<{width}}  {b:>12.3f}  {'-':>12}  (not in candidate)")
            continue
        shared += 1
        if status == "REGRESSED":
            regressions += 1
            marker = "  <-- REGRESSED"
            if _enforced(name):
                failing += 1
            else:
                marker += " (advisory)"
        else:
            marker = ""
        print(f"{name:<{width}}  {b:>12.3f}  {c:>12.3f}  {ratio:5.2f}x{marker}")
    scope = (
        f" ({len(enforced_prefixes)} enforced section(s): "
        f"{', '.join(args.enforce)}; {failing} failing)"
        if enforced_prefixes
        else ""
    )
    print(
        f"\n{shared} shared metrics, {regressions} regressed more than "
        f"{args.threshold:.0%}{scope} ({args.baseline} -> {args.candidate})"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
