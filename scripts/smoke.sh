#!/usr/bin/env bash
# Smoke check: tier-1 test suite + one tiny bench round-trip + resilience.
#
# Run from anywhere:  scripts/smoke.sh
# The bench half exercises the full observability stack (metrics registry,
# solver instrumentation, payload emission) and validates the emitted JSON
# against the frozen repro.bench schema (docs/OBSERVABILITY.md).  The
# resilience half drives the deadline/fallback paths end to end through
# the CLI (docs/RESILIENCE.md).

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== slow marker (one scale case) =="
# Tier-1 deselects `slow` (pyproject addopts); the smoke runs exactly one
# marked scale case so the n >= 1e5 partition path stays exercised in CI.
python -m pytest -x -q -m slow -o addopts="" \
    tests/test_partition.py::TestScale::test_partitioned_matches_monolithic_at_scale

echo "== docs lint =="
# 100% public docstring coverage; every metric name, CLI flag and relative
# link mentioned in docs/ + README must exist (docs/INDEX.md conventions).
python scripts/check_docs.py

echo "== ruff lint =="
# Advisory-by-availability: ruff is not a dependency of this package, so
# the gate only runs where a binary exists (config: pyproject.toml, rules
# limited to pyflakes + import ordering).
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests scripts
else
    echo "ruff not installed; skipping lint"
fi

echo "== engine registry completeness =="
# Every packing export must be claimed by a registered SolverSpec, every
# knapsack oracle / online policy must be registered, and every spec must
# solve a tiny instance end to end (docs/ENGINE.md).
python - <<'PY'
from repro.engine import check_registry, smoke_check

problems = check_registry() + smoke_check()
for p in problems:
    print(f"registry problem: {p}")
raise SystemExit(1 if problems else 0)
PY

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== bench round-trip =="
out="$tmp/BENCH_smoke.json"
python -m repro bench --families uniform --n 50 --seeds 0 \
    --solvers greedy,shifting --tag smoke --output "$out"
python -m repro bench --check "$out"

echo "== scale bench round-trip =="
# Small-n partition-strategy smoke: exercises the monolithic-vs-partitioned
# section (merge-bound soundness is asserted inside the harness; a
# violation aborts the bench) and validates the payload with the section
# present.  Sizes stay tiny here — the full curves live in BENCH_pr8.json.
scale_out="$tmp/BENCH_scale_smoke.json"
python - "$scale_out" <<'PY'
import sys

from repro.obs.bench import run_bench, write_bench

payload = run_bench(
    families=("uniform",), n=50, seeds=(0,), solvers=("greedy",),
    tag="scale-smoke", sections=("scale_bench",), scale_sizes=(2_000, 5_000),
)
write_bench(payload, sys.argv[1])
PY
python -m repro bench --check "$scale_out"

echo "== online bench round-trip =="
# Small-n delta-apply smoke: exercises the online_bench section (per-event
# value identity and per-sector invalidation are asserted inside the
# harness; the 5x speedup gate only arms at n >= 1e4, so this stays below
# it) and validates the payload with the section present.
online_out="$tmp/BENCH_online_smoke.json"
python - "$online_out" <<'PY'
import sys

from repro.obs.bench import run_bench, write_bench

payload = run_bench(
    families=("uniform",), n=50, seeds=(0,), solvers=("greedy",),
    tag="online-smoke", sections=("online_bench",), online_n=1_500,
    online_events=24,
)
write_bench(payload, sys.argv[1])
PY
python -m repro bench --check "$online_out"

echo "== scenario bench round-trip =="
# Small-n constraint-pipeline smoke: exercises the scenario_bench section
# (scalar-vs-vectorized mask composition identity and constrained solve
# feasibility are asserted inside the harness; the <10% compose-overhead
# gate only arms at n >= 5e4, so this stays below it) and validates the
# payload with the section present.
scenario_out="$tmp/BENCH_scenario_smoke.json"
python - "$scenario_out" <<'PY'
import sys

from repro.obs.bench import run_bench, write_bench

payload = run_bench(
    families=("uniform",), n=50, seeds=(0,), solvers=("greedy",),
    tag="scenario-smoke", sections=("scenario_bench",), scenario_n=2_000,
)
write_bench(payload, sys.argv[1])
PY
python -m repro bench --check "$scenario_out"

echo "== bench comparison (advisory) =="
# Throughput diff between the two most recent committed payloads.  Wall
# times from different machines/sessions are noisy, so a regression here
# warns without failing the smoke (see scripts/bench_compare.py).
if [ -f BENCH_pr9.json ] && [ -f BENCH_pr10.json ]; then
    python scripts/bench_compare.py BENCH_pr9.json BENCH_pr10.json ||
        echo "bench_compare: advisory throughput regression (not fatal)"
fi

echo "== bench comparison (enforced: backend_bench, service_bench, scale_bench, online_bench, scenario_bench) =="
# Sections the smoke *enforces*: the committed payload must carry them,
# and once a baseline payload has them too, >20% regressions in their
# metrics fail the smoke (no advisory fallback here — see
# scripts/bench_compare.py --enforce).  backend_bench stays pinned to
# the pr5->pr6 pair that introduced it; service_bench to pr6->pr7;
# scale_bench to pr8->pr9; online_bench to pr9->pr10; scenario_bench is
# enforced from pr10 on (guarded until BENCH_pr11 exists).
if [ -f BENCH_pr6.json ]; then
    python scripts/bench_compare.py BENCH_pr5.json BENCH_pr6.json \
        --enforce backend_bench
fi
if [ -f BENCH_pr7.json ]; then
    python scripts/bench_compare.py BENCH_pr6.json BENCH_pr7.json \
        --enforce service_bench
fi
if [ -f BENCH_pr9.json ]; then
    python scripts/bench_compare.py BENCH_pr8.json BENCH_pr9.json \
        --enforce scale_bench
fi
if [ -f BENCH_pr10.json ]; then
    python scripts/bench_compare.py BENCH_pr9.json BENCH_pr10.json \
        --enforce online_bench
fi
if [ -f BENCH_pr11.json ]; then
    python scripts/bench_compare.py BENCH_pr10.json BENCH_pr11.json \
        --enforce scenario_bench
fi

echo "== resilience smoke =="
inst="$tmp/inst.json"
python -m repro generate clustered "$inst" --seed 3 --params '{"n": 40, "k": 3}'
# Exact solve under a 1-second cooperative deadline, degrading through the
# fallback chain (exact -> fptas -> greedy) instead of failing.
python -m repro solve "$inst" --fallback --timeout 1.0
# A zero deadline without --fallback must exit 4 (deadline expired), not 1.
code=0
python -m repro solve "$inst" --algorithm greedy --timeout 0 2>/dev/null || code=$?
if [ "$code" -ne 4 ]; then
    echo "expected exit 4 from an expired deadline, got $code" >&2; exit 1
fi
# Bench including the exact solver, bounded per-solve by --timeout.
python -m repro bench --families uniform --n 30 --seeds 0 \
    --solvers greedy,exact --timeout 1.0 --tag smoke-resilience \
    --output "$tmp/BENCH_resilience.json"
python -m repro bench --check "$tmp/BENCH_resilience.json"

echo "== service smoke =="
# Serve on a unix socket, solve through the client, drain on SIGTERM
# (docs/SERVICE.md): the server must answer while up and exit 0 on drain.
sock="$tmp/repro.sock"
python -m repro serve --port 0 --unix "$sock" &
serve_pid=$!
for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
done
python -m repro client ping --unix "$sock"
python -m repro client solve "$inst" --unix "$sock" --algorithm greedy --repeat 8
# Dynamic-workload round trip (docs/ONLINE.md): open a delta session by
# attaching the instance, stream events into it, re-solve in-flight.
events="$tmp/events.json"
cat > "$events" <<'JSON'
[{"type": "add_customer", "demand": 1.5, "theta": 0.7},
 {"type": "update_demand", "index": 0, "demand": 2.0, "profit": 2.0},
 {"type": "remove_customer", "index": 3}]
JSON
python -m repro client event "$inst" --unix "$sock" --session smoke-session
python -m repro client event --unix "$sock" --session smoke-session \
    --events "$events" --resolve --algorithm greedy
kill -TERM "$serve_pid"
code=0
wait "$serve_pid" || code=$?
if [ "$code" -ne 0 ]; then
    echo "expected exit 0 from a drained service, got $code" >&2; exit 1
fi

echo "== chaos smoke =="
# Supervised workers with deterministic kill injection (docs/SERVICE.md,
# docs/RESILIENCE.md): every request must still answer (client exits 0 =
# all statuses 0, so zero lost requests) and the drain must exit 0 with
# the worker pool being killed underneath it.
chaos_sock="$tmp/repro-chaos.sock"
python -m repro serve --port 0 --unix "$chaos_sock" \
    --workers 2 --chaos "seed=5,kill_rate=0.2" &
chaos_pid=$!
for _ in $(seq 1 100); do
    [ -S "$chaos_sock" ] && break
    sleep 0.1
done
python -m repro client solve "$inst" --unix "$chaos_sock" \
    --algorithm greedy --repeat 8 --no-cache
kill -TERM "$chaos_pid"
code=0
wait "$chaos_pid" || code=$?
if [ "$code" -ne 0 ]; then
    echo "expected exit 0 from a drained chaos service, got $code" >&2; exit 1
fi

echo "smoke OK"
