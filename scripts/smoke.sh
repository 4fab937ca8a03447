#!/usr/bin/env bash
# Smoke check: tier-1 test suite, slow scale/timing gates, lints, and the
# CLI end to end (resilience, service, chaos).
#
# Run from anywhere:  scripts/smoke.sh
# The resilience half drives the deadline/fallback paths end to end through
# the CLI (docs/RESILIENCE.md).  Performance is measured by the repository
# benchmark instead (perfbench/README.md).

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== slow marker (one scale case, two timing gates) =="
# Tier-1 deselects `slow` (pyproject addopts); the smoke runs one marked
# scale case so the n >= 1e5 partition path stays exercised in CI, plus the
# delta-apply (>= 5x recompile) and constraint-compose (< 10% of compile)
# timing gates.
python -m pytest -x -q -m slow -o addopts="" \
    tests/test_partition.py::TestScale::test_partitioned_matches_monolithic_at_scale \
    tests/test_online_delta.py::TestTimingGate \
    tests/test_constraints.py::TestComposeOverheadGate

echo "== docs lint =="
# 100% public docstring coverage; every metric name, CLI flag and relative
# link mentioned in docs/ + README must exist (docs/INDEX.md conventions);
# no unused module-level import in src/, tests/, scripts/ (F401, no ruff needed).
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
# The anytime exact solver, bounded by --timeout: returns its incumbent.
python -m repro solve "$inst" --algorithm exact-anytime --timeout 1.0

echo "== service smoke =="
# Serve on a unix socket with the default supervised worker pool, solve
# through the client, drain on SIGTERM (docs/SERVICE.md): the server must
# answer while up and exit 0 on drain.  The socket appears once the
# workers are up, so the wait matches the chaos smoke below.
sock="$tmp/repro.sock"
python -m repro serve --port 0 --unix "$sock" &
serve_pid=$!
for _ in $(seq 1 100); do
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
