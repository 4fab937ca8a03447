"""E8 — parallel fan-out speedup.

Benchmarks the process-pool layer against serial execution on an
embarrassingly parallel workload shaped like the experiment harness: many
independent instance solves.  Absolute speedup is machine-dependent; the
reproducible claims are (a) identical results serial vs parallel, and
(b) the pool does not *lose* badly even with pickling overhead.
"""

import pytest

from repro.knapsack import get_solver
from repro.model import generators as gen
from repro.packing.multi import solve_greedy_multi
from repro.parallel import parallel_map

GREEDY = get_solver("greedy")


def solve_seed(seed: int) -> float:
    inst = gen.clustered_angles(n=80, k=3, seed=seed)
    return solve_greedy_multi(inst, GREEDY).value(inst)


SEEDS = list(range(24))


def test_e8_results_identical():
    serial = parallel_map(solve_seed, SEEDS, workers=1)
    par = parallel_map(solve_seed, SEEDS, workers=2)
    assert serial == par


def test_e8_serial(benchmark):
    total = benchmark.pedantic(
        lambda: sum(parallel_map(solve_seed, SEEDS, workers=1)),
        rounds=3,
        iterations=1,
    )
    assert total > 0


@pytest.mark.parametrize("workers", [2, 4])
def test_e8_parallel(benchmark, workers):
    total = benchmark.pedantic(
        lambda: sum(parallel_map(solve_seed, SEEDS, workers=workers)),
        rounds=3,
        iterations=1,
    )
    assert total > 0
