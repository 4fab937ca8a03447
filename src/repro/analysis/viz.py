"""ASCII visualisation: render angle instances and solutions in a terminal.

No plotting stack is available offline; these renderers give examples and
debugging sessions a way to *see* an instance — a linearised strip of the
circle with customers, and the arcs of a solution drawn above it.

Example output (width 64)::

    antenna arcs   [0===0]      [1=======1]
    customers      .  *  :* .      *   . **   *
                   0        pi/2        pi       3pi/2       2pi
"""

from __future__ import annotations

from typing import List

from repro.geometry.angles import TWO_PI
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution


def _column(theta: float, width: int) -> int:
    return min(int(theta / TWO_PI * width), width - 1)


def render_instance(
    instance: AngleInstance, width: int = 72, demand_levels: str = ".:*#@"
) -> str:
    """One-line strip of the circle; denser glyphs = larger demand.

    Customers sharing a column show the larger demand's glyph.
    """
    if width < 16:
        raise ValueError("width must be at least 16 columns")
    strip = [" "] * width
    if instance.n:
        dmax = float(instance.demands.max())
        levels = len(demand_levels)
        for theta, d in zip(instance.thetas, instance.demands):
            col = _column(float(theta), width)
            lvl = min(int(d / dmax * levels), levels - 1)
            cur = strip[col]
            if cur == " " or demand_levels.index(cur) < lvl:
                strip[col] = demand_levels[lvl]
    axis = [" "] * width
    for frac, label in [(0.0, "0"), (0.25, "pi/2"), (0.5, "pi"), (0.75, "3pi/2")]:
        col = _column(frac * TWO_PI, width)
        for i, ch in enumerate(label):
            if col + i < width:
                axis[col + i] = ch
    return "customers  |" + "".join(strip) + "|\n           |" + "".join(axis) + "|"


def render_solution(
    instance: AngleInstance,
    solution: AngleSolution,
    width: int = 72,
) -> str:
    """Arc rows (one per antenna) above the customer strip.

    Served customers are drawn with the antenna's digit; unserved keep
    their demand glyph.
    """
    rows: List[str] = []
    for j in range(instance.k):
        line = [" "] * width
        start = float(solution.orientations[j])
        rho = instance.antennas[j].rho
        a = _column(start, width)
        b = _column((start + min(rho, TWO_PI - 1e-9)) % TWO_PI, width)
        mark = str(j % 10)
        if rho >= TWO_PI - 1e-9:
            for c in range(width):
                line[c] = "="
        elif a <= b:
            for c in range(a, b + 1):
                line[c] = "="
        else:  # wraps
            for c in range(a, width):
                line[c] = "="
            for c in range(0, b + 1):
                line[c] = "="
        line[a] = mark
        line[b] = mark
        rows.append(f"antenna {j}  |" + "".join(line) + "|")

    strip = [" "] * width
    if instance.n:
        for i in range(instance.n):
            col = _column(float(instance.thetas[i]), width)
            a = solution.assignment[i]
            strip[col] = str(int(a) % 10) if a >= 0 else "."
    rows.append("served     |" + "".join(strip) + "|")
    return "\n".join(rows)


def render_loads(
    instance: AngleInstance, solution: AngleSolution, width: int = 40
) -> str:
    """Horizontal utilisation bars, one per antenna."""
    loads = solution.loads(instance)
    rows = []
    for j in range(instance.k):
        cap = instance.antennas[j].capacity
        frac = 0.0 if cap <= 0 else min(loads[j] / cap, 1.0)
        filled = int(round(frac * width))
        rows.append(
            f"antenna {j} [{'#' * filled}{'.' * (width - filled)}] "
            f"{loads[j]:.2f}/{cap:.2f}"
        )
    return "\n".join(rows)
