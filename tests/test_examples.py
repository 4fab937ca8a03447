"""Smoke tests: every example script runs end-to-end and prints output.

Examples are documentation; a rotted example is worse than none.  Each is
executed in-process via runpy with stdout captured.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report, not a silent exit


def test_all_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "cellular_downlink",
        "stadium_hotspots",
        "wisp_splittable",
        "online_admission",
        "coverage_planning",
        "day_night_steering",
    } <= names
