"""Tests for the bench harness (repro.obs.bench) and its frozen schema."""

import copy
import json
import os
import pathlib
import signal

import pytest

from repro.model import generators
from repro.obs.bench import (
    BENCH_SECTIONS,
    RUNNABLE_SECTIONS,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    _run_supervised_bench,
    load_bench,
    run_bench,
    validate_bench,
    write_bench,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def payload():
    """One small real bench run, shared across the module (it's the slow part)."""
    return run_bench(
        families=("uniform", "disk"), n=20, k=2, seeds=(0, 1), tag="test"
    )


class TestRunBench:
    def test_header(self, payload):
        assert payload["schema"] == SCHEMA_NAME
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["tag"] == "test"
        assert payload["config"]["families"] == ["uniform", "disk"]
        assert payload["config"]["oracle"]  # resolved oracle name recorded

    def test_runs_cover_both_kinds(self, payload):
        kinds = {r["kind"] for r in payload["runs"]}
        assert kinds == {"angle", "sector"}
        # default angle suite x 2 seeds + default sector suite x 2 seeds
        assert len(payload["runs"]) == (4 + 2) * 2

    def test_ratios_certified(self, payload):
        for run in payload["runs"]:
            assert 0.0 <= run["ratio_vs_bound"] <= 1.0 + 1e-6
            assert run["value"] <= run["upper_bound"] * (1 + 1e-6) + 1e-9

    def test_oracle_pressure_recorded(self, payload):
        angle_runs = [r for r in payload["runs"] if r["kind"] == "angle"]
        assert all(r["oracle_calls"] > 0 for r in angle_runs)
        # Only the rotation-search solvers enumerate candidate windows.
        rotation_runs = [r for r in angle_runs if r["solver"] in ("greedy", "adaptive")]
        assert rotation_runs
        assert all(r["candidate_windows"] > 0 for r in rotation_runs)
        assert all(r["phases"].get("rotation", 0.0) > 0.0 for r in rotation_runs)

    def test_summary_aggregates(self, payload):
        summary = payload["summary"]
        assert set(summary) == {r["solver"] for r in payload["runs"]}
        for name, s in summary.items():
            mine = [r for r in payload["runs"] if r["solver"] == name]
            assert s["runs"] == len(mine)
            assert s["peak_oracle_calls"] == max(r["oracle_calls"] for r in mine)
            assert s["min_ratio_vs_bound"] == pytest.approx(
                min(r["ratio_vs_bound"] for r in mine)
            )

    def test_solver_subset_and_unknown(self, payload):
        sub = run_bench(families=("uniform",), n=12, k=2, seeds=(0,),
                        solvers=("greedy",), tag="sub")
        assert {r["solver"] for r in sub["runs"]} == {"greedy"}
        with pytest.raises(ValueError, match="unknown solver"):
            run_bench(families=("uniform",), n=12, solvers=("bogus",))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            run_bench(families=("not-a-family",), n=12)

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="unknown bench section"):
            run_bench(families=("uniform",), n=12, sections=("bogus_bench",))

    def test_sections_append_validated_payload_sections(self):
        out = run_bench(families=("uniform",), n=12, k=2, seeds=(0,),
                        solvers=("greedy",), tag="sections",
                        sections=("cache_bench", "online_bench"),
                        online_n=600, online_events=8)
        assert [key for key in out if key.endswith("_bench")] == [
            "cache_bench", "online_bench"]
        assert out["online_bench"]["identity_events"] == 8
        assert validate_bench(out) is out

    def test_cache_section_needs_an_angle_family(self):
        with pytest.raises(ValueError, match="at least one angle family"):
            run_bench(families=("disk",), n=12, sections=("cache_bench",))


class TestValidateBench:
    def test_accepts_real_payload(self, payload):
        assert validate_bench(payload) is payload

    def test_round_trip(self, payload, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench(payload, str(path))
        loaded = load_bench(str(path))
        assert loaded == json.loads(json.dumps(payload))  # JSON-stable

    @pytest.mark.parametrize(
        "mutate, msg",
        [
            (lambda p: p.__setitem__("schema", "other"), "schema"),
            (lambda p: p.__setitem__("schema_version", 99), "schema_version"),
            (lambda p: p.__setitem__("tag", ""), "tag"),
            (lambda p: p.__setitem__("runs", []), "runs"),
            (lambda p: p["runs"][0].pop("wall_time_s"), "wall_time_s"),
            (lambda p: p["runs"][0].__setitem__("wall_time_s", -1.0), "negative"),
            (lambda p: p["runs"][0].__setitem__("kind", "cube"), "kind"),
            (lambda p: p["runs"][0].__setitem__("oracle_calls", 1.5), "oracle_calls"),
            (lambda p: p["runs"][0].__setitem__("ratio_vs_bound", 2.0), "ratio_vs_bound"),
            (lambda p: p["runs"][0].__setitem__(
                "value", p["runs"][0]["upper_bound"] * 2 + 1), "upper bound"),
            (lambda p: p["summary"].__setitem__("extra-solver",
                                                next(iter(p["summary"].values()))),
             "summary solvers"),
            (lambda p: p["runs"][0]["phases"].__setitem__("rotation", -0.5), "phases"),
        ],
    )
    def test_rejects_broken_payloads(self, payload, mutate, msg):
        broken = copy.deepcopy(payload)
        mutate(broken)
        with pytest.raises(ValueError, match=msg):
            validate_bench(broken)

    def test_write_refuses_invalid(self, payload, tmp_path):
        broken = copy.deepcopy(payload)
        broken["schema"] = "nope"
        with pytest.raises(ValueError):
            write_bench(broken, str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()


COMMITTED = sorted(ROOT.glob("BENCH_pr*.json"))


class TestCommittedBaseline:
    def test_baselines_exist(self):
        assert ROOT / "BENCH_pr1.json" in COMMITTED

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
    def test_committed_payload_is_valid(self, path):
        payload = load_bench(str(path))
        assert payload["tag"] == path.stem[len("BENCH_"):]


class TestSectionFlags:
    def test_cli_generates_one_flag_per_section(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--help"])
        help_text = capsys.readouterr().out
        for flag in ("--cache-bench", "--service-bench", "--compile-bench",
                     "--scale-bench", "--online-bench", "--scenario-bench"):
            assert flag in help_text
        # backend_bench stays declared (BENCH_pr6-pr10 validate) but has
        # no runner, so it gets no flag.
        assert "--backend-bench" not in help_text
        assert len(BENCH_SECTIONS) == 7
        assert len(RUNNABLE_SECTIONS) == 6
        args = parser.parse_args(["bench", "--scale-bench"])
        assert [s.name for s in RUNNABLE_SECTIONS
                if getattr(args, s.name)] == ["scale_bench"]


class TestSupervisedBench:
    """The supervised section must fail when it measured the fallback."""

    INSTANCES = [generators.uniform_angles(n=10, k=2, seed=s) for s in range(6)]

    def test_healthy_pool_records_kill_phase_deltas(self):
        section = _run_supervised_bench(self.INSTANCES, algorithm="greedy",
                                        eps=0.5)
        assert section["requests"] == len(self.INSTANCES)
        # Deltas of one kill burst, not process-wide running totals.
        assert section["degraded"] <= len(self.INSTANCES)
        payload = copy.deepcopy(load_bench(str(ROOT / "BENCH_pr7.json")))
        payload["service_bench"]["supervised"] = section
        validate_bench(payload)

    def test_degraded_clean_phase_raises(self, monkeypatch):
        import repro.service as service
        from repro.service import ServiceClient

        real_start = service.start_in_thread

        def start_with_workers_down(**kwargs):
            # A sleepy probe loop holds the killed workers down for the
            # whole clean burst, so it is served in-process.
            kwargs["supervisor_options"] = {
                "probe_interval_s": 1.0,
                "restart_backoff_s": 0.2,
                "call_timeout_s": 5.0,
            }
            handle = real_start(**kwargs)
            with ServiceClient(port=handle.port, timeout_s=60.0) as client:
                for worker in client.stats()["workers"]["workers"]:
                    os.kill(worker["pid"], signal.SIGKILL)
            return handle

        monkeypatch.setattr(service, "start_in_thread", start_with_workers_down)
        with pytest.raises(RuntimeError, match="in-process fallback"):
            _run_supervised_bench(self.INSTANCES, algorithm="greedy", eps=0.5)


class TestScenarioBench:
    """The constraint-pipeline section after the backend knob's retirement."""

    def test_small_run_validates_without_rows(self):
        from repro.obs.bench import _run_scenario_bench

        section = _run_scenario_bench(eps=0.5, n=1_000, towns=3,
                                      identity_n=600, identity_towns=3,
                                      repeats=1)
        assert "rows" not in section
        payload = copy.deepcopy(load_bench(str(ROOT / "BENCH_pr10.json")))
        payload["scenario_bench"] = section
        validate_bench(payload)

    def test_mask_mismatch_raises(self, monkeypatch):
        import repro.model.constraints as constraints
        from repro.obs.bench import _run_scenario_bench

        real = constraints._numpy_station_masks

        def flipped(*args, **kwargs):
            masks = real(*args, **kwargs)
            if masks is not None:
                masks[0] = ~masks[0]
            return masks

        monkeypatch.setattr(constraints, "_numpy_station_masks", flipped)
        with pytest.raises(RuntimeError, match="diverge at station 0"):
            _run_scenario_bench(eps=0.5, n=1_000, towns=3, identity_n=600,
                                identity_towns=3, repeats=1)

    def test_history_section_is_not_runnable(self):
        with pytest.raises(ValueError, match="unknown bench section"):
            run_bench(families=("uniform",), n=12, sections=("backend_bench",))
