"""End-to-end tests for the CLI (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.model.serialization import load_instance, solution_from_dict


def run(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_angle_family(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        assert run(["generate", "uniform", out, "--seed", "1",
                    "--params", '{"n": 12, "k": 2}']) == 0
        inst = load_instance(out)
        assert inst.n == 12
        assert "wrote" in capsys.readouterr().out

    def test_sector_family(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["generate", "disk", out, "--params", '{"n": 10}']) == 0
        inst = load_instance(out)
        assert inst.n == 10

    def test_unknown_family(self, tmp_path, capsys):
        assert run(["generate", "bogus", tmp_path / "x.json"]) == 2
        assert "unknown family" in capsys.readouterr().err


class TestSolve:
    @pytest.fixture()
    def angle_file(self, tmp_path):
        out = tmp_path / "i.json"
        run(["generate", "clustered", out, "--seed", "2",
             "--params", '{"n": 15, "k": 2}'])
        return out

    @pytest.fixture()
    def sector_file(self, tmp_path):
        out = tmp_path / "s.json"
        run(["generate", "towns", out, "--seed", "2", "--params", '{"n": 25}'])
        return out

    @pytest.mark.parametrize(
        "algo", ["greedy", "greedy+ls", "adaptive", "dp-disjoint", "shifting", "lp-round"]
    )
    def test_angle_algorithms(self, angle_file, algo, capsys):
        assert run(["solve", angle_file, "--algorithm", algo]) == 0
        out = capsys.readouterr().out
        assert "ratio vs bound" in out

    def test_exact_small(self, tmp_path, capsys):
        inst = tmp_path / "small.json"
        run(["generate", "uniform", inst, "--params", '{"n": 7, "k": 2}'])
        assert run(["solve", inst, "--algorithm", "exact"]) == 0

    def test_fptas_oracle(self, angle_file):
        assert run(["solve", angle_file, "--algorithm", "greedy", "--eps", "0.3"]) == 0

    @pytest.mark.parametrize("algo", ["greedy", "independent"])
    def test_sector_algorithms(self, sector_file, algo, capsys):
        assert run(["solve", sector_file, "--algorithm", algo]) == 0
        assert "value" in capsys.readouterr().out

    def test_solution_output(self, angle_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        assert run(["solve", angle_file, "--output", sol_path]) == 0
        sol = solution_from_dict(json.loads(sol_path.read_text()))
        inst = load_instance(angle_file)
        sol.verify(inst)


class TestCompareAndFamilies:
    def test_compare_angle(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run(["generate", "uniform", inst, "--params", '{"n": 10, "k": 2}'])
        assert run(["compare", inst]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "exact" in out

    def test_compare_sector(self, tmp_path, capsys):
        inst = tmp_path / "s.json"
        run(["generate", "grid", inst, "--params", '{"n": 20, "grid": 1}'])
        assert run(["compare", inst]) == 0
        assert "independent" in capsys.readouterr().out

    def test_families(self, capsys):
        assert run(["families"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "grid" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCoverOnlineStats:
    @pytest.fixture()
    def angle_file(self, tmp_path):
        out = tmp_path / "i.json"
        run(["generate", "clustered", out, "--seed", "5",
             "--params", '{"n": 18, "k": 2}'])
        return out

    @pytest.fixture()
    def sector_file(self, tmp_path):
        out = tmp_path / "s.json"
        run(["generate", "disk", out, "--params", '{"n": 10}'])
        return out

    def test_cover(self, angle_file, capsys):
        assert run(["cover", angle_file]) == 0
        out = capsys.readouterr().out
        assert "antennas used" in out and "lower bound" in out

    def test_cover_fptas_oracle(self, angle_file):
        assert run(["cover", angle_file, "--eps", "0.2"]) == 0

    def test_cover_rejects_sector(self, sector_file, capsys):
        assert run(["cover", sector_file]) == 2
        assert "angle instances" in capsys.readouterr().err

    def test_online(self, angle_file, capsys):
        assert run(["online", angle_file, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "best_fit" in out and "floor" in out

    def test_online_rejects_sector(self, sector_file):
        assert run(["online", sector_file]) == 2

    def test_stats(self, angle_file, capsys):
        assert run(["stats", angle_file]) == 0
        out = capsys.readouterr().out
        assert "tightness" in out and "customers" in out

    def test_stats_rejects_sector(self, sector_file):
        assert run(["stats", sector_file]) == 2


class TestReport:
    def test_quick_report(self, capsys):
        assert run(["report", "--quick", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "E12" in out
        assert "report generated" in out


class TestRenderFlag:
    def test_solve_with_render(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run(["generate", "clustered", inst, "--params", '{"n": 15, "k": 2}'])
        assert run(["solve", inst, "--render"]) == 0
        out = capsys.readouterr().out
        assert "antenna 0" in out and "served" in out


class TestTraceFlag:
    def test_solve_trace_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import read_jsonl, trace_enabled

        inst = tmp_path / "i.json"
        run(["generate", "clustered", inst, "--params", '{"n": 15, "k": 2}'])
        trace = tmp_path / "t.jsonl"
        assert run(["solve", inst, "--algorithm", "greedy",
                    "--trace", trace]) == 0
        assert "trace events written" in capsys.readouterr().out
        assert not trace_enabled()  # CLI turned tracing back off
        events = read_jsonl(trace)
        assert any(e["name"] == "solver.greedy_multi" for e in events)
        assert any(e["name"] == "rotation.search" for e in events)


class TestErrorHygiene:
    """Exit-code contract: 0 ok, 2 usage, 3 invalid input, 4 timeout.

    Every failure is one stderr line -- a raw traceback reaching the
    terminal is itself a bug.
    """

    @pytest.fixture()
    def angle_file(self, tmp_path):
        out = tmp_path / "i.json"
        run(["generate", "clustered", out, "--seed", "2",
             "--params", '{"n": 15, "k": 2}'])
        return out

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all")
        assert run(["solve", bad]) == 3
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert run(["solve", tmp_path / "nope.json"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err

    def test_nan_demand_exit_3_names_field(self, tmp_path, angle_file, capsys):
        d = json.loads(angle_file.read_text())
        d["demands"][1] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(d))
        assert run(["solve", bad]) == 3
        err = capsys.readouterr().err
        assert "demands" in err
        assert "Traceback" not in err

    def test_negative_demand_exit_3(self, tmp_path, angle_file, capsys):
        d = json.loads(angle_file.read_text())
        d["demands"][0] = -2.0
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(d))
        assert run(["solve", bad]) == 3
        assert "demands" in capsys.readouterr().err

    def test_bad_antenna_rho_exit_3(self, tmp_path, angle_file, capsys):
        d = json.loads(angle_file.read_text())
        d["antennas"][0]["rho"] = 100.0  # outside (0, 2*pi]
        bad = tmp_path / "rho.json"
        bad.write_text(json.dumps(d))
        assert run(["solve", bad]) == 3
        assert "antennas[0]" in capsys.readouterr().err

    def test_timeout_exit_4(self, angle_file, capsys):
        assert run(["solve", angle_file, "--algorithm", "greedy",
                    "--timeout", "0"]) == 4
        err = capsys.readouterr().err
        assert "deadline expired" in err
        assert "--fallback" in err  # points at the degraded-answer escape hatch
        assert "Traceback" not in err

    def test_fallback_answers_under_zero_timeout(self, angle_file, capsys):
        # Same zero deadline, but --fallback degrades instead of failing.
        assert run(["solve", angle_file, "--fallback", "--timeout", "0"]) == 0
        out = capsys.readouterr().out
        assert "fallback-chain" in out
        assert "stage" in out and "degraded" in out

    def test_fallback_happy_path(self, angle_file, capsys):
        assert run(["solve", angle_file, "--fallback"]) == 0
        out = capsys.readouterr().out
        assert "fallback-chain" in out
        assert "exact" in out

    def test_fallback_sector_runs_chain(self, tmp_path, capsys):
        # Sector chains are registry-driven now: --fallback degrades
        # gracefully on 2-D city instances too instead of erroring out.
        inst = tmp_path / "s.json"
        run(["generate", "towns", inst, "--params", '{"n": 10}'])
        assert run(["solve", inst, "--fallback"]) == 0
        out = capsys.readouterr().out
        assert "fallback-chain" in out
        assert "stage" in out

    def test_solve_timeout_bounds_exact_anytime(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run(["generate", "uniform", inst, "--seed", "0",
             "--params", '{"n": 12, "k": 2}'])
        assert run(["solve", inst, "--algorithm", "exact-anytime",
                    "--timeout", "1.0"]) == 0
        assert "exact-anytime" in capsys.readouterr().out
