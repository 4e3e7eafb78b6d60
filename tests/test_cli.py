"""Tests for the CLI experiment runner."""

import json
import types

import pytest

from repro.cli import EXIT_CHAOS, EXIT_LINT, EXIT_USAGE, EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_bounds_default(self, capsys):
        assert main(["bounds", "--n", "1048576"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 7.1" in out

    def test_bounds_table2_high_exact(self, capsys):
        assert main(["bounds", "--n", "1000000", "--level", "high"]) == 0
        out = capsys.readouterr().out
        assert ": 165" in out
        assert ": 161" in out

    def test_run_fig2c_small(self, capsys):
        assert main(["run", "fig2c", "--n", "1024", "--rounds", "5"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out
        assert "throughput_ops" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "fig2d", "--n", "1024", "--rounds", "5",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list)
        assert {"cache_pct", "throughput_ops"} <= set(rows[0])

    def test_run_dict_experiment(self, capsys):
        assert main(["run", "ablation-fake-policy", "--n", "512",
                     "--rounds", "120"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "least_recent" in payload and "uniform" in payload

    def _parallel_report(self):
        return {
            "schema": "repro.parallel/2",
            "cpu_count": 4,
            "config": {"n": 64, "b": 8, "r": 3, "f_d": 1,
                       "value_size": 64, "rounds": 2},
            "measured": {
                1: {"rounds_per_sec": 10.0, "us_per_request": 9.0,
                    "speedup": 1.0},
                2: {"rounds_per_sec": 17.0, "us_per_request": 5.0,
                    "speedup": 1.7},
            },
            "modeled_speedup": {1: 1.0, 2: 1.8},
            "transports": {
                "pipe": {"workers": 2, "rounds_per_sec": 12.0,
                         "speedup": 1.2},
                "shm": {"workers": 2, "rounds_per_sec": 17.0,
                        "speedup": 1.7},
            },
            "digests_identical": True,
            "shard_equivalence": {"identical": True},
            "small_shape_equivalence": {"identical": True},
        }

    def test_bench_parallel_renders_sweep(self, capsys, monkeypatch, tmp_path):
        import repro.sim.perf as perf

        seen = {}

        def fake(worker_counts, **kwargs):
            seen["worker_counts"] = worker_counts
            seen.update(kwargs)
            return self._parallel_report()

        monkeypatch.setattr(perf, "run_parallel_benchmark", fake)
        out_path = tmp_path / "parallel.json"
        assert main(["bench", "--parallel", "--workers", "1,2",
                     "--n", "64", "--rounds", "2",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert seen == {"worker_counts": (1, 2), "n": 64, "rounds": 2}
        assert "workers=2" in out
        assert "transport=shm" in out
        assert "digests_identical=True" in out
        assert json.loads(out_path.read_text())["schema"] == \
            "repro.parallel/2"

    def test_bench_wallclock_path(self, capsys, monkeypatch):
        import repro.sim.perf as perf

        report = {
            "kernels": {"prf": {"speedup": 1.4}},
            "end_to_end": {"rounds_per_sec_speedup": 2.1},
            "trace_equivalence": {"identical": True},
        }
        monkeypatch.setattr(perf, "run_wallclock_benchmark",
                            lambda **kwargs: report)
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "2.10x" in out
        assert "kernel prf: 1.40x" in out

    def test_bench_bad_worker_list_rejected(self):
        for bad in ("zero,one", "0,2", ""):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--parallel", "--workers", bad])
            assert excinfo.value.code == EXIT_USAGE

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "figZZ"])
        assert excinfo.value.code == EXIT_USAGE

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE


class TestExitCodes:
    """The CLI's exit codes are a contract (scripts and CI dispatch on
    them): 0 success, 1 lint findings, 2 chaos violation, 64 bad usage.
    """

    def test_constants_are_distinct_and_pinned(self):
        assert (EXIT_LINT, EXIT_CHAOS, EXIT_USAGE) == (1, 2, 64)

    def test_usage_error_in_subparser_exits_64(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--bogus-flag"])
        assert excinfo.value.code == EXIT_USAGE

    def test_lint_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_finding_exits_1(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\n\ndef f() -> float:\n"
                         "    return time.time()\n")
        assert main(["lint", str(dirty)]) == EXIT_LINT
        assert "OBL201" in capsys.readouterr().out

    def test_lint_report_out_writes_json_artifact(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\n\ndef f() -> float:\n"
                         "    return time.time()\n")
        artifact = tmp_path / "report.json"
        assert main(["lint", str(dirty), "--report-out",
                     str(artifact)]) == EXIT_LINT
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["errors"] == 1

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("OBL101", "OBL201", "OBL301", "OBL401", "OBL501"):
            assert rule_id in out

    def test_chaos_replay_violation_exits_2(self, tmp_path, monkeypatch,
                                            capsys):
        import repro.testing as testing

        class FakeEpisode:
            seed = 7
            ha_mode = "replicated"

            @staticmethod
            def from_json(path):
                return FakeEpisode()

        fake_result = types.SimpleNamespace(
            ok=False, rounds_committed=3, failovers=1, aborted_attempts=0,
            violations=[])
        monkeypatch.setattr(testing, "Episode", FakeEpisode)
        monkeypatch.setattr(testing, "run_episode", lambda e: fake_result)
        reproducer = tmp_path / "episode.json"
        reproducer.write_text("{}")
        assert main(["chaos", "--replay", str(reproducer)]) == EXIT_CHAOS
        assert "FAILED" in capsys.readouterr().out

    def test_chaos_replay_clean_exits_0(self, tmp_path, monkeypatch,
                                        capsys):
        import repro.testing as testing

        class FakeEpisode:
            seed = 7
            ha_mode = "quorum"

            @staticmethod
            def from_json(path):
                return FakeEpisode()

        fake_result = types.SimpleNamespace(
            ok=True, rounds_committed=3, failovers=0, aborted_attempts=0,
            violations=[])
        monkeypatch.setattr(testing, "Episode", FakeEpisode)
        monkeypatch.setattr(testing, "run_episode", lambda e: fake_result)
        reproducer = tmp_path / "episode.json"
        reproducer.write_text("{}")
        assert main(["chaos", "--replay", str(reproducer)]) == 0
        assert "OK" in capsys.readouterr().out


class TestCliChart:
    def test_chart_rendered_for_series_experiment(self, capsys):
        from repro.cli import main
        assert main(["run", "fig2c", "--n", "1024", "--rounds", "5",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "[throughput_ops vs cores]" in out

    def test_chart_flag_harmless_for_table_experiment(self, capsys):
        from repro.cli import main
        assert main(["run", "table2", "--n", "2048", "--rounds", "30",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "alpha_theory" in out
