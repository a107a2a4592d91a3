"""Tests for the clsa-cim command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


def test_import_needs_only_declared_dependencies():
    """``import repro, repro.cli`` loads numpy and the stdlib, nothing else
    (pyproject.toml declares numpy alone).  ``__mp_main__`` is
    multiprocessing's alias of ``__main__``, not a module."""
    script = (
        "import sys\n"
        "before = set(sys.modules) | {'__mp_main__'}\n"
        "import repro, repro.cli\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'repro', 'numpy'}))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        prog, _, version = out.partition(" ")
        assert prog == "clsa-cim"
        assert version  # non-empty, e.g. "1.2.0"
        assert all(part.isdigit() for part in version.split("."))

    def test_version_matches_package_metadata(self, capsys):
        """Installed metadata wins; source trees fall back to the
        module constant — either way the printed version is the
        resolved package version."""
        from repro.cli import _package_version

        with pytest.raises(SystemExit):
            main(["--version"])
        assert _package_version() in capsys.readouterr().out

    def test_version_fallback_without_metadata(self, monkeypatch):
        """Uninstalled source checkouts report repro.__version__."""
        import importlib.metadata

        import repro
        from repro.cli import _package_version

        def missing(_name):
            raise importlib.metadata.PackageNotFoundError

        monkeypatch.setattr(importlib.metadata, "version", missing)
        assert _package_version() == repro.__version__


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out
        assert "PE_min = 117" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "tinyyolov3" in out
        assert "936" in out


class TestSchedule:
    def test_schedule_defaults(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential", "--extra-pes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wdup+xinf" in out
        assert "Speedup" in out or "speedup" in out
        assert "utilization" in out

    def test_schedule_gantt(self, capsys):
        code = main(
            ["schedule", "--model", "tiny_sequential", "--mapping", "none", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "#" in out  # gantt busy marks

    def test_schedule_coarse_granularity(self, capsys):
        code = main(
            ["schedule", "--model", "tiny_csp", "--rows-per-set", "4",
             "--scheduling", "layer-by-layer"]
        )
        assert code == 0
        assert "layer-by-layer" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--model", "alexnet"])


class TestSweep:
    def test_sweep_text(self, capsys):
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 7(a)" in out
        assert "Best speedup" in out

    def test_sweep_csv(self, capsys):
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines[0].startswith("benchmark,config")
        # baseline + xinf + wdup + wdup+xinf = 4 rows
        assert len(lines) == 5

    def test_sweep_json(self, capsys):
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["benchmark"] == "tinyyolov4"
        assert payload[0]["min_pes"] == 117
        assert len(payload[0]["points"]) == 3

    def test_sweep_jobs_and_no_cache_match_defaults(self, capsys):
        def values(out):
            # The trailing cache_*/attempts/backend/status/error
            # columns record provenance (memory vs. store vs.
            # recompute, executor rung), which --no-cache and --jobs
            # change by design; the value columns must stay identical.
            return [line.rsplit(",", 7)[0] for line in out.splitlines()]

        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "csv"])
        assert code == 0
        default_out = capsys.readouterr().out
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "csv", "--jobs", "2", "--no-cache"])
        assert code == 0
        assert values(capsys.readouterr().out) == values(default_out)

    def test_sweep_help_documents_engine_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--no-cache" in out
        assert "worker processes" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sweep_rows_per_set(self, capsys):
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "csv"])
        assert code == 0
        fine_out = capsys.readouterr().out
        code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                     "--format", "csv", "--rows-per-set", "8"])
        assert code == 0
        coarse_out = capsys.readouterr().out
        # Coarser sets change the schedule (different speedups).
        assert coarse_out != fine_out
        assert coarse_out.splitlines()[0] == fine_out.splitlines()[0]  # same header


class TestScheduleOptionKnobs:
    def test_order_mode_static(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--order-mode", "static"])
        assert code == 0
        assert "wdup+xinf" in capsys.readouterr().out

    def test_knobs_reach_schedule_options(self, capsys, monkeypatch):
        """Every new flag must land on the ScheduleOptions the Session
        compiles with (exit code 0 alone would not catch lost wiring)."""
        from repro.session import Session

        captured = []
        original = Session.compile

        def spy(self, graph, options=None, **kwargs):
            if options is not None:
                captured.append(options)
            return original(self, graph, options, **kwargs)

        monkeypatch.setattr(Session, "compile", spy)
        code = main(["schedule", "--model", "tiny_sequential",
                     "--order-mode", "static",
                     "--duplication-solver", "greedy",
                     "--duplication-axis", "height",
                     "--d-max-cap", "2",
                     "--rows-per-set", "3"])
        assert code == 0
        options = captured[0]
        assert options.order_mode == "static"
        assert options.duplication_solver == "greedy"
        assert options.duplication_axis == "height"
        assert options.d_max_cap == 2
        assert options.granularity.rows_per_set == 3

    def test_engine_flag_reaches_options(self, capsys, monkeypatch):
        from repro.session import Session

        captured = []
        original = Session.compile

        def spy(self, graph, options=None, **kwargs):
            if options is not None:
                captured.append(options)
            return original(self, graph, options, **kwargs)

        monkeypatch.setattr(Session, "compile", spy)
        code = main(["schedule", "--model", "tiny_sequential",
                     "--engine", "python"])
        assert code == 0
        assert captured[0].engine == "python"

    def test_engines_print_identical_metrics(self, capsys):
        outputs = []
        for engine in ("csr", "python"):
            assert main(["schedule", "--model", "tiny_sequential",
                         "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_timings_table(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential", "--timings"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pass" in out and "Wall clock" in out
        for pass_name in ("preprocess", "schedule", "total"):
            assert pass_name in out

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--model", "tiny_sequential", "--engine", "julia"])

    def test_duplication_solver_greedy(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--duplication-solver", "greedy"])
        assert code == 0
        assert "duplicated layers" in capsys.readouterr().out

    def test_duplication_axis_height(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--duplication-axis", "height"])
        assert code == 0

    def test_d_max_cap_limits_duplication(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--extra-pes", "8", "--d-max-cap", "1"])
        assert code == 0
        # Capping every factor at 1 forbids duplication entirely.
        out = capsys.readouterr().out
        dup_line = next(l for l in out.splitlines() if "duplicated layers" in l)
        assert dup_line.rstrip().endswith("none")

    def test_invalid_knob_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--model", "tiny_sequential",
                  "--order-mode", "bogus"])
        with pytest.raises(SystemExit):
            main(["schedule", "--model", "tiny_sequential",
                  "--duplication-solver", "bogus"])
        with pytest.raises(SystemExit):
            main(["schedule", "--model", "tiny_sequential",
                  "--duplication-axis", "diagonal"])

    def test_schedule_help_documents_knobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["schedule", "--help"])
        out = capsys.readouterr().out
        for flag in ("--order-mode", "--duplication-solver",
                     "--duplication-axis", "--d-max-cap"):
            assert flag in out


class TestScheduleAnalysisFlags:
    def test_critical_path_flag(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--critical-path"])
        assert code == 0
        assert "critical path" in capsys.readouterr().out

    def test_buffers_flag(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential", "--buffers"])
        assert code == 0
        assert "buffer occupancy" in capsys.readouterr().out

    def test_energy_flag(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential", "--energy"])
        assert code == 0
        assert "uJ" in capsys.readouterr().out

    def test_batch_flag(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential", "--batch", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 4" in out
        assert "images/ms" in out

    def test_batch_requires_clsa_cim(self, capsys):
        code = main(["schedule", "--model", "tiny_sequential",
                     "--scheduling", "layer-by-layer", "--batch", "2"])
        assert code == 2
        assert "requires" in capsys.readouterr().out


class TestCacheCommand:
    def _warm(self, tmp_path):
        store = str(tmp_path / "store")
        code = main(["schedule", "--model", "tiny_sequential",
                     "--store", store])
        assert code == 0
        return store

    def test_cache_path_prints_resolved_default(self, capsys, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "env"))
        code = main(["cache", "path"])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "env")

    def test_cache_stats_text(self, capsys, tmp_path):
        store = self._warm(tmp_path)
        capsys.readouterr()
        code = main(["cache", "stats", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "stage schedule" in out

    def test_cache_stats_json(self, capsys, tmp_path):
        store = self._warm(tmp_path)
        capsys.readouterr()
        code = main(["cache", "stats", "--store", store, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] > 0
        assert payload["schema"] == 1
        assert "schedule" in payload["per_stage"]

    def test_cache_gc_and_clear(self, capsys, tmp_path):
        store = self._warm(tmp_path)
        capsys.readouterr()
        code = main(["cache", "gc", "--store", store, "--max-bytes", "0"])
        assert code == 0
        assert "evicted" in capsys.readouterr().out
        code = main(["cache", "clear", "--store", store])
        assert code == 0
        assert "removed" in capsys.readouterr().out
        code = main(["cache", "stats", "--store", store, "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_schedule_store_warm_run_reports_zero_misses(self, capsys,
                                                         tmp_path):
        store = self._warm(tmp_path)
        capsys.readouterr()
        code = main(["schedule", "--model", "tiny_sequential",
                     "--store", store, "--timings"])
        assert code == 0
        out = capsys.readouterr().out
        assert "miss=0" in out
        assert "store=" in out

    def test_sweep_store_flag(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        for _ in range(2):
            code = main(["sweep", "--models", "tinyyolov4", "--xs", "4",
                         "--format", "csv", "--store", store])
            assert code == 0
        out = capsys.readouterr().out
        csv = out.splitlines()
        # Second sweep's rows: no stage recomputed anywhere.
        warm_rows = csv[len(csv) // 2 + 1:]
        for row in warm_rows:
            assert row.split(",")[12] == "0", row  # cache_misses column

    def test_sweep_store_with_no_cache_errors(self, capsys, tmp_path):
        code = main(["sweep", "--models", "tinyyolov4", "--no-cache",
                     "--store", str(tmp_path / "s")])
        assert code == 2
        assert "requires" in capsys.readouterr().err
