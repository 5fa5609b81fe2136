import json
import os
from pathlib import Path

import pytest

from sgdinf import harness
from sgdinf.cli import main
from sgdinf.plugin import PluginAccumulator

DATA = Path(__file__).parent / "data"

CONFIG = """
workers: 2
scenarios:
  - id: cli-smoke
    n: 1200
    n_sim: 4
    seed: 3
    eta: 0.5
    model:
      kind: linear
      design: toeplitz
      d: 3
      rho: 0.5
      sigma: 1.0
    estimators:
      plugin: true
      batch_means: [0.2, 0.25, 0.3]
      oracle: true
highdim:
  - id: cli-hd
    n: 60
    d: 10
    s0: 2
    seed: 9
    n_sim: 2
    coef_max: 5.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenarios.yaml"
    path.write_text(CONFIG)
    return path


class TestScheduleDump:
    def test_prints_boundaries(self, capsys):
        rc = main(["schedule-dump", "--n", "10000", "--M", "9", "--alpha", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out) == [100, 400, 900, 1600, 2500, 3600, 4900,
                                   6400, 8100, 10000]

    def test_invalid_schedule_is_exit_2(self, capsys):
        rc = main(["schedule-dump", "--n", "10", "--M", "9", "--alpha", "0.5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_missing_config_exit_2_names_path(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "absent.yaml" in capsys.readouterr().err

    def test_end_to_end_rows(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0].startswith("scenario,estimator")
        estimators = [ln.split(",")[1] for ln in lines[1:]
                      if ln.startswith("cli-smoke,")]
        assert estimators == ["plugin", "bm-0.2", "bm-0.25", "bm-0.3", "oracle"]
        doc = json.loads((out / "results.json").read_text())
        assert len([r for r in doc["rows"] if r["scenario"] == "cli-smoke"]) == 5

    def test_byte_identical_across_worker_counts(self, config_path, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["simulate", "--config", str(config_path), "--out",
                     str(out1), "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(config_path), "--out",
                     str(out2), "--workers", "3"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_seed_override_changes_rows(self, config_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(config_path), "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--out", str(out2),
              "--seed", "12345"])
        assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()

    def test_removed_fixed_design_flag_exits_2(self, config_path, tmp_path):
        out = tmp_path / "fd"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(config_path), "--out", str(out),
                  "--fixed-design"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_removed_highdim_simulate_exits_2(self, config_path, tmp_path):
        # simulate runs the highdim entries too
        out = tmp_path / "hd"
        with pytest.raises(SystemExit) as exc:
            main(["highdim-simulate", "--config", str(config_path),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_two_sections_write_both_sections_rows(self, tmp_path):
        # the scenarios' rows, then the highdim entries', each as if run alone
        split = CONFIG.index("highdim:")
        texts = {"both": CONFIG, "low": CONFIG[:split], "high": CONFIG.replace(
            CONFIG[CONFIG.index("scenarios:"):split], "")}
        csvs = {}
        for name, text in texts.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(text)
            assert main(["simulate", "--config", str(path), "--out",
                         str(tmp_path / name)]) == 0
            csvs[name] = (tmp_path / name / "results.csv").read_bytes()
        high_rows = csvs["high"].split(b"\n", 1)[1]
        assert csvs["both"] == csvs["low"] + high_rows
        assert high_rows.startswith(b"cli-hd,")

    def test_requires_some_entry(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("scenarios: []\nhighdim:\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "empty.yaml: no scenarios or highdim entries" in capsys.readouterr().err
        assert not out.exists()

    def test_golden_results_csv(self, tmp_path):
        # tests/data/golden_results.csv was written by this config before
        # the engine's kernel last changed; a change of arithmetic that
        # moves any printed digit shows here
        out = tmp_path / "golden"
        assert main(["simulate", "--config", str(DATA / "golden.yaml"),
                     "--out", str(out)]) == 0
        assert ((out / "results.csv").read_bytes()
                == (DATA / "golden_results.csv").read_bytes())

    def test_all_replications_failing_is_exit_3_with_results(self, tmp_path,
                                                              capsys):
        # every replication diverges: the run used to end in a RuntimeError
        # traceback and leave an empty --out
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(DATA / "all_fail.yaml"),
                   "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: scenario all-fail-linear: all 2 ")
        assert "replication 0: non-finite iterate at iteration " in err[0]
        doc = json.loads((out / "results.json").read_text())
        assert doc["rows"] == []
        fails = doc["failures"]["all-fail-linear"]
        assert [index for index, _ in fails] == [0, 1]
        assert all(error.startswith("non-finite iterate") for _, error in fails)
        assert (out / "results.csv").read_text().splitlines() == [
            harness.CSV_HEADER]

    def test_sink_failures_are_failed_replications(self, tmp_path, capsys,
                                                   monkeypatch):
        # a raising finalize() used to escape simulate() as a
        # SinkFinalizeError, exit 1 and leave --out empty
        def refuse(self):
            raise ValueError("refused")

        monkeypatch.setattr(PluginAccumulator, "finalize", refuse)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(DATA / "golden.yaml"),
                   "--out", str(out)])
        assert rc == 3
        assert "all 3 replications failed" in capsys.readouterr().err
        doc = json.loads((out / "results.json").read_text())
        assert doc["rows"] == []
        for fails in doc["failures"].values():
            assert [index for index, _ in fails] == [0, 1, 2]
            assert all(error == "sink finalize failed: 0:PluginAccumulator: "
                       "refused" for _, error in fails)

    def test_one_sink_failure_is_counted(self, tmp_path, monkeypatch):
        finalize = PluginAccumulator.finalize
        calls = []

        def first_refused(self):
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("refused")
            return finalize(self)

        monkeypatch.setattr(PluginAccumulator, "finalize", first_refused)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(DATA / "golden.yaml"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "results.json").read_text())
        assert {row["scenario"]: (row["n_sim"], row["n_failed"])
                for row in doc["rows"]} == {
            "golden-linear-toeplitz": (2, 1), "golden-logistic-identity": (3, 0)}
        assert list(doc["failures"]) == ["golden-linear-toeplitz"]

    def test_runs_without_cpu_affinity(self, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        out = tmp_path / "golden"
        assert main(["simulate", "--config", str(DATA / "golden.yaml"),
                     "--out", str(out), "--workers", "1"]) == 0
        assert json.loads((out / "results.json").read_text())[
            "workers_used"] == 1

    def test_other_scenarios_still_written(self, tmp_path, capsys):
        # a failing scenario first: the next one still runs and gets its rows
        text = (DATA / "all_fail.yaml").read_text()
        good = CONFIG[CONFIG.index("  - id: cli-smoke"):CONFIG.index("highdim:")]
        path = tmp_path / "mixed.yaml"
        path.write_text(text + good)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert "all-fail-linear" in capsys.readouterr().err
        doc = json.loads((out / "results.json").read_text())
        assert {row["scenario"] for row in doc["rows"]} == {"cli-smoke"}
        assert all(row["n_failed"] == 0 for row in doc["rows"])
        assert set(doc["failures"]) == {"all-fail-linear"}
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 5


class TestHighdimEntries:
    def test_end_to_end(self, config_path, tmp_path):
        out = tmp_path / "hd"
        rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]
                if ln.startswith("cli-hd,")] == ["debiased-s0", "debiased-s0c"]

    def test_golden_highdim_results_csv(self, tmp_path):
        # golden_highdim_results.csv was written before the l1 sweep became
        # one affine map; its Toeplitz entries run the node-wise sweeps, on
        # seen < d and seen >= d epochs, which no shipped config does
        out = tmp_path / "golden-highdim"
        assert main(["simulate", "--config",
                     str(DATA / "golden_highdim.yaml"), "--out", str(out)]) == 0
        assert ((out / "results.csv").read_bytes()
                == (DATA / "golden_highdim_results.csv").read_bytes())


class TestConfigErrors:
    @pytest.mark.parametrize("where,old,new", [
        ("scenarios[0]", "    n_sim: 4", "    n_sim: 0"),
        ("scenarios[0]", "    eta: 0.5", "    eta: 0.5\n    q: 2"),
        ("scenarios[0]", "    n: 1200", "    n: 3"),
        ("highdim[0]", "    coef_max: 5.0",
         "    coef_max: 5.0\n    design: toeplitz\n    rho: 1.5"),
        ("highdim[0]", "    n_sim: 2", "    n_sim: 0"),
    ])
    def test_bad_value_is_exit_2_naming_file_and_entry(
            self, tmp_path, capsys, where, old, new):
        path = tmp_path / "badvalue.yaml"
        assert old in CONFIG
        path.write_text(CONFIG.replace(old, new, 1))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "badvalue.yaml" in err and f"{where}: " in err
        assert not out.exists()

    def test_out_that_is_a_file_is_exit_2_before_any_run(
            self, config_path, tmp_path, capsys, monkeypatch):
        # the output directory was first made after every replication had
        # run, and an existing file there ended in a FileExistsError
        ran = []
        monkeypatch.setattr(harness, "run_scenario",
                            lambda scn, workers: ran.append(scn))
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"cannot create output directory {out}: " in err
        assert ran == []
        assert out.read_text() == "keep me\n"

    def test_non_integer_workers_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "workers.yaml"
        path.write_text(CONFIG.replace("workers: 2", "workers: two", 1))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "workers.yaml: workers: " in err
        assert not out.exists()


class TestReport:
    def test_pretty_print(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--results", str(out / "results.csv")])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "plugin" in shown and "oracle" in shown

    def test_missing_results_exit_2(self, tmp_path, capsys):
        rc = main(["report", "--results", str(tmp_path / "none.csv")])
        assert rc == 2

    @pytest.mark.parametrize("text,message", [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("a,b,c\n1,2,3\n\n4,5\n", ":4: 2 cells, the header has 3"),
    ])
    def test_malformed_results_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "results.csv"
        path.write_text(text)
        rc = main(["report", "--results", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err

    def test_directory_results_exit_2(self, tmp_path, capsys):
        rc = main(["report", "--results", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
