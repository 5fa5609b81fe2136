import importlib
import importlib.util
import inspect
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from sgdinf import harness, models
from sgdinf.cli import main
from sgdinf.highdim import DegenerateResidualError
from sgdinf.inference import z_quantile
from sgdinf.harness import (
    AggregateRow,
    ConfigError,
    ReplicationResult,
    ScenarioConfig,
    aggregate,
    load_config,
    make_oracle_bundle,
    run_replication,
    run_scenario,
    write_results,
)

SMALL_YAML = """
workers: 1
scenarios:
  - id: smoke
    n: 2000
    n_sim: 4
    seed: 11
    alpha: 0.5
    eta: 0.5
    q: 0.05
    model:
      kind: linear
      design: identity
      d: 3
      sigma: 1.0
    estimators:
      plugin: true
      batch_means: [0.25]
      oracle: true
highdim:
  - id: hd-smoke
    n: 60
    d: 12
    s0: 2
    seed: 5
    n_sim: 3
    coef_max: 10.0
"""


def small_scenario(**kw):
    base = dict(
        scenario_id="t",
        model=models.ModelSpec("linear", models.DesignSpec("identity", 3),
                               models.default_x_star(3), sigma=1.0),
        n=2000, n_sim=4, seed=11, alpha=0.5, eta=0.5,
        estimators={"plugin": None, "bm-0.25": 0.25, "oracle": None})
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_YAML)
        cfg = load_config(path)
        assert len(cfg["scenarios"]) == 1
        scn = cfg["scenarios"][0]
        assert scn.scenario_id == "smoke"
        assert scn.model.d == 3
        assert list(scn.estimators.items()) == [
            ("plugin", None), ("bm-0.25", 0.25), ("oracle", None)]
        assert len(cfg["highdim"]) == 1
        assert cfg["highdim"][0].s0 == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenarios: [unclosed")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_config(path)

    def test_missing_field_names_scenario(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenarios:\n  - id: x\n    n: 100\n")
        with pytest.raises(ConfigError, match=r"scenarios\[0\]"):
            load_config(path)

    def test_no_estimators_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_YAML.replace(
            "      plugin: true\n      batch_means: [0.25]\n      oracle: true",
            "      plugin: false"))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("where,old,new", [
        ("in config file", "workers: 1", "worker: 1"),
        ("scenarios[0]: unknown key(s) alpah in scenario", "    alpha: 0.5",
         "    alpah: 0.5"),
        ("scenarios[0]: unknown key(s) sigam in model", "      sigma: 1.0",
         "      sigam: 1.0"),
        ("scenarios[0]: unknown key(s) batch_mean in estimators",
         "      batch_means: [0.25]", "      batch_mean: [0.25]"),
        ("highdim[0]: unknown key(s) coef_maxx in highdim entry",
         "    coef_max: 10.0", "    coef_maxx: 10.0"),
        ("highdim[0]: unknown key(s) r1_slack in highdim entry",
         "    coef_max: 10.0", "    r1_slack: 1.1\n    coef_max: 10.0"),
    ])
    def test_unknown_key_rejected_naming_file_and_field(self, tmp_path, where,
                                                        old, new):
        path = tmp_path / "typo.yaml"
        assert old in SMALL_YAML
        path.write_text(SMALL_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert "typo.yaml" in message
        assert f"unknown key(s) {new.split(':')[0].strip()} in" in message
        assert where in message

    @pytest.mark.parametrize("where,old,new", [
        ("scenarios[0]: q must lie in (0, 1), got 1.5", "    q: 0.05", "    q: 1.5"),
        ("scenarios[0]: q must lie in (0, 1), got 0.0", "    q: 0.05", "    q: 0"),
        ("scenarios[0]: n_sim must be >= 1, got 0", "    n_sim: 4", "    n_sim: 0"),
        ("scenarios[0]: n=3 too small for M=1 (need n >= (M+1)^2)",
         "    n: 2000", "    n: 3"),
        ("scenarios[0]: alpha must lie in [0.5, 1), got 0.3", "    alpha: 0.5",
         "    alpha: 0.3"),
        ("scenarios[0]: eta must be positive, got -1.0", "    eta: 0.5", "    eta: -1"),
        ("highdim[0]: q must lie in (0, 1), got 1.0", "    coef_max: 10.0",
         "    coef_max: 10.0\n    q: 1"),
        ("highdim[0]: n_sim must be >= 1, got -1", "    n_sim: 3", "    n_sim: -1"),
        ("highdim[0]: rho must lie in [0, 1) for toeplitz, got 1.5",
         "    coef_max: 10.0", "    coef_max: 10.0\n    design: toeplitz\n    rho: 1.5"),
    ])
    def test_out_of_range_value_rejected_naming_file_and_field(
            self, tmp_path, where, old, new):
        path = tmp_path / "range.yaml"
        assert old in SMALL_YAML
        path.write_text(SMALL_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert "range.yaml" in message
        assert where in message

    @pytest.mark.parametrize("where,old,new", [
        ("scenarios[0]: n: invalid literal for int()", "    n: 2000", "    n: abc"),
        ("scenarios[0]: model: 'kind'", "      kind: linear\n", ""),
        ("highdim[0]: design: 'torus' is not a valid DesignKind",
         "    coef_max: 10.0", "    coef_max: 10.0\n    design: torus"),
    ])
    def test_unconvertible_value_rejected_naming_file_and_field(
            self, tmp_path, where, old, new):
        path = tmp_path / "convert.yaml"
        assert old in SMALL_YAML
        path.write_text(SMALL_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "convert.yaml" in str(err.value)
        assert where in str(err.value)

    @pytest.mark.parametrize("key,old,new", [
        ("estimators: plugin", "      plugin: true", '      plugin: "false"'),
        ("estimators: oracle", "      oracle: true", '      oracle: "no"'),
    ])
    def test_flag_must_be_yaml_boolean(self, tmp_path, key, old, new):
        # a quoted "false" is a non-empty string, which bool() reads as true
        path = tmp_path / "flags.yaml"
        assert old in SMALL_YAML
        path.write_text(SMALL_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "flags.yaml" in str(err.value)
        assert f"scenarios[0]: {key}: expected true or false" in str(err.value)

    @pytest.mark.parametrize("key,old,new", [
        ("workers", "workers: 1", "workers: {}"),
        ("scenarios[0]: n", "    n: 2000", "    n: {}"),
        ("scenarios[0]: n_sim", "    n_sim: 4", "    n_sim: {}"),
        ("scenarios[0]: seed", "    seed: 11", "    seed: {}"),
        ("scenarios[0]: model: d", "      d: 3", "      d: {}"),
        ("highdim[0]: n", "    n: 60", "    n: {}"),
        ("highdim[0]: d", "    d: 12", "    d: {}"),
        ("highdim[0]: s0", "    s0: 2", "    s0: {}"),
        ("highdim[0]: seed", "    seed: 5", "    seed: {}"),
        ("highdim[0]: n_sim", "    n_sim: 3", "    n_sim: {}"),
        ("highdim[0]: t_min", "    coef_max: 10.0",
         "    coef_max: 10.0\n    t_min: {}"),
    ])
    @pytest.mark.parametrize("value", ["4.9", "true"])
    def test_integer_key_rejects_fraction_and_boolean(self, tmp_path, key, old,
                                                      new, value):
        # int() would truncate 4.9 to 4 and read true as 1
        path = tmp_path / "ints.yaml"
        assert SMALL_YAML.count(old) == 1
        path.write_text(SMALL_YAML.replace(old, new.format(value)))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "ints.yaml" in str(err.value)
        want = "4.9" if value == "4.9" else "True"
        assert f"{key}: expected an integer, got {want}" in str(err.value)

    @pytest.mark.parametrize("key,old,new", [
        ("scenarios[0]: alpha", "    alpha: 0.5", "    alpha: {}"),
        ("scenarios[0]: eta", "    eta: 0.5", "    eta: {}"),
        ("scenarios[0]: q", "    q: 0.05", "    q: {}"),
        ("scenarios[0]: estimators: batch_means", "      batch_means: [0.25]",
         "      batch_means: [0.25, {}]"),
        ("scenarios[0]: model: rho", "      d: 3", "      d: 3\n      rho: {}"),
        ("scenarios[0]: model: sigma", "      sigma: 1.0", "      sigma: {}"),
        ("scenarios[0]: model: x_star", "      d: 3",
         "      d: 3\n      x_star: [0.0, {}, 1.0]"),
        ("highdim[0]: coef_max", "    coef_max: 10.0", "    coef_max: {}"),
        ("highdim[0]: rho", "    coef_max: 10.0", "    coef_max: 10.0\n    rho: {}"),
        ("highdim[0]: sigma", "    coef_max: 10.0",
         "    coef_max: 10.0\n    sigma: {}"),
        ("highdim[0]: q", "    coef_max: 10.0", "    coef_max: 10.0\n    q: {}"),
    ])
    @pytest.mark.parametrize("value,shown", [("true", "True"), (".nan", "nan"),
                                             (".inf", "inf")])
    def test_float_key_rejects_boolean_and_non_finite(self, tmp_path, capsys, key,
                                                      old, new, value, shown):
        # float() would read true as 1.0 and pass nan or inf on to the run
        path = tmp_path / "reals.yaml"
        assert SMALL_YAML.count(old) == 1
        path.write_text(SMALL_YAML.replace(old, new.format(value)))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = f"{key}: expected a finite number, got {shown}"
        assert "reals.yaml" in str(err.value) and message in str(err.value)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("message,edits,argv", [
        # without batch means nothing else reads n before every run fails
        ("scenarios[0]: n must be >= 1, got 0",
         (("    n: 2000", "    n: 0"), ("      batch_means: [0.25]\n", "")),
         ["simulate"]),
        ("highdim[0]: n, t_min: budget 5 cannot cover one epoch of length 8",
         (("    n: 60", "    n: 5"),), ["simulate"]),
        ("highdim[0]: s0 must lie in [1, d) = [1, 12), got 0",
         (("    s0: 2", "    s0: 0"),), ["simulate"]),
        ("highdim[0]: s0 must lie in [1, d) = [1, 12), got 12",
         (("    s0: 2", "    s0: 12"),), ["simulate"]),
        ("highdim[0]: s0 must lie in [1, d) = [1, 10), got 20",
         (("    s0: 2", "    s0: 20"), ("    d: 12", "    d: 10")),
         ["simulate"]),
        ("highdim[0]: s0 must lie in [1, d) = [1, 12), got -1",
         (("    s0: 2", "    s0: -1"),), ["simulate"]),
        # the exact logistic oracle has no sample count to set
        ("scenarios[0]: unknown key(s) oracle_mc_samples in scenario",
         (("kind: linear", "kind: logistic"), ("      sigma: 1.0\n", ""),
          ("    q: 0.05", "    q: 0.05\n    oracle_mc_samples: 20000")),
         ["simulate"]),
        # M = round(n^c) = 1 writes rows of coverage 0 and length 0
        ("scenarios[0]: batch_means: exponent -0.5 gives M = 1 batch at "
         "n = 2000, need M >= 2",
         (("batch_means: [0.25]", "batch_means: [-0.5, 0.0]"),), ["simulate"]),
        ("scenarios[0]: batch_means: exponent 0 gives M = 1 batch at "
         "n = 2000, need M >= 2",
         (("batch_means: [0.25]", "batch_means: [0.0]"),), ["simulate"]),
        # both wrote a bm-0.25 row from the second sink only
        ("bad.yaml: scenarios[0]: estimators: batch_means: exponents 0.25 "
         "and 0.2500000001 both give the label bm-0.25",
         (("batch_means: [0.25]", "batch_means: [0.25, 0.2500000001]"),),
         ["simulate"]),
        # both wrote rows under one id, and their failures would merge
        ("bad.yaml: scenarios[1]: id: 'smoke' is also the id of scenarios[0]",
         (("\nhighdim:", SMALL_YAML[SMALL_YAML.index("\n  - id: smoke"):
                                     SMALL_YAML.index("\nhighdim:")]
           .replace("seed: 11", "seed: 12") + "\nhighdim:"),),
         ["simulate"]),
        ("bad.yaml: highdim[1]: id: 'hd-smoke' is also the id of highdim[0]",
         (("    coef_max: 10.0\n", "    coef_max: 10.0\n"
           + SMALL_YAML[SMALL_YAML.index("  - id: hd-smoke"):]),),
         ["simulate"]),
        ("highdim[0]: coef_max must be >= 0, got -5",
         (("coef_max: 10.0", "coef_max: -5.0"),), ["simulate"]),
        ("bad.yaml: workers: must be >= 1, got -3",
         (("workers: 1", "workers: -3"),), ["simulate"]),
        # enumerate() read a number as the list of entries (TypeError, exit
        # 1) and a mapping's keys as its entries
        ("bad.yaml: scenarios: expected a list of entries, got int",
         ((SMALL_YAML[SMALL_YAML.index("scenarios:"):SMALL_YAML.index("highdim:")],
           "scenarios: 5\n"),), ["simulate"]),
        ("bad.yaml: highdim: expected a list of entries, got int",
         ((SMALL_YAML[SMALL_YAML.index("highdim:"):], "highdim: 7\n"),),
         ["simulate"]),
        ("bad.yaml: scenarios: expected a list of entries, got dict",
         (("scenarios:\n  - id: smoke", "scenarios:\n    id: smoke"),),
         ["simulate"]),
        ("--workers must be >= 1, got -3", (),
         ["simulate", "--workers", "-3"]),
        # numpy's SeedSequence refuses a negative seed inside every run
        ("bad.yaml: scenarios[0]: seed must be >= 0, got -1",
         (("    seed: 11", "    seed: -1"),), ["simulate"]),
        ("bad.yaml: highdim[0]: seed must be >= 0, got -1",
         (("    seed: 5", "    seed: -1"),), ["simulate"]),
        ("bad.yaml: scenarios[0] with --seed -3: seed must be >= 0, got -3", (),
         ["simulate", "--seed", "-3"]),
        ("bad.yaml: highdim[0] with --seed -3: seed must be >= 0, got -3",
         ((SMALL_YAML[SMALL_YAML.index("scenarios:"):SMALL_YAML.index("highdim:")],
           ""),), ["simulate", "--seed", "-3"]),
        # an id is one cell of results.csv; null read as the id "None"
        ("bad.yaml: scenarios[0]: id: expected a non-empty name without a "
         "comma or line break, got 'smoke, identity'",
         (("  - id: smoke", '  - id: "smoke, identity"'),), ["simulate"]),
        ("scenarios[0]: id: expected a non-empty name without a comma or line "
         "break, got 'smoke\\nidentity'",
         (("  - id: smoke", '  - id: "smoke\\nidentity"'),), ["simulate"]),
        ("scenarios[0]: id: expected a non-empty name without a comma or line "
         "break, got ''", (("  - id: smoke", '  - id: ""'),), ["simulate"]),
        ("highdim[0]: id: expected a non-empty name without a comma or line "
         "break, got None", (("  - id: hd-smoke", "  - id: null"),),
         ["simulate"]),
        # a falsy section read as an empty one and was skipped silently
        *[(f"bad.yaml: scenarios: expected a list of entries, got {kind}",
           ((SMALL_YAML[SMALL_YAML.index("scenarios:"):SMALL_YAML.index("highdim:")],
             f"scenarios: {value}\n"),), ["simulate"])
          for value, kind in (("false", "bool"), ("0", "int"), ("{}", "dict"))],
        ("bad.yaml: highdim: expected a list of entries, got str",
         ((SMALL_YAML[SMALL_YAML.index("highdim:"):], 'highdim: ""\n'),),
         ["simulate"]),
        # the removed fixed-design mode's key, like oracle_mc_samples above
        ("scenarios[0]: unknown key(s) fixed_design in scenario",
         (("    q: 0.05", "    q: 0.05\n    fixed_design: true"),),
         ["simulate"]),
        # a boolean, a list or a mapping loaded as its repr, e.g. the id "True"
        ("bad.yaml: scenarios[0]: id: expected a non-empty name without a "
         "comma or line break, got True",
         (("  - id: smoke", "  - id: true"),), ["simulate"]),
        ("highdim[0]: id: expected a non-empty name without a comma or line "
         "break, got ['a']", (("  - id: hd-smoke", "  - id: [a]"),),
         ["simulate"]),
        ("scenarios[0]: id: expected a non-empty name without a comma or line "
         "break, got {'a': 1}", (("  - id: smoke", "  - id: {a: 1}"),),
         ["simulate"]),
        # every row's oracle_len needs the oracle, which raised OracleError
        # (exit 1, --out left empty) although no oracle row was selected
        ("bad.yaml: scenarios[0]: model: x_star: Hessian is numerically "
         "singular: x*ᵀΣx* overflows",
         (("kind: linear", "kind: logistic"), ("      sigma: 1.0\n", ""),
          ("      d: 3\n", "      d: 3\n      x_star: [1.0e200, 1.0e200, 0.0]\n"),
          ("      batch_means: [0.25]\n      oracle: true\n", "")),
         ["simulate"]),
        # epoch_plan squared the l1 radius into an OverflowError (exit 1), and
        # an infinite radius was blamed on n and t_min
        *[("bad.yaml: highdim[0]: coef_max: 1e+308 is too large: "
           "(1.1·s0·coef_max)² overflows",
           (("coef_max: 10.0", "coef_max: 1.0e308"), ("    s0: 2", f"    s0: {s0}")),
           ["simulate"]) for s0 in (2, 3)],
        # an l1 radius whose square underflows divided by zero (exit 1)
        ("bad.yaml: highdim[0]: n, coef_max: budget 60 cannot cover one epoch "
         "of length inf", (("coef_max: 10.0", "coef_max: 1.0e-200"),),
         ["simulate"]),
        # rows and failures are keyed by the id across both sections
        ("bad.yaml: highdim[0]: id: 'smoke' is also the id of scenarios[0]",
         (("  - id: hd-smoke", "  - id: smoke"),), ["simulate"]),
        # --seed replaces a valid seed only: the config's own is still checked
        ("bad.yaml: scenarios[0]: seed must be >= 0, got -1",
         (("    seed: 11", "    seed: -1"),), ["simulate", "--seed", "3"]),
        # the radius, not t_min = 8, set these lengths, and the first was
        # printed as its 201 digits
        *[(f"bad.yaml: highdim[0]: n, coef_max: budget 100 cannot cover one "
           f"epoch of length {length}",
           (("    n: 60", "    n: 100"), ("    d: 12", "    d: 10"),
            ("    seed: 5", "    seed: 1"), ("    n_sim: 3", "    n_sim: 2"),
            ("coef_max: 10.0", f"coef_max: {coef_max}")), ["simulate"])
          for coef_max, length in (("1.0e-100", "6.82e+200"), ("0.05", "2728"))],
        # the node-wise radius comes from rho
        ("bad.yaml: highdim[0]: n, rho: budget 60 cannot cover one epoch of "
         "length 19822",
         (("coef_max: 10.0", "coef_max: 10.0\n    design: toeplitz\n    rho: 0.01"),),
         ["simulate"]),
        # a t_min below 1 fails before any epoch has a length
        ("bad.yaml: highdim[0]: n, t_min: invalid radar configuration",
         (("coef_max: 10.0", "coef_max: 10.0\n    t_min: 0"),), ["simulate"]),
    ])
    def test_unusable_value_fails_at_load(self, tmp_path, capsys, message,
                                          edits, argv):
        # each of these loaded, or failed with a message naming no key,
        # and then failed every replication or wrote NaN rows
        path = tmp_path / "bad.yaml"
        text = SMALL_YAML
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_rechecks_the_budget(self, tmp_path, capsys):
        # x* comes from the seed, and with it the first epoch's length:
        # seed 1 gives a budget of 10 room, seed 3 asks for 38 samples
        path = tmp_path / "seeded.yaml"
        path.write_text(SMALL_YAML.replace("    n: 60", "    n: 10").replace(
            "    seed: 5", "    seed: 1").replace("coef_max: 10.0", "coef_max: 1.0"))
        assert load_config(path)["highdim"][0].seed == 1
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out",
                     str(out), "--seed", "3"]) == 2
        assert ("seeded.yaml: highdim[0] with --seed 3: n, coef_max: budget 10 "
                "cannot cover one epoch of length 38") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,want", [
        ("{kind: linear, design: toeplitz, d: 4, rho: 0.5, sigma: 1.0}",
         models.ModelSpec("linear", models.DesignSpec("toeplitz", 4, 0.5),
                          models.default_x_star(4), sigma=1.0)),
        ("{kind: logistic, design: identity, d: 2, x_star: [0.5, -1.0]}",
         models.ModelSpec("logistic", models.DesignSpec("identity", 2),
                          (0.5, -1.0))),
    ], ids=["linear-toeplitz", "logistic-identity"])
    def test_model_literal_loads(self, tmp_path, model, want):
        path = tmp_path / "cfg.yaml"
        block = SMALL_YAML[SMALL_YAML.index("    model:"):
                           SMALL_YAML.index("    estimators:")]
        path.write_text(SMALL_YAML.replace(block, f"    model: {model}\n"))
        assert load_config(path)["scenarios"][0].model == want

    @pytest.mark.parametrize("line", ["      sigma: 1.0\n",
                                      "      x_star: [0.0, 0.5, 1.0]\n",
                                      "      batch_means: [0.25]\n"],
                             ids=["sigma", "x_star", "batch_means"])
    def test_null_reads_as_absent(self, tmp_path, line):
        # only these three keys take null; every other null is an error
        text = SMALL_YAML.replace("      d: 3\n",
                                  "      d: 3\n      x_star: [0.0, 0.5, 1.0]\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(text.replace(line, ""))
        absent = load_config(path)["scenarios"][0]
        path.write_text(text.replace(line, line.split(":")[0] + ": null\n"))
        assert load_config(path)["scenarios"][0] == absent

    @pytest.mark.parametrize("key,old,new", [
        ("scenarios[0]: model: rho", "      d: 3", "      d: 3\n      rho: null"),
        ("scenarios[0]: model: d", "      d: 3", "      d: null"),
        ("scenarios[0]: eta", "    eta: 0.5", "    eta: null"),
        ("scenarios[0]: estimators: plugin", "      plugin: true",
         "      plugin: null"),
        ("highdim[0]: sigma", "    coef_max: 10.0",
         "    coef_max: 10.0\n    sigma: null"),
    ], ids=["rho", "d", "eta", "plugin", "highdim-sigma"])
    def test_other_nulls_rejected(self, tmp_path, key, old, new):
        path = tmp_path / "nulls.yaml"
        path.write_text(SMALL_YAML.replace(old, new, 1))
        with pytest.raises(ConfigError, match=re.escape(f"nulls.yaml: {key}: ")):
            load_config(path)

    def test_integral_float_loads_as_integer(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_YAML.replace("    n_sim: 4", "    n_sim: 4.0", 1))
        scn = load_config(path)["scenarios"][0]
        assert scn.n_sim == 4 and isinstance(scn.n_sim, int)

    def test_flags_load_as_given(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_YAML.replace(
            "      oracle: true", "      oracle: false", 1))
        scn = load_config(path)["scenarios"][0]
        assert scn.labels == ("plugin", "bm-0.25")

    def test_benchmark_config_loads(self, tmp_path, monkeypatch):
        # bench/run.py writes its own Table-1 config; it must stay loadable
        bench = Path(__file__).parent.parent / "bench"
        # run.py pins BLAS threads in os.environ on import; undo that after
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        table1 = run.Table1.__new__(run.Table1)
        table1.workers = 2
        path = tmp_path / "bench.yaml"
        table1._write_config(path, 1000, 2)
        assert [s.scenario_id for s in load_config(path)["scenarios"]] == ["table1-linear"]

    def test_default_eta_by_model(self):
        lin = small_scenario(eta=None)
        assert lin.resolved_eta == 0.5
        log = small_scenario(
            eta=None,
            model=models.ModelSpec("logistic", models.DesignSpec("identity", 3),
                                   models.default_x_star(3)))
        assert log.resolved_eta == 1.0


class TestOracleBundle:
    def test_linear_identity(self):
        bundle = make_oracle_bundle(small_scenario())
        np.testing.assert_allclose(bundle.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(
            bundle.lengths, 2 * 1.959964 * np.sqrt(1 / 2000), rtol=1e-6)

    def test_logistic_zero_truth_is_exact(self):
        scn = small_scenario(
            model=models.ModelSpec("logistic", models.DesignSpec("identity", 2),
                                   (0.0, 0.0)))
        bundle = make_oracle_bundle(scn)
        # at x*=0 the true A is I/4, so the covariance is 4I to the bit
        np.testing.assert_array_equal(bundle.matrix, 4 * np.eye(2))

    @pytest.mark.parametrize("scn", [
        load_config(Path(__file__).parent.parent / "configs"
                    / "table1_identity_d5.yaml")["scenarios"][0],
        small_scenario(model=models.ModelSpec(
            "linear", models.DesignSpec("toeplitz", 5, 0.5),
            models.default_x_star(5), sigma=1.0))],
        ids=["table1-identity", "toeplitz-0.5"])
    def test_lengths_keep_their_bits(self, scn):
        # 2·(z·s) = (2z)·s exactly, and both square roots are correctly
        # rounded, so the one interval formula gives the bits of 2·z·√(V_jj/n)
        v = models.oracle_covariance(scn.model).matrix
        z = z_quantile(1.0 - scn.q / 2.0)
        want = np.array([2.0 * z * math.sqrt(v[j, j] / scn.n)
                         for j in range(scn.model.d)])
        assert make_oracle_bundle(scn).lengths.tobytes() == want.tobytes()


class TestReplication:
    def test_deterministic_given_seed(self):
        scn = small_scenario()
        bundle = make_oracle_bundle(scn)
        seed = np.random.SeedSequence(scn.seed).spawn(1)[0]
        r1 = run_replication(scn, bundle, 0, seed)
        r2 = run_replication(scn, bundle, 0, seed)
        for label in r1.hits:
            assert np.array_equal(r1.hits[label], r2.hits[label])
            assert np.array_equal(r1.lengths[label], r2.lengths[label])

    def test_huge_intervals_hit(self):
        # q -> 0 means near-certain coverage (z-quantile blows up)
        scn = small_scenario(q=1e-6, n=500)
        bundle = make_oracle_bundle(scn)
        seed = np.random.SeedSequence(scn.seed).spawn(1)[0]
        out = run_replication(scn, bundle, 0, seed)
        assert all(v.all() for v in out.hits.values())

    def test_tiny_intervals_miss(self):
        scn = small_scenario(q=0.9999, n=500)
        bundle = make_oracle_bundle(scn)
        seed = np.random.SeedSequence(scn.seed).spawn(1)[0]
        out = run_replication(scn, bundle, 0, seed)
        assert not any(v.any() for v in out.hits.values())


class TestAggregate:
    def _row(self, label, hits):
        return ReplicationResult(index=0, ok=True,
                                 hits={label: np.asarray(hits)},
                                 lengths={label: np.ones(len(hits))})

    def test_all_hits(self):
        scn = small_scenario(estimators={"plugin": None})
        bundle = make_oracle_bundle(scn)
        results = [self._row("plugin", [True, True, True]) for _ in range(3)]
        for i, r in enumerate(results):
            r.index = i
        rows = aggregate(scn, bundle, results, 0.0)
        assert rows[0].cov_rate == 100.0

    def test_half_hits(self):
        scn = small_scenario(estimators={"plugin": None})
        bundle = make_oracle_bundle(scn)
        a = self._row("plugin", [True])
        b = self._row("plugin", [False])
        b.index = 1
        rows = aggregate(scn, bundle, [a, b], 0.0)
        assert rows[0].cov_rate == 50.0

    def test_failed_replications_skipped(self):
        scn = small_scenario(estimators={"plugin": None})
        bundle = make_oracle_bundle(scn)
        good = self._row("plugin", [True, False])
        bad = ReplicationResult(index=1, ok=False, error="diverged")
        rows = aggregate(scn, bundle, [good, bad], 0.0)
        assert rows[0].n_sim == 1
        assert rows[0].cov_rate == 50.0

    def test_zero_successes_raise(self):
        scn = small_scenario(estimators={"plugin": None})
        bundle = make_oracle_bundle(scn)
        bad = ReplicationResult(index=1, ok=False, error="diverged")
        worse = ReplicationResult(index=0, ok=False, error="also diverged")
        with pytest.raises(harness.ScenarioFailedError) as err:
            aggregate(scn, bundle, [bad, worse], 0.0)
        assert err.value.failures == [(0, "also diverged"), (1, "diverged")]
        assert str(err.value) == (f"scenario {scn.scenario_id}: all 2 "
                                  "replications failed; replication 0: "
                                  "also diverged")


class TestScenarioRuns:
    def test_serial_parallel_identical(self):
        scn = small_scenario(n=1500, n_sim=6)
        rows1, _ = run_scenario(scn, workers=1)
        rows2, _ = run_scenario(scn, workers=3)
        for a, b in zip(rows1, rows2):
            assert a.csv_line() == b.csv_line()

    def test_coverage_sane_at_small_scale(self):
        scn = small_scenario(n=4000, n_sim=16)
        rows, fails = run_scenario(scn, workers=2)
        assert not fails
        by = {r.estimator: r for r in rows}
        assert by["oracle"].cov_rate > 70.0
        assert by["plugin"].avg_len == pytest.approx(by["oracle"].oracle_len,
                                                     rel=0.25)

    def test_write_results_layout(self, tmp_path):
        rows = [AggregateRow("s", "plugin", 95.0, 0.0123456, 0.012, 100, 1.5,
                             intervals=500)]
        failures = {"s": [(0, "diverged"), (4, "diverged")]}
        write_results(rows, failures, tmp_path, {"path": "x"}, workers_used=2)
        csv = (tmp_path / "results.csv").read_text()
        assert csv.splitlines()[0] == harness.CSV_HEADER
        assert csv.splitlines()[1] == "s,plugin,95,0.0123456,0.012,100"
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["workers_used"] == 2
        assert doc["rows"][0]["intervals"] == 500
        assert doc["rows"][0]["n_failed"] == 2
        assert doc["failures"] == {"s": [[0, "diverged"], [4, "diverged"]]}

    def test_coverage_se_counts_intervals(self, tmp_path):
        # d = 3 intervals per replication: the SE is over n_sim·d of them
        scn = small_scenario(n=1500, n_sim=6)
        rows, _ = run_scenario(scn, workers=1)
        write_results(rows, {}, tmp_path, {"path": "x"})
        doc = json.loads((tmp_path / "results.json").read_text())
        for row in doc["rows"]:
            assert row["intervals"] == 6 * 3
            p = row["cov_rate_pct"] / 100.0
            assert row["cov_rate_se_pp"] == pytest.approx(
                100.0 * np.sqrt(p * (1.0 - p) / 18), rel=1e-12)

    def test_workers_capped_at_available_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert harness.pool_size(4 * cpus, 10**6) == cpus
        assert harness.pool_size(1, 10**6) == 1
        assert harness.pool_size(0, 10**6) == 1

    @pytest.mark.parametrize("count, want", [(3, 3), (None, 1)])
    def test_workers_without_cpu_affinity(self, monkeypatch, count, want):
        # off Linux the cap falls back to os.cpu_count(), which may be None
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert harness.pool_size(8, 10**6) == want
        assert harness.pool_size(1, 10**6) == 1

    def test_pool_never_larger_than_replications(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert harness.pool_size(8, 3) == 3
        assert harness.pool_size(2, 1) == 1
        assert harness.pool_size(4, 10) == 4
        assert harness.pool_size(16, 10) == 8

    def test_one_replication_runs_in_process(self, tmp_path, monkeypatch):
        # two CPUs and two workers, but one replication: no pool is forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        pools = []
        real = harness.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", spy)
        path = tmp_path / "one.yaml"
        path.write_text(SMALL_YAML.replace("    n_sim: 4", "    n_sim: 1")
                        .replace("    n_sim: 3", "    n_sim: 1"))
        rows = harness.simulate(path, tmp_path / "out", workers=2)
        assert pools == []
        assert {r.n_sim for r in rows} == {1}
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        assert doc["workers_used"] == 1


class TestHighdimScenario:
    def test_smoke_with_split_rows(self):
        scn = harness.HighDimScenario(scenario_id="hd", n=60, d=12, s0=2,
                                      seed=5, n_sim=3, coef_max=10.0)
        rows, _ = harness.run_scenario(scn, workers=1)
        labels = [r.estimator for r in rows]
        assert labels == ["debiased-s0", "debiased-s0c"]
        # one interval per coordinate in S0 (2) or its complement (10)
        assert [r.intervals for r in rows] == [3 * 2, 3 * 10]
        for r in rows:
            assert 0.0 <= r.cov_rate <= 100.0
            assert r.avg_len > 0

    def test_truth_fixed_across_replications(self):
        scn = harness.HighDimScenario(scenario_id="hd", n=50, d=10, s0=3,
                                      seed=5, n_sim=2)
        x1 = scn.model.xs
        x2 = scn.model.xs
        np.testing.assert_array_equal(x1, x2)
        assert (x1[:3] > 0).all() and (x1[3:] == 0).all()

    def test_oracle_length_is_the_linear_oracle(self):
        # sigma^2 Sigma^-1 gives 2 z sigma sqrt(diag(Sigma^-1) / n)
        scn = harness.HighDimScenario(scenario_id="hd", n=50, d=6, s0=2, seed=5,
                                      n_sim=1, design=models.DesignKind.TOEPLITZ,
                                      rho=0.5, sigma=2.0)
        sigma_inv = np.linalg.inv(0.5 ** np.abs(np.subtract.outer(np.arange(6),
                                                                 np.arange(6))))
        want = 2 * 1.959963984540054 * 2.0 * np.sqrt(np.diag(sigma_inv) / 50)
        np.testing.assert_allclose(make_oracle_bundle(scn).lengths, want, rtol=1e-14)

    def test_toeplitz_runs_nodewise_regressions(self, tmp_path, monkeypatch):
        # Under the identity design every true gamma is zero, so every
        # node-wise radius is 0 and gamma-hat is all zeros without a solve.
        # On a Toeplitz design each row has nonzero true neighbours.
        path = tmp_path / "toeplitz.yaml"
        path.write_text("""
highdim:
  - id: hd-toeplitz
    n: 60
    d: 8
    s0: 2
    seed: 5
    n_sim: 4
    coef_max: 5.0
    design: toeplitz
    rho: 0.5
""")
        real = harness.fit_debiased_lasso
        gammas = []

        def recording(*args, **kwargs):
            fit = real(*args, **kwargs)
            gammas.append(fit.precision.gamma)
            return fit

        monkeypatch.setattr(harness, "fit_debiased_lasso", recording)
        rows = harness.simulate(path, tmp_path / "w1", workers=1)
        assert [r.n_sim for r in rows] == [4, 4]
        assert len(gammas) == 4
        for gamma in gammas:
            assert gamma.shape == (8, 7)
            assert (np.abs(gamma).max(axis=1) > 0).all()
        monkeypatch.undo()
        harness.simulate(path, tmp_path / "w2", workers=2)
        assert ((tmp_path / "w1" / "results.csv").read_bytes()
                == (tmp_path / "w2" / "results.csv").read_bytes())

    def test_failed_replication_is_counted(self, tmp_path, monkeypatch):
        # one degenerate replication is recorded and the others still count
        real = harness.fit_debiased_lasso
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DegenerateResidualError("tau_hat_4 = -1.000e-03 <= 0")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_debiased_lasso", flaky)
        path = tmp_path / "cfg.yaml"
        path.write_text(SMALL_YAML)
        rows = [r for r in harness.simulate(path, tmp_path / "out", workers=1)
                if r.scenario == "hd-smoke"]
        assert [r.n_sim for r in rows] == [2, 2]
        assert [r.intervals for r in rows] == [2 * 2, 2 * 10]
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        assert doc["failures"] == {"hd-smoke": [[1, "tau_hat_4 = -1.000e-03 <= 0"]]}


def test_benchmark_traced_names_exist():
    # bench/tracer.py wraps these by name; a rename would zero a metric
    path = Path(__file__).parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, attr, _, _ in tracer.TRACED:
        module = importlib.import_module(f"sgdinf.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__.get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    # the tracer's counters read these arguments
    assert list(inspect.signature(importlib.import_module("sgdinf.sgd").run)
                .parameters)[1] == "n"
    assert "on_step" in inspect.signature(
        importlib.import_module("sgdinf.highdim").radar_lasso).parameters
