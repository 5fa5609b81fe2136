"""Monte-Carlo simulation harness.

Loads scenario configs (YAML), runs independent replications in parallel
with per-replication seeds derived from the scenario seed, and aggregates
coverage rates and interval lengths into deterministic CSV rows (plus a
JSON provenance file). Aggregates are byte-identical for a given config
regardless of worker count: replication seeds depend only on the
replication index and results are reduced in index order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import yaml

from . import models
from .batchmeans import BatchMeansAccumulator, batch_count, make_schedule
from .highdim import (DegenerateResidualError, RadarConfig, RadarConfigError,
                      epoch_plan, fit_debiased_lasso)
from .inference import confidence_interval
from .plugin import PluginAccumulator
from .sgd import DivergenceError, SinkFinalizeError, StepSchedule, run

_DESIGN_TAG = 0xD351
_XSTAR_TAG = 0x57A2
_R1_SLACK = 1.1     # high-dimensional l1 radii over the true l1 norms


class ConfigError(ValueError):
    """Bad or missing harness configuration."""


class ScenarioFailedError(RuntimeError):
    """Every replication of a scenario failed; .failures holds the
    (index, error) of each, in index order."""

    def __init__(self, scenario_id: str, failures: list):
        (index, error), count = failures[0], len(failures)
        super().__init__(f"scenario {scenario_id}: all {count} replications "
                         f"failed; replication {index}: {error}")
        self.failures = failures


def _check_shared(scn) -> None:
    """Reject a level q outside (0, 1), or fewer than one sample or one
    replication."""
    if not 0.0 < scn.q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {scn.q}")
    for key in ("n", "n_sim"):
        if getattr(scn, key) < 1:
            raise ValueError(f"{key} must be >= 1, got {getattr(scn, key)}")


@dataclass(frozen=True)
class EstimatorChoice:
    kind: str                  # "plugin" | "bm" | "oracle"
    c: float | None = None     # batch-count exponent for "bm"

    @property
    def label(self) -> str:
        if self.kind == "bm":
            return f"bm-{self.c:g}"
        return self.kind


@dataclass
class ScenarioConfig:
    scenario_id: str
    model: models.ModelSpec
    n: int
    n_sim: int
    seed: int
    alpha: float = 0.5
    eta: float | None = None
    q: float = 0.05
    estimators: tuple = ()
    fixed_design: bool = False

    def __post_init__(self):
        _check_shared(self)
        if not self.estimators:
            raise ValueError("scenario selects no estimators")
        StepSchedule(self.resolved_eta, self.alpha)     # checks eta and alpha
        for choice in self.estimators:
            if choice.kind == "bm":     # raises ScheduleError if infeasible
                m = batch_count(self.n, choice.c)
                make_schedule(self.n, m, self.alpha)
                if m < 2:   # one batch mean is the overall mean: estimate 0
                    raise ValueError(
                        f"batch_means: exponent {choice.c:g} gives M = {m} "
                        f"batch at n = {self.n}, need M >= 2")

    @property
    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return 0.5 if self.model.kind is models.ModelKind.LINEAR else 1.0

    @property
    def labels(self) -> tuple:
        return tuple(choice.label for choice in self.estimators)


@dataclass
class HighDimScenario:
    scenario_id: str
    n: int
    d: int
    s0: int
    seed: int
    n_sim: int
    coef_max: float = 25.0
    design: models.DesignKind = models.DesignKind.IDENTITY
    rho: float = 0.0
    sigma: float = 1.0
    q: float = 0.05
    t_min: int = 8
    labels: ClassVar[tuple] = ("debiased-s0", "debiased-s0c")

    def __post_init__(self):
        _check_shared(self)
        if not 1 <= self.s0 < self.d:
            raise ValueError(f"s0 must lie in [1, d) = [1, {self.d}), got {self.s0}")
        if self.coef_max < 0:
            raise ValueError(f"coef_max must be >= 0, got {self.coef_max:g}")
        model = self.model      # builds the design, which checks d and rho
        # the budget n must cover the first epoch of both solves
        try:
            main, node, _, _ = _radar_configs(self, model)
            for cfg, dim in ((main, self.d), (node, self.d - 1)):
                epoch_plan(cfg, dim)
        except RadarConfigError as exc:
            raise ValueError(f"n, t_min: {exc}") from None

    @property
    def model(self) -> models.ModelSpec:
        """The sparse linear model on this scenario's design. Its x* is drawn
        once from the scenario seed: s0 leading coordinates uniform on
        [0, coef_max], the rest zero."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, _XSTAR_TAG)))
        x_star = np.zeros(self.d)
        x_star[:self.s0] = rng.uniform(0.0, self.coef_max, self.s0)
        return models.ModelSpec(
            models.ModelKind.LINEAR, models.DesignSpec(self.design, self.d, self.rho),
            tuple(x_star), sigma=self.sigma)


@dataclass
class AggregateRow:
    scenario: str
    estimator: str
    cov_rate: float      # percent
    avg_len: float
    oracle_len: float
    n_sim: int
    wall_time: float = 0.0
    intervals: int = 0   # intervals behind cov_rate; JSON only

    def csv_line(self) -> str:
        return (f"{self.scenario},{self.estimator},{self.cov_rate:.6g},"
                f"{self.avg_len:.6g},{self.oracle_len:.6g},{self.n_sim}")


CSV_HEADER = "scenario,estimator,cov_rate_pct,avg_len,oracle_len,n_sim"


# Every key a config may set, by where it appears.
_TOP_KEYS = {"workers", "scenarios", "highdim"}
_MODEL_KEYS = {"kind", "design", "d", "rho", "x_star", "sigma"}
_ESTIMATOR_KEYS = {"plugin", "batch_means", "oracle"}


def _check_keys(cfg, allowed: set, where: str) -> dict:
    """The mapping `cfg`, after checking that it sets only `allowed` keys."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(str(k) for k in cfg if k not in allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in {where} "
                          f"(allowed: {', '.join(sorted(allowed))})")
    return cfg


def _integer(value) -> int:
    """An integer; a boolean or a number with a fractional part is an
    error, not 1, 0 or the number truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite number; a boolean, nan or inf is an error, not 1.0, 0.0 or
    a value no computation can use."""
    if isinstance(value, bool) or not np.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _under(key: str, convert, value):
    """convert(value), with a value it rejects reported under `key`."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _parse_model(cfg: dict) -> models.ModelSpec:
    _check_keys(cfg, _MODEL_KEYS, "model")
    _under("d", _integer, cfg.get("d", 0))
    for key in ("rho", "sigma"):
        if cfg.get(key) is not None:
            _under(key, _real, cfg[key])
    for value in cfg.get("x_star") or ():
        _under("x_star", _real, value)
    return models.ModelSpec.from_config(cfg)


def _flag(value) -> bool:
    """A YAML boolean; a string such as "false" or "no" is an error, not
    a true value."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _parse_estimators(cfg: dict) -> tuple:
    _check_keys(cfg, _ESTIMATOR_KEYS, "estimators")
    flags = {key: _under(key, _flag, cfg.get(key, False))
             for key in ("plugin", "oracle")}
    choices = []
    if flags["plugin"]:
        choices.append(EstimatorChoice("plugin"))
    for c in cfg.get("batch_means", []) or []:
        choices.append(EstimatorChoice("bm", _under("batch_means", _real, c)))
    if flags["oracle"]:
        choices.append(EstimatorChoice("oracle"))
    return tuple(choices)


# The converter of every key a scenario entry may set. A key left out takes
# its dataclass default; "id" fills the scenario_id field.
_SCENARIO_FIELDS = {
    "id": str, "model": _parse_model, "n": _integer, "n_sim": _integer,
    "seed": _integer, "alpha": _real, "eta": _real, "q": _real,
    "estimators": _parse_estimators, "fixed_design": _flag}
_HIGHDIM_FIELDS = {
    "id": str, "n": _integer, "d": _integer, "s0": _integer, "seed": _integer,
    "n_sim": _integer, "coef_max": _real, "design": models.DesignKind,
    "rho": _real, "sigma": _real, "q": _real, "t_min": _integer}


def _build(cls, cfg, fields: dict, where: str):
    """A `cls` from the keys `cfg` sets, each through its converter; a value
    its converter rejects is reported under its key."""
    _check_keys(cfg, fields.keys(), where)
    kwargs = {}
    for key, value in cfg.items():
        try:
            kwargs["scenario_id" if key == "id" else key] = fields[key](value)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cls(**kwargs)


def load_config(path) -> dict:
    """Parse a YAML config into scenario lists; raises ConfigError naming
    the file and the offending field, also for a key it does not know."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    _check_keys(raw, _TOP_KEYS, f"config file {path}")
    try:
        workers = _integer(raw.get("workers", 1))
        if workers < 1:
            raise ValueError(f"must be >= 1, got {workers}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: workers: {exc}") from None
    out = {"scenarios": [], "highdim": [], "workers": workers}
    for section, cls, fields, where in (
            ("scenarios", ScenarioConfig, _SCENARIO_FIELDS, "scenario"),
            ("highdim", HighDimScenario, _HIGHDIM_FIELDS, "highdim entry")):
        entries = raw.get(section) or []
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: {section}: expected a list of "
                              f"entries, got {type(entries).__name__}")
        for i, scn in enumerate(entries):
            try:
                out[section].append(_build(cls, scn, fields, where))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: {section}[{i}]: {exc}")
    return out


@dataclass
class OracleBundle:
    """Per-scenario truth quantities computed once: the asymptotic
    covariance and the per-coordinate oracle interval lengths."""

    matrix: np.ndarray
    lengths: np.ndarray


def make_oracle_bundle(scn) -> OracleBundle:
    """The oracle quantities of a scenario's model, low- or high-dimensional,
    from models.oracle_covariance: σ²Σ⁻¹ for the linear model and A⁻¹ for
    logistic, both in closed form, so nothing is drawn."""
    matrix = models.oracle_covariance(scn.model).matrix
    ci = confidence_interval(np.zeros(scn.model.d), matrix, scn.n, scn.q)
    return OracleBundle(matrix=matrix, lengths=ci.lengths)


@dataclass
class ReplicationResult:
    index: int
    ok: bool
    hits: dict = field(default_factory=dict)     # label -> bool array (d,)
    lengths: dict = field(default_factory=dict)  # label -> float array (d,)
    error: str = ""


def run_replication(scn: ScenarioConfig, oracle: OracleBundle, rep_index: int,
                    rep_seed: np.random.SeedSequence) -> ReplicationResult:
    """One independent draw + SGD pass + per-estimator interval reports."""
    model = scn.model
    rng = np.random.default_rng(rep_seed)
    covariates = None
    if scn.fixed_design:
        design_rng = np.random.default_rng(
            np.random.SeedSequence((scn.seed, _DESIGN_TAG)))
        covariates = models.sample_covariates(model.design, scn.n, design_rng)
    data = models.sample_dataset(model, scn.n, rng, covariates=covariates)

    sinks = {}
    for choice in scn.estimators:
        if choice.kind == "plugin":
            sinks[choice.label] = PluginAccumulator(model.d)
        elif choice.kind == "bm":
            schedule = make_schedule(scn.n, batch_count(scn.n, choice.c), scn.alpha)
            sinks[choice.label] = BatchMeansAccumulator(schedule, model.d)

    schedule = StepSchedule(eta=scn.resolved_eta, alpha=scn.alpha)
    try:
        state, estimates = run(model, scn.n, schedule, sinks=list(sinks.values()),
                               data=data)
    except (DivergenceError, SinkFinalizeError) as exc:
        return ReplicationResult(index=rep_index, ok=False, error=str(exc))

    covs = dict(zip(sinks, estimates), oracle=oracle.matrix)
    result = ReplicationResult(index=rep_index, ok=True)
    for label in scn.labels:
        report = confidence_interval(state.x_bar, covs[label], scn.n, scn.q,
                                     truth=model.xs)
        result.hits[label] = report.hits
        result.lengths[label] = report.lengths
    return result


def _nodewise_truth(design: models.DesignSpec):
    """(r1 rows, sparsity rows) for node-wise fits from the true precision:
    gamma_j = -Omega_{j,-j} / Omega_jj."""
    omega = np.linalg.inv(models.make_covariance(design))
    gamma = -omega / np.diag(omega)[:, None]
    np.fill_diagonal(gamma, 0.0)
    return np.abs(gamma).sum(axis=1), (np.abs(gamma) > 1e-12).sum(axis=1)


def _radar_configs(scn: HighDimScenario, model: models.ModelSpec):
    """(main config, node-wise config, node-wise l1 radii, node-wise
    sparsities) of a high-dimensional scenario: radii are the true l1 norms
    of x* and of the node-wise rows of the true precision, times _R1_SLACK."""
    node_r1, node_s = _nodewise_truth(model.design)
    main = RadarConfig(r1=_R1_SLACK * float(np.abs(model.xs).sum()),
                       s_bound=scn.s0, total_n=scn.n, t_min=scn.t_min)
    node = RadarConfig(r1=_R1_SLACK * float(np.max(node_r1)),
                       s_bound=int(np.max(node_s)), total_n=scn.n,
                       t_min=scn.t_min)
    return main, node, _R1_SLACK * node_r1, node_s


def run_highdim_replication(scn: HighDimScenario, oracle: OracleBundle,
                            rep_index: int,
                            rep_seed: np.random.SeedSequence) -> ReplicationResult:
    """One draw of (D, b) from the sparse model and its debiased intervals,
    split into the active set S0 and its complement."""
    model = scn.model
    design, b = models.sample_dataset(model, scn.n, np.random.default_rng(rep_seed))
    main_cfg, node_cfg, node_r1, node_s = _radar_configs(scn, model)
    try:
        fit = fit_debiased_lasso(
            design, b, main_cfg, node_cfg, scn.sigma, scn.q, truth=model.xs,
            node_r1_rows=node_r1, node_s_rows=node_s)
    except DegenerateResidualError as exc:   # the budget is checked at load
        return ReplicationResult(index=rep_index, ok=False, error=str(exc))
    active = np.arange(scn.d) < scn.s0
    report = fit.report
    s0, s0c = scn.labels
    return ReplicationResult(
        index=rep_index, ok=True,
        hits={s0: report.hits[active], s0c: report.hits[~active]},
        lengths={s0: report.lengths[active], s0c: report.lengths[~active]})


def effective_workers(requested: int) -> int:
    """The requested worker count, capped at the CPUs this process may run
    on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)     # macOS and Windows: no affinity
    return max(1, min(int(requested), cpus))


def pool_size(workers: int, replications: int) -> int:
    """effective_workers, capped at the replications; 1 runs in-process."""
    return min(effective_workers(workers), replications)


def aggregate(scn, oracle: OracleBundle, results: list, wall_time: float) -> list:
    """Reduce replication results (in index order) to one row per label."""
    results = sorted(results, key=lambda r: r.index)
    ok = [r for r in results if r.ok]
    if not ok:
        raise ScenarioFailedError(scn.scenario_id,
                                  [(r.index, r.error) for r in results])
    rows = []
    oracle_len = float(oracle.lengths.mean())
    for label in scn.labels:
        hits = np.concatenate([r.hits[label] for r in ok])
        lens = np.concatenate([r.lengths[label] for r in ok])
        rows.append(AggregateRow(
            scenario=scn.scenario_id, estimator=label,
            cov_rate=100.0 * float(hits.mean()),
            avg_len=float(lens.mean()),
            oracle_len=oracle_len,
            n_sim=len(ok),
            wall_time=wall_time,
            intervals=hits.size,
        ))
    return rows


def run_scenario(scn, workers: int = 1):
    """All replications of one scenario, low- or high-dimensional; returns
    (rows, failures), with the (index, error) of every failed replication.
    Raises ScenarioFailedError if every replication failed.

    Replication i draws from the i-th seed spawned from the scenario seed,
    and results are reduced in index order, so the rows do not depend on
    the worker count.
    """
    replicate = (run_highdim_replication if isinstance(scn, HighDimScenario)
                 else run_replication)
    t0 = time.monotonic()
    oracle = make_oracle_bundle(scn)
    n_sim = scn.n_sim
    args = ([scn] * n_sim, [oracle] * n_sim, range(n_sim),
            np.random.SeedSequence(scn.seed).spawn(n_sim))
    workers = pool_size(workers, n_sim)
    if workers <= 1:
        results = list(map(replicate, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replicate, *args, chunksize=1))
    rows = aggregate(scn, oracle, results, time.monotonic() - t0)
    return rows, [(r.index, r.error) for r in results if not r.ok]


# --- output ------------------------------------------------------------------

def write_results(rows: list, failures: dict, out_dir, config_echo: dict,
                  workers_used: int = 1) -> None:
    """results.csv (deterministic bytes) and results.json (full provenance),
    written into the existing directory out_dir.

    The coverage SE is binomial over the row's intervals: n_sim·d for a
    low-dimensional row, n_sim·|S0| or n_sim·|S0ᶜ| for a high-dimensional one.
    """
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")
    doc = {
        "config": config_echo,
        "rows": [{
            "scenario": r.scenario, "estimator": r.estimator,
            "cov_rate_pct": r.cov_rate, "avg_len": r.avg_len,
            "oracle_len": r.oracle_len, "n_sim": r.n_sim,
            "wall_time_s": r.wall_time, "intervals": r.intervals,
            "n_failed": len(failures.get(r.scenario, ())),
            "cov_rate_se_pp": 100.0 * float(
                np.sqrt(max(r.cov_rate / 100 * (1 - r.cov_rate / 100), 0.0)
                        / max(r.intervals, 1))),
        } for r in rows],
        "failures": failures,
        "workers_used": workers_used,
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(doc, fh, indent=2)


def simulate(config_path, out_dir, workers=None, seed=None, fixed_design=None,
             section="scenarios"):
    """Run every scenario of one section of a config file: "scenarios" (the
    low-dimensional ones; `fixed_design` applies to these) or "highdim".
    Writes results.csv and results.json to out_dir and returns the rows. A
    scenario whose replications all fail adds no rows; the rest still run,
    and the first such ScenarioFailedError is raised after the writes."""
    cfg = load_config(config_path)
    if not cfg[section]:
        raise ConfigError(f"{config_path}: no '{section}' section")
    if workers is None:
        workers = cfg["workers"]
    elif workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if fixed_design is not None:
        overrides["fixed_design"] = bool(fixed_design)
    try:    # a new seed draws a new x*, which the budget check reads
        scenarios = [dataclasses.replace(scn, **overrides) for scn in cfg[section]]
    except ValueError as exc:
        raise ConfigError(f"{config_path}: with --seed {seed}: {exc}") from None
    try:    # before any replication runs
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror}") from None
    all_rows, failures, failed = [], {}, None
    for scn in scenarios:
        try:
            rows, fails = run_scenario(scn, workers=workers)
        except ScenarioFailedError as exc:
            rows, fails, failed = [], exc.failures, failed or exc
        all_rows.extend(rows)
        if fails:
            failures[scn.scenario_id] = fails
    echo = {"path": str(config_path), "workers": workers, "seed_override": seed}
    if section == "scenarios":
        echo["fixed_design"] = fixed_design
    used = max(pool_size(workers, scn.n_sim) for scn in scenarios)
    write_results(all_rows, failures, out_dir, echo, workers_used=used)
    if failed is not None:
        raise failed
    return all_rows
