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
    """Reject a level q outside (0, 1), fewer than one sample or one
    replication, or a negative seed, which numpy's SeedSequence refuses."""
    if not 0.0 < scn.q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {scn.q}")
    for key, least in (("n", 1), ("n_sim", 1), ("seed", 0)):
        if getattr(scn, key) < least:
            raise ValueError(f"{key} must be >= {least}, got {getattr(scn, key)}")


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
    estimators: dict = field(default_factory=dict)  # label -> bm exponent or None

    def __post_init__(self):
        _check_shared(self)
        if not self.estimators:
            raise ValueError("scenario selects no estimators")
        StepSchedule(self.resolved_eta, self.alpha)     # checks eta and alpha
        for c in self.estimators.values():
            if c is not None:   # raises ScheduleError if infeasible
                m = batch_count(self.n, c)
                make_schedule(self.n, m, self.alpha)
                if m < 2:   # one batch mean is the overall mean: estimate 0
                    raise ValueError(
                        f"batch_means: exponent {c:g} gives M = {m} "
                        f"batch at n = {self.n}, need M >= 2")
        try:    # every row's oracle_len needs the oracle, selected or not
            models.oracle_covariance(self.model)
        except models.OracleError as exc:
            raise ValueError(f"model: x_star: {exc}") from None

    @property
    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return 0.5 if self.model.kind is models.ModelKind.LINEAR else 1.0

    @property
    def labels(self) -> tuple:
        return tuple(self.estimators)


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
        bound = _R1_SLACK * self.s0 * self.coef_max     # bounds the l1 radius
        if not bound * bound < np.inf:      # which the l1 solver squares
            raise ValueError(f"coef_max: {self.coef_max:g} is too large: "
                             f"({_R1_SLACK:g}·s0·coef_max)² overflows")
        model = self.model      # builds the design, which checks d and rho
        # the budget n must cover the first epoch of both solves, which is
        # t_min long unless the radius, from coef_max or rho, makes it longer
        try:
            main, node, _, _ = _radar_configs(self, model)
            for key, cfg, dim in (("coef_max", main, self.d),
                                  ("rho", node, self.d - 1)):
                epoch_plan(cfg, dim)
        except RadarConfigError as exc:
            key = "t_min" if exc.length in (None, self.t_min) else key
            raise ValueError(f"n, {key}: {exc}") from None

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


def _check_keys(cfg, allowed: set, where: str) -> None:
    """Check that `cfg` is a mapping that sets only `allowed` keys."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(str(k) for k in cfg if k not in allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in {where} "
                          f"(allowed: {', '.join(sorted(allowed))})")


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


def _reals(value) -> tuple:
    """A list of finite numbers."""
    return tuple(_real(v) for v in value)


def _nullable(convert):
    """`convert`, except that null reads as if the key were absent."""
    return lambda value: None if value is None else convert(value)


def _entries(value) -> list:
    """A list of config entries; null reads as none, false or {} as an error."""
    if value is not None and not isinstance(value, list):
        raise ValueError(f"expected a list of entries, got {type(value).__name__}")
    return value or []


def _flag(value) -> bool:
    """A YAML boolean; a string such as "false" or "no" is an error, not
    a true value."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _name(value) -> str:
    """A scenario id: one non-empty line without a comma, a results.csv cell.
    A string or a number reads as its text; null, a boolean, a list or a
    mapping is an error, not its repr."""
    text = str(value)
    if (value is None or isinstance(value, (bool, list, dict)) or "," in text
            or text.splitlines() != [text]):
        raise ValueError("expected a non-empty name without a comma or line "
                         f"break, got {value!r}")
    return text


def _convert(cfg, fields: dict, where: str) -> dict:
    """The keys `cfg` sets, each through its converter in `fields`; a value
    its converter rejects is reported under its key."""
    _check_keys(cfg, fields.keys(), where)
    out = {}
    for key, value in cfg.items():
        try:
            out[key] = fields[key](value)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{key}: {exc}") from None
    return out


def _parse_model(cfg) -> models.ModelSpec:
    values = _convert(cfg, _MODEL_FIELDS, "model")
    design = models.DesignSpec(values["design"], values["d"],
                               values.get("rho", 0.0))
    x_star = values.get("x_star")
    if x_star is None:
        x_star = models.default_x_star(design.d)
    sigma = values.get("sigma")
    if sigma is None and values["kind"] is models.ModelKind.LINEAR:
        sigma = 1.0
    return models.ModelSpec(values["kind"], design, x_star, sigma)


def _parse_estimators(cfg) -> dict:
    """{label: bm exponent or None}, in row order: plugin, bm-*, oracle."""
    values = _convert(cfg, _ESTIMATOR_FIELDS, "estimators")
    out = {"plugin": None} if values.get("plugin") else {}
    for c in values.get("batch_means") or ():   # one sink and one row per label
        label = f"bm-{c:g}"
        if label in out:
            raise ValueError(f"batch_means: exponents {out[label]!r} "
                             f"and {c!r} both give the label {label}")
        out[label] = c
    if values.get("oracle"):
        out["oracle"] = None
    return out


# The converter of every key a config mapping may set, by where it appears.
# A key left out takes its default; "id" fills the scenario_id field.
_TOP_FIELDS = {"workers": _integer, "scenarios": _entries, "highdim": _entries}
_MODEL_FIELDS = {
    "kind": models.ModelKind, "design": models.DesignKind, "d": _integer,
    "rho": _real, "x_star": _nullable(_reals), "sigma": _nullable(_real)}
_ESTIMATOR_FIELDS = {
    "plugin": _flag, "batch_means": _nullable(_reals), "oracle": _flag}
_SCENARIO_FIELDS = {
    "id": _name, "model": _parse_model, "n": _integer, "n_sim": _integer,
    "seed": _integer, "alpha": _real, "eta": _real, "q": _real,
    "estimators": _parse_estimators}
_HIGHDIM_FIELDS = {
    "id": _name, "n": _integer, "d": _integer, "s0": _integer, "seed": _integer,
    "n_sim": _integer, "coef_max": _real, "design": models.DesignKind,
    "rho": _real, "sigma": _real, "q": _real, "t_min": _integer}


def load_config(path, seed=None) -> dict:
    """Parse a YAML config into scenario lists, each entry with its seed
    replaced by `seed` if given; raises ConfigError naming the file, the
    entry and the offending field, also for a key it does not know."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    try:
        top = _convert(raw, _TOP_FIELDS, "config file")
        workers = top.get("workers", 1)
        if workers < 1:
            raise ValueError(f"workers: must be >= 1, got {workers}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    out = {"scenarios": [], "highdim": [], "workers": workers}
    ids = {}     # rows and failures are keyed by the id, across both sections
    for section, cls, fields, where in (
            ("scenarios", ScenarioConfig, _SCENARIO_FIELDS, "scenario"),
            ("highdim", HighDimScenario, _HIGHDIM_FIELDS, "highdim entry")):
        for i, scn in enumerate(top.get(section, [])):
            entry = f"{section}[{i}]"
            try:
                values = _convert(scn, fields, where)
                built = cls(**{"scenario_id" if k == "id" else k: v
                               for k, v in values.items()})
                if seed is not None:    # rechecked: a new seed draws a new x*
                    entry += f" with --seed {seed}"
                    built = dataclasses.replace(built, seed=seed)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: {entry}: {exc}")
            out[section].append(built)
            scn_id = built.scenario_id
            if scn_id in ids:
                raise ConfigError(f"{path}: {section}[{i}]: id: {scn_id!r} is "
                                  f"also the id of {ids[scn_id]}")
            ids[scn_id] = f"{section}[{i}]"
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
    data = models.sample_dataset(model, scn.n, np.random.default_rng(rep_seed))

    sinks = {}
    for label, c in scn.estimators.items():
        if label == "plugin":
            sinks[label] = PluginAccumulator(model.d)
        elif c is not None:
            schedule = make_schedule(scn.n, batch_count(scn.n, c), scn.alpha)
            sinks[label] = BatchMeansAccumulator(schedule, model.d)

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


def pool_size(workers: int, replications: int) -> int:
    """The requested worker count, capped at the CPUs this process may run
    on and at the replications, and at least 1; 1 runs in-process."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)     # macOS and Windows: no affinity
    return max(1, min(int(workers), cpus, replications))


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


def simulate(config_path, out_dir, workers=None, seed=None):
    """Run every entry of a config file, its scenarios and then its highdim
    entries, into results.csv and results.json in out_dir; returns the rows.
    A scenario whose replications all fail adds no rows; the rest still run,
    and the first such ScenarioFailedError is raised after the writes."""
    cfg = load_config(config_path, seed)
    entries = cfg["scenarios"] + cfg["highdim"]
    if not entries:
        raise ConfigError(f"{config_path}: no scenarios or highdim entries")
    if workers is None:
        workers = cfg["workers"]
    elif workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    try:    # before any replication runs
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror}") from None
    all_rows, failures, failed = [], {}, None
    for scn in entries:
        try:
            rows, fails = run_scenario(scn, workers=workers)
        except ScenarioFailedError as exc:
            rows, fails, failed = [], exc.failures, failed or exc
        all_rows.extend(rows)
        if fails:
            failures[scn.scenario_id] = fails
    echo = {"path": str(config_path), "workers": workers, "seed_override": seed}
    used = max(pool_size(workers, scn.n_sim) for scn in entries)
    write_results(all_rows, failures, out_dir, echo, workers_used=used)
    if failed is not None:
        raise failed
    return all_rows
