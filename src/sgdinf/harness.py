"""Monte-Carlo simulation harness.

Loads scenario configs (YAML), runs independent replications in parallel
with per-replication seeds derived from the scenario seed, and aggregates
coverage rates and interval lengths into deterministic CSV rows (plus a
JSON provenance file). Aggregates are byte-identical for a given config
regardless of worker count: replication seeds depend only on the
replication index and results are reduced in index order.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import models
from .batchmeans import BatchMeansAccumulator, batch_count, make_schedule
from .highdim import RadarConfig, fit_debiased_lasso
from .inference import confidence_interval
from .plugin import PluginAccumulator
from .sgd import DivergenceError, StepSchedule, run

_DESIGN_TAG = 0xD351
_XSTAR_TAG = 0x57A2
_ORACLE_TAG = 0x0AC1


class ConfigError(ValueError):
    """Bad or missing harness configuration."""


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
    oracle_mc_samples: int = 1_000_000

    @property
    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return 0.5 if self.model.kind is models.ModelKind.LINEAR else 1.0


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
    c_epoch: float = 1.0
    c_lambda: float = 1.0
    t_min: int = 8
    r1_slack: float = 1.1


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


def _parse_estimators(cfg: dict) -> tuple:
    choices = []
    if cfg.get("plugin", False):
        choices.append(EstimatorChoice("plugin"))
    for c in cfg.get("batch_means", []) or []:
        choices.append(EstimatorChoice("bm", float(c)))
    if cfg.get("oracle", False):
        choices.append(EstimatorChoice("oracle"))
    if not choices:
        raise ConfigError("scenario selects no estimators")
    return tuple(choices)


def load_config(path) -> dict:
    """Parse a YAML config into scenario lists; raises ConfigError with the
    offending path/field."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    out = {"scenarios": [], "highdim": [], "workers": int(raw.get("workers", 1))}
    for i, scn in enumerate(raw.get("scenarios", []) or []):
        try:
            model = models.ModelSpec.from_config(scn["model"])
            out["scenarios"].append(ScenarioConfig(
                scenario_id=str(scn["id"]),
                model=model,
                n=int(scn["n"]),
                n_sim=int(scn["n_sim"]),
                seed=int(scn["seed"]),
                alpha=float(scn.get("alpha", 0.5)),
                eta=float(scn["eta"]) if "eta" in scn else None,
                q=float(scn.get("q", 0.05)),
                estimators=_parse_estimators(scn.get("estimators", {})),
                fixed_design=bool(scn.get("fixed_design", False)),
                oracle_mc_samples=int(scn.get("oracle_mc_samples", 1_000_000)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: scenarios[{i}]: {exc}")
    for i, scn in enumerate(raw.get("highdim", []) or []):
        try:
            out["highdim"].append(HighDimScenario(
                scenario_id=str(scn["id"]),
                n=int(scn["n"]),
                d=int(scn["d"]),
                s0=int(scn["s0"]),
                seed=int(scn["seed"]),
                n_sim=int(scn["n_sim"]),
                coef_max=float(scn.get("coef_max", 25.0)),
                design=models.DesignKind(scn.get("design", "identity")),
                rho=float(scn.get("rho", 0.0)),
                sigma=float(scn.get("sigma", 1.0)),
                q=float(scn.get("q", 0.05)),
                c_epoch=float(scn.get("c_epoch", 1.0)),
                c_lambda=float(scn.get("c_lambda", 1.0)),
                t_min=int(scn.get("t_min", 8)),
                r1_slack=float(scn.get("r1_slack", 1.1)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: highdim[{i}]: {exc}")
    return out


@dataclass
class OracleBundle:
    """Per-scenario truth quantities computed once: the asymptotic
    covariance, the true lambda_min(A) used by the plug-in threshold, and
    the per-coordinate oracle interval lengths."""

    matrix: np.ndarray
    lambda_a: float
    lengths: np.ndarray


def make_oracle_bundle(scn: ScenarioConfig) -> OracleBundle:
    from .inference import z_quantile
    model = scn.model
    if model.kind is models.ModelKind.LINEAR:
        a_matrix = models.make_covariance(model.design)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((scn.seed, _ORACLE_TAG)))
        a_matrix = models.population_hessian(model, scn.oracle_mc_samples, rng)
    lambda_a = float(np.linalg.eigvalsh(a_matrix).min())
    if model.kind is models.ModelKind.LINEAR:
        cov = model.sigma ** 2 * np.linalg.inv(a_matrix)
    else:
        cov = np.linalg.inv(a_matrix)
    cov = 0.5 * (cov + cov.T)
    z = z_quantile(1.0 - scn.q / 2.0)
    lengths = 2.0 * z * np.sqrt(np.diag(cov) / scn.n)
    return OracleBundle(matrix=cov, lambda_a=lambda_a, lengths=lengths)


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
        covariates, _ = models.sample_dataset(model, scn.n, design_rng)
    data = models.sample_dataset(model, scn.n, rng, covariates=covariates)

    sinks = []
    sink_for = {}
    for choice in scn.estimators:
        if choice.kind == "plugin":
            s = PluginAccumulator(model.d, lambda_a=oracle.lambda_a)
        elif choice.kind == "bm":
            schedule = make_schedule(scn.n, batch_count(scn.n, choice.c), scn.alpha)
            s = BatchMeansAccumulator(schedule, model.d)
        else:
            continue
        sinks.append(s)
        sink_for[choice.label] = s

    schedule = StepSchedule(eta=scn.resolved_eta, alpha=scn.alpha)
    try:
        state, estimates = run(model, scn.n, schedule, sinks=sinks, data=data)
    except DivergenceError as exc:
        return ReplicationResult(index=rep_index, ok=False, error=str(exc))

    by_sink = dict(zip(sinks, estimates))
    truth = model.xs
    result = ReplicationResult(index=rep_index, ok=True)
    for choice in scn.estimators:
        if choice.kind == "oracle":
            cov = oracle.matrix
        else:
            cov = by_sink[sink_for[choice.label]]
        report = confidence_interval(state.x_bar, cov, scn.n, scn.q, truth=truth)
        result.hits[choice.label] = report.hits.copy()
        result.lengths[choice.label] = report.lengths.copy()
    return result


def _rep_job(args):
    return run_replication(*args)


def effective_workers(requested: int) -> int:
    """Pool size actually used: the request, capped at the CPUs this
    process may run on."""
    return max(1, min(int(requested), len(os.sched_getaffinity(0))))


def _map_jobs(job, jobs, workers: int):
    workers = effective_workers(workers)
    if workers <= 1:
        return [job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, jobs, chunksize=1))


def aggregate(scn: ScenarioConfig, oracle: OracleBundle,
              results: list, wall_time: float) -> list:
    """Reduce replication results (in index order) to one row per estimator."""
    results = sorted(results, key=lambda r: r.index)
    ok = [r for r in results if r.ok]
    if not ok:
        raise RuntimeError(f"scenario {scn.scenario_id}: no successful replications")
    rows = []
    oracle_len = float(oracle.lengths.mean())
    for choice in scn.estimators:
        label = choice.label
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


def run_scenario(scn: ScenarioConfig, workers: int = 1):
    """All replications of one scenario; returns (rows, failures)."""
    t0 = time.monotonic()
    oracle = make_oracle_bundle(scn)
    children = np.random.SeedSequence(scn.seed).spawn(scn.n_sim)
    jobs = [(scn, oracle, i, children[i]) for i in range(scn.n_sim)]
    results = _map_jobs(_rep_job, jobs, workers)
    wall = time.monotonic() - t0
    rows = aggregate(scn, oracle, results, wall)
    failures = [(r.index, r.error) for r in results if not r.ok]
    return rows, failures


# --- high-dimensional scenarios ---------------------------------------------

def _highdim_truth(scn: HighDimScenario) -> np.ndarray:
    """Fixed realization of the sparse coefficient vector for a scenario."""
    rng = np.random.default_rng(np.random.SeedSequence((scn.seed, _XSTAR_TAG)))
    x = np.zeros(scn.d)
    x[:scn.s0] = rng.uniform(0.0, scn.coef_max, scn.s0)
    return x


def _highdim_design_spec(scn: HighDimScenario) -> models.DesignSpec:
    return models.DesignSpec(kind=scn.design, d=scn.d, rho=scn.rho)


def _nodewise_truth(design: models.DesignSpec):
    """(r1 rows, sparsity rows) for node-wise fits from the true precision."""
    omega = np.linalg.inv(models.make_covariance(design))
    d = design.d
    r1 = np.empty(d)
    s_rows = np.empty(d, dtype=int)
    for j in range(d):
        gamma = -np.delete(omega[j], j) / omega[j, j]
        r1[j] = np.abs(gamma).sum()
        s_rows[j] = int((np.abs(gamma) > 1e-12).sum())
    return r1, s_rows


def run_highdim_replication(scn: HighDimScenario, x_star: np.ndarray,
                            node_r1, node_s, rep_index: int,
                            rep_seed: np.random.SeedSequence) -> ReplicationResult:
    rng = np.random.default_rng(rep_seed)
    spec = _highdim_design_spec(scn)
    z = rng.standard_normal((scn.n, scn.d))
    if spec.kind is models.DesignKind.IDENTITY:
        design = z
    else:
        design = z @ np.linalg.cholesky(models.make_covariance(spec)).T
    b = design @ x_star + scn.sigma * rng.standard_normal(scn.n)

    main_cfg = RadarConfig(
        r1=scn.r1_slack * float(np.abs(x_star).sum()), s_bound=scn.s0,
        total_n=scn.n, c_epoch=scn.c_epoch, c_lambda=scn.c_lambda,
        t_min=scn.t_min)
    node_cfg = RadarConfig(
        r1=scn.r1_slack * float(np.max(node_r1)),
        s_bound=int(np.max(node_s)), total_n=scn.n, c_epoch=scn.c_epoch,
        c_lambda=scn.c_lambda, t_min=scn.t_min)

    fit = fit_debiased_lasso(
        design, b, main_cfg, node_cfg, scn.sigma, scn.q, truth=x_star,
        node_r1_rows=scn.r1_slack * node_r1, node_s_rows=node_s)

    active = np.zeros(scn.d, dtype=bool)
    active[:scn.s0] = True
    report = fit.report
    return ReplicationResult(
        index=rep_index, ok=True,
        hits={"debiased-s0": report.hits[active].copy(),
              "debiased-s0c": report.hits[~active].copy()},
        lengths={"debiased-s0": report.lengths[active].copy(),
                 "debiased-s0c": report.lengths[~active].copy()})


def _highdim_job(args):
    return run_highdim_replication(*args)


def run_highdim_scenario(scn: HighDimScenario, workers: int = 1):
    from .inference import z_quantile
    t0 = time.monotonic()
    x_star = _highdim_truth(scn)
    spec = _highdim_design_spec(scn)
    node_r1, node_s = _nodewise_truth(spec)
    children = np.random.SeedSequence(scn.seed).spawn(scn.n_sim)
    jobs = [(scn, x_star, node_r1, node_s, i, children[i])
            for i in range(scn.n_sim)]
    results = _map_jobs(_highdim_job, jobs, workers)
    wall = time.monotonic() - t0
    results = sorted(results, key=lambda r: r.index)
    ok = [r for r in results if r.ok]
    if not ok:
        raise RuntimeError(f"scenario {scn.scenario_id}: no successful replications")
    sigma_inv = np.linalg.inv(models.make_covariance(spec))
    z = z_quantile(1.0 - scn.q / 2.0)
    oracle_len = float(np.mean(2.0 * z * scn.sigma * np.sqrt(np.diag(sigma_inv) / scn.n)))
    rows = []
    for label in ("debiased-s0", "debiased-s0c"):
        hits = np.concatenate([r.hits[label] for r in ok])
        lens = np.concatenate([r.lengths[label] for r in ok])
        rows.append(AggregateRow(
            scenario=scn.scenario_id, estimator=label,
            cov_rate=100.0 * float(hits.mean()), avg_len=float(lens.mean()),
            oracle_len=oracle_len, n_sim=len(ok), wall_time=wall,
            intervals=hits.size))
    return rows, []


# --- output ------------------------------------------------------------------

def write_results(rows: list, failures: dict, out_dir, config_echo: dict,
                  workers_used: int = 1) -> None:
    """results.csv (deterministic bytes) and results.json (full provenance).

    The coverage SE is binomial over the row's intervals: n_sim·d for a
    low-dimensional row, n_sim·|S0| or n_sim·|S0ᶜ| for a high-dimensional one.
    """
    os.makedirs(out_dir, exist_ok=True)
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
            "cov_rate_se_pp": 100.0 * float(
                np.sqrt(max(r.cov_rate / 100 * (1 - r.cov_rate / 100), 0.0)
                        / max(r.intervals, 1))),
        } for r in rows],
        "failures": failures,
        "workers_used": workers_used,
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(doc, fh, indent=2)


def simulate(config_path, out_dir, workers=None, seed=None, fixed_design=None):
    """Run every low-dimensional scenario in a config file."""
    cfg = load_config(config_path)
    if not cfg["scenarios"]:
        raise ConfigError(f"{config_path}: no 'scenarios' section")
    workers = workers if workers is not None else cfg["workers"]
    all_rows, failures = [], {}
    for scn in cfg["scenarios"]:
        if seed is not None:
            scn.seed = int(seed)
        if fixed_design is not None:
            scn.fixed_design = bool(fixed_design)
        rows, fails = run_scenario(scn, workers=workers)
        all_rows.extend(rows)
        if fails:
            failures[scn.scenario_id] = fails
    write_results(all_rows, failures, out_dir,
                  {"path": str(config_path), "workers": workers,
                   "seed_override": seed, "fixed_design": fixed_design},
                  workers_used=effective_workers(workers))
    return all_rows


def simulate_highdim(config_path, out_dir, workers=None, seed=None):
    """Run every high-dimensional scenario in a config file."""
    cfg = load_config(config_path)
    if not cfg["highdim"]:
        raise ConfigError(f"{config_path}: no 'highdim' section")
    workers = workers if workers is not None else cfg["workers"]
    all_rows = []
    for scn in cfg["highdim"]:
        if seed is not None:
            scn.seed = int(seed)
        rows, _ = run_highdim_scenario(scn, workers=workers)
        all_rows.extend(rows)
    write_results(all_rows, {}, out_dir,
                  {"path": str(config_path), "workers": workers,
                   "seed_override": seed},
                  workers_used=effective_workers(workers))
    return all_rows
