"""sgdinf benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Each
workload draws its inputs from --seed, runs whole operations for S seconds,
checks every output against bench/checks.py, and prints one JSON object as
the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from bench/tracer.py. The exit code is non-zero when a
check fails or the program cannot be imported. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import checks
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
NPROC = len(os.sched_getaffinity(0))


def import_program():
    """Import sgdinf from this checkout's src/ and nowhere else."""
    pkg = os.path.join(SRC, "sgdinf")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"error: no sgdinf package under {SRC}")
    sys.path.insert(0, SRC)
    sgdinf = importlib.import_module("sgdinf")
    if os.path.dirname(os.path.abspath(sgdinf.__file__)) != pkg:
        raise SystemExit(f"error: imported sgdinf from {sgdinf.__file__}, not {pkg}")
    for name in ("cli", "harness", "models", "sgd", "plugin", "batchmeans",
                 "inference", "highdim"):
        importlib.import_module(f"sgdinf.{name}")
    return sgdinf


def derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def toeplitz_factor(d: int, rho: float):
    idx = np.arange(d)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return cov, np.linalg.cholesky(cov)


class Table1:
    """`sgdinf simulate` on the Table-1 scenario: linear regression,
    identity design, d = 5, n = 1e5, plug-in, batch-means at three c and
    the oracle; one operation is one simulate call of N_SIM replications."""

    N, D, N_SIM, Q, SIGMA, ETA = 100_000, 5, 2, 0.05, 1.0, 0.5
    C_VALUES = (0.2, 0.25, 0.3)
    TAG = 1

    def __init__(self, sgdinf, seed: int, trace: bool):
        self.cli = sgdinf.cli
        self.seed = seed
        self.workers = NPROC
        # Worker processes cannot be traced from outside, so the traced run
        # keeps its replications in this process.
        self.extra = ["--workers", "1"] if trace else []
        self.work = os.path.join(OUT, f"table1-linear-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.config = os.path.join(self.work, "config.yaml")
        self.out = os.path.join(self.work, "results")
        self._write_config(self.config, self.N, self.N_SIM)
        self.m_for = {f"bm-{c:g}": max(1, int(math.floor(self.N ** c + 0.5)))
                      for c in self.C_VALUES}
        self.pooled: dict[str, list] = {}

    def _write_config(self, path, n, n_sim):
        with open(path, "w") as fh:
            fh.write(
                f"workers: {self.workers}\n"
                "scenarios:\n"
                "  - id: table1-linear\n"
                f"    n: {n}\n    n_sim: {n_sim}\n    seed: 0\n"
                f"    alpha: 0.5\n    eta: {self.ETA}\n    q: {self.Q}\n"
                f"    model: {{kind: linear, design: identity, d: {self.D}, sigma: {self.SIGMA}}}\n"
                "    estimators:\n      plugin: true\n"
                f"      batch_means: [{', '.join(f'{c:g}' for c in self.C_VALUES)}]\n"
                "      oracle: true\n")

    def warmup(self):
        path = os.path.join(self.work, "warmup.yaml")
        self._write_config(path, 2_000, self.N_SIM)
        self._simulate(path, 1)

    def _simulate(self, config, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["simulate", "--config", config, "--out", self.out,
                                  "--seed", str(seed)] + self.extra)
        return code, buf.getvalue()

    def make_input(self, i):
        return derived_seed(self.seed, self.TAG, i)

    def op(self, seed):
        return self._simulate(self.config, seed)

    def record(self, seed, result):
        """-> (replications attempted, replications lost, samples, problems)."""
        code, stdout = result
        if code != 0:
            return self.N_SIM, self.N_SIM, 0, [f"simulate exited {code}: {stdout!r}"]
        rows = {}
        with open(os.path.join(self.out, "results.csv")) as fh:
            next(fh)
            for line in fh:
                _, label, cov, avg_len, oracle_len, n_sim = line.strip().split(",")
                rows[label] = (float(cov), float(avg_len), float(oracle_len), int(n_sim))
        with open(os.path.join(self.out, "results.json")) as fh:
            failures = json.load(fh)["failures"]
        lost = sum(len(v) for v in failures.values())
        done = self.N_SIM - lost
        problems = checks.check_table1_call(rows, lost, self.N_SIM, self.N, self.Q,
                                            self.SIGMA)
        expected = {"plugin", "oracle", *self.m_for}
        if set(rows) != expected:
            problems.append(f"rows {sorted(rows)} != {sorted(expected)}")
        for label, (cov, avg_len, _, n_sim) in rows.items():
            count = n_sim * self.D
            acc = self.pooled.setdefault(label, [0, 0, 0.0])
            acc[0] += int(round(cov / 100.0 * count))
            acc[1] += count
            acc[2] += avg_len * count
        return self.N_SIM, lost, self.N * done, problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def finish(self):
        self.close()
        for label, (hits, count, len_sum) in sorted(self.pooled.items()):
            print(f"table1-linear pooled {label}: coverage {hits}/{count}, "
                  f"mean length {len_sum / count:.6g}", file=sys.stderr)
        return checks.check_table1_pooled(self.pooled, self.D, self.N, self.Q,
                                          self.SIGMA, self.m_for)


class Stream:
    """One long logistic stream through the library run(): Toeplitz design
    (rho = 0.5), d = 5, x* = 0, eta = 1, a batch-means sink only, then
    confidence_interval; one operation is one stream and its intervals."""

    N, D, RHO, Q, ETA, C = 100_000, 5, 0.5, 0.05, 1.0, 0.25
    FLOOR_DRAWS, FLOOR_SEED = 200_000, 12345
    TAG = 2

    def __init__(self, sgdinf, seed: int, trace: bool):
        self.sgd = sgdinf.sgd
        self.inference = sgdinf.inference
        self.bm = sgdinf.batchmeans
        models = sgdinf.models
        self.model = models.ModelSpec(
            kind="logistic", design=models.DesignSpec("toeplitz", self.D, self.RHO),
            x_star=(0.0,) * self.D)
        self.step = self.sgd.StepSchedule(eta=self.ETA, alpha=0.5)
        self.m = int(math.floor(self.N ** self.C + 0.5))
        self.schedule = self.bm.make_schedule(self.N, self.m, 0.5)
        self.seed = seed
        self.workers = 0
        self.cov, self.factor = toeplitz_factor(self.D, self.RHO)
        # At x* = 0 every sigmoid weight is 1/4, so A = Sigma/4, S = A and
        # the oracle is exactly V = 4 Sigma^-1.
        self.v = 4.0 * np.linalg.inv(self.cov)
        self.results = []

    def warmup(self):
        n = 2_000
        rng = np.random.default_rng(derived_seed(self.seed, self.TAG, 2**31))
        a, b = self._draw(rng, n)
        sink = self.bm.BatchMeansAccumulator(self.bm.make_schedule(n, 6, 0.5), self.D)
        self.sgd.run(self.model, n, self.step, sinks=[sink], data=(a, b))

    def _draw(self, rng, n):
        a = rng.standard_normal((n, self.D)) @ self.factor.T
        b = np.where(rng.random(n) < 0.5, 1.0, -1.0)   # P(b = 1) = sigmoid(0)
        return a, b

    def make_input(self, i):
        return self._draw(np.random.default_rng(derived_seed(self.seed, self.TAG, i)), self.N)

    def op(self, data):
        sink = self.bm.BatchMeansAccumulator(self.schedule, self.D)
        state, (est,) = self.sgd.run(self.model, self.N, self.step, sinks=[sink], data=data)
        report = self.inference.confidence_interval(state.x_bar, est, self.N, self.Q)
        return state.x_bar, est.matrix, report

    def record(self, data, result):
        self.results.append(result)
        return 1, 0, self.N, []

    def close(self):
        pass

    def finish(self):
        # The floor draws run after the timed section, so their memory
        # stays out of peak_rss_mib. The limit is the largest of 200,000
        # draws: about the 1 - 5e-6 quantile.
        err_limit = float(checks.wishart_floor_errors(
            self.v, self.m, self.FLOOR_DRAWS, self.FLOOR_SEED).max())
        problems = []
        for i, (x_bar, cov, report) in enumerate(self.results):
            problems += [f"stream {i}: {p}" for p in checks.check_stream(
                x_bar, np.zeros(self.D), cov, report.center, report.half_width,
                self.v, self.N, self.Q, err_limit)]
        stats = [self.N * x @ np.linalg.solve(self.v, x) for x, _, _ in self.results]
        errs = [np.linalg.norm(c - self.v, 2) for _, c, _ in self.results]
        print(f"stream-logistic-bm: largest n x'V^-1 x {max(stats):.3g} (limit "
              f"{checks.chi2_quantile(1 - checks.ALARM_P, self.D):.3g}), largest "
              f"||S - V||_2 {max(errs):.3g} (limit {err_limit:.3g}, ||V||_2 "
              f"{np.linalg.norm(self.v, 2):.3g})", file=sys.stderr)
        return problems


class HighDim:
    """fit_debiased_lasso on fresh (D, b): Table-3 make-up (n = 100,
    d = 100, s0 = 3, sigma = 1, coef_max = 25) on a Toeplitz design
    (rho = 0.5); one operation is one fit."""

    N, D, S0, SIGMA, Q, COEF_MAX, RHO, R1_SLACK = 100, 100, 3, 1.0, 0.05, 25.0, 0.5, 1.1
    TAG = 3

    def __init__(self, sgdinf, seed: int, trace: bool):
        self.hd = sgdinf.highdim
        self.seed = seed
        self.workers = 0
        self.cov, self.factor = toeplitz_factor(self.D, self.RHO)
        rng = np.random.default_rng(derived_seed(seed, self.TAG))
        self.x_star = np.zeros(self.D)
        self.x_star[:self.S0] = rng.uniform(0.0, self.COEF_MAX, self.S0)
        # Node-wise radii and sparsities from the true precision, as the
        # harness derives them: gamma_j = -Omega_{j,-j} / Omega_jj.
        omega = np.linalg.inv(self.cov)
        gam = -omega / np.diag(omega)[:, None]
        np.fill_diagonal(gam, 0.0)
        self.node_r1 = np.abs(gam).sum(axis=1)
        self.node_s = (np.abs(gam) > 1e-12).sum(axis=1)
        self.main_cfg = self.hd.RadarConfig(
            r1=self.R1_SLACK * float(np.abs(self.x_star).sum()), s_bound=self.S0,
            total_n=self.N)
        self.node_cfg = self.hd.RadarConfig(
            r1=self.R1_SLACK * float(self.node_r1.max()),
            s_bound=int(self.node_s.max()), total_n=self.N)

    def warmup(self):
        self.op(self.make_input(2**31))

    def make_input(self, i):
        rng = np.random.default_rng(derived_seed(self.seed, self.TAG, i))
        design = rng.standard_normal((self.N, self.D)) @ self.factor.T
        return design, design @ self.x_star + self.SIGMA * rng.standard_normal(self.N)

    def op(self, data):
        design, b = data
        try:
            return self.hd.fit_debiased_lasso(
                design, b, self.main_cfg, self.node_cfg, self.SIGMA, self.Q,
                truth=self.x_star, node_r1_rows=self.R1_SLACK * self.node_r1,
                node_s_rows=self.node_s)
        except (self.hd.DegenerateResidualError, self.hd.RadarConfigError) as exc:
            return exc

    def record(self, data, fit):
        if isinstance(fit, Exception):
            return 1, 1, 0, []
        design, b = data
        p = fit.precision
        problems = checks.check_highdim(design, b, fit.x_hat, fit.x_debiased, p.gamma,
                                        p.tau, p.omega, fit.report.center,
                                        fit.report.half_width, self.SIGMA, self.Q)
        return 1, 0, self.N, problems

    def finish(self):
        return []

    def close(self):
        pass


WORKLOADS = {"table1-linear": Table1, "stream-logistic-bm": Stream,
             "highdim-debias": HighDim}

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "samples/s", "op_s_p50": "s",
                    "op_s_p90": "s", "peak_rss_mib": "MiB"}

# Per-layer metric -> (span or counter name, field): 0 calls, 1 seconds, 2 self seconds.
PER_LAYER = {
    "cli.main.s": ("cli.main", 1),
    "harness.load_config.s": ("harness.load_config", 1),
    "harness.make_oracle_bundle.s": ("harness.make_oracle_bundle", 1),
    "harness.aggregate.s": ("harness.aggregate", 1),
    "harness.write_results.s": ("harness.write_results", 1),
    "harness.run_replication.s": ("harness.run_replication", 1),
    "harness.run_replication.calls": ("harness.run_replication", 0),
    "models.sample_dataset.s": ("models.sample_dataset", 1),
    "sgd.run.s": ("sgd.run", 1),
    "sgd.run.self_s": ("sgd.run", 2),
    "sgd.iterations": ("sgd.iterations", 0),
    "plugin.observe.s": ("plugin.observe", 1),
    "plugin.observe.calls": ("plugin.observe", 0),
    "plugin.finalize.s": ("plugin.finalize", 1),
    "batchmeans.observe.s": ("batchmeans.observe", 1),
    "batchmeans.observe.calls": ("batchmeans.observe", 0),
    "batchmeans.finalize.s": ("batchmeans.finalize", 1),
    "inference.confidence_interval.s": ("inference.confidence_interval", 1),
    "inference.confidence_interval.calls": ("inference.confidence_interval", 0),
    "highdim.radar_lasso.s": ("highdim.radar_lasso", 1),
    "highdim.radar_lasso.prox_steps": ("highdim.radar_lasso.prox_steps", 0),
    "highdim.nodewise_fit_all.s": ("highdim.nodewise_fit_all", 1),
    "highdim.tau_hat.s": ("highdim.tau_hat", 1),
    "highdim.build_omega.s": ("highdim.build_omega", 1),
    "highdim.debias.s": ("highdim.debias", 1),
    "highdim.highdim_ci.s": ("highdim.highdim_ci", 1),
}


def layer_values(before: dict, after: dict) -> dict:
    """Per-layer metrics of one operation from two tracer snapshots."""
    out = {}
    for metric, (name, field) in PER_LAYER.items():
        a = after.get(name, (0, 0.0, 0.0))[field]
        b = before.get(name, (0, 0.0, 0.0))[field]
        out[metric] = a - b
    return out


def machine_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):  # numpy without mode="dicts"
        blas = "unknown"
    return (f"cpus {NPROC}, numpy {np.__version__} ({blas}), BLAS threads "
            f"{os.environ['OPENBLAS_NUM_THREADS']}, python {sys.version.split()[0]}")


# Run in a fresh interpreter: numpy's import counts, as it does for a user.
PROBE = """\
from time import perf_counter
t0 = perf_counter()
import sys
sys.path.insert(0, {here!r})
import run
wl = run.WORKLOADS[{workload!r}](run.import_program(), {seed}, False)
print(perf_counter() - t0)
wl.close()
"""


def measure_setup(workload: str, seed: int) -> float:
    """Median time to import the program and build the workload's objects,
    over fresh interpreters."""
    code = PROBE.format(here=HERE, workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(res.stdout.split()[0]))
    return statistics.median(times)


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace = bool(args.trace)
    wl = WORKLOADS[args.workload](import_program(), args.seed, trace)
    print(f"machine: {machine_info()}; pool workers {wl.workers}", file=sys.stderr)
    wl.warmup()

    tracer = Tracer() if trace else None
    op_times, traced_times, untraced_times, layers = [], [], [], []
    attempted = failed = samples = 0
    problems = []
    i = 0
    start = perf_counter()
    # Whole operations until the time is up; a traced run alternates
    # untraced and traced operations and needs at least one of each.
    while perf_counter() - start < args.seconds or (trace and i < 2):
        inp = wl.make_input(i)
        traced = trace and i % 2 == 1
        if traced:
            tracer.install()
            before = tracer.snapshot()
        t0 = perf_counter()
        out = wl.op(inp)
        dt = perf_counter() - t0
        if traced:
            layers.append(layer_values(before, tracer.snapshot()))
            tracer.uninstall()
            traced_times.append(dt)
        else:
            untraced_times.append(dt)
        op_times.append(dt)
        att, fail, smp, probs = wl.record(inp, out)
        attempted += att
        failed += fail
        samples += smp
        problems += [f"op {i}: {p}" for p in probs]
        i += 1
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    problems += wl.finish()

    if trace:
        metrics = {m: {"value": statistics.median(op[m] for op in layers),
                       "unit": "count" if m.endswith((".calls", "iterations", "steps")) else "s"}
                   for m in PER_LAYER}
        untraced, traced_s = statistics.median(untraced_times), statistics.median(traced_times)
        metrics["trace.untraced_op_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_op_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / untraced - 1.0),
                                         "unit": "%"}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        # Peak of this process plus, for a pool, its workers: the largest
        # worker's peak times the pool size.
        rss_kib = usage_self + wl.workers * usage_children
        metrics = {
            "setup_s": measure_setup(args.workload, args.seed),
            "samples_per_s": samples / sum(op_times),
            "op_s_p50": statistics.median(op_times),
            "op_s_p90": quantile(op_times, 0.9),
            "peak_rss_mib": rss_kib / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
