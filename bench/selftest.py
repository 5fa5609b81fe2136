"""Self-test of the benchmark's checks: each passes on honest program output
and fails on a deliberately wrong copy of it.

    python3 bench/selftest.py        (from the repository root, about 70 s)

The faults are applied to the outputs the checks receive, never to the
program: a covariance scaled by 1.5, an average shifted by 10 standard
errors, a debiased vector missing its correction step, and a covariance
scaled by 4 for the batch-means floor check, which 1.5 stays within.
Exits non-zero if an honest output fails or a faulty one passes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks
import run

SCALE = 1.5


def main() -> int:
    sgdinf = run.import_program()
    verdicts = []

    def expect(name, problems, fail, must_mention=""):
        failed = any(must_mention in p for p in problems)
        ok = failed if fail else not problems
        verdicts.append(ok)
        state = "fails" if problems else "passes"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {state}")
        for p in problems:
            print(f"       {p}")

    # table1-linear: twenty simulate calls, 200 intervals per estimator;
    # fewer leave the M = 10 batch-means band too wide for a 1.22x length.
    t1 = run.Table1(sgdinf, seed=101, trace=False)
    try:
        for i in range(20):
            seed = t1.make_input(i)
            expect(f"table1 call {i}", t1.record(seed, t1.op(seed))[3], fail=False)
        honest = {k: list(v) for k, v in t1.pooled.items()}
        expect("table1 pooled", t1.finish(), fail=False)
    finally:
        t1.close()
    factor = math.sqrt(SCALE)
    for label in honest:
        if label == "oracle":
            continue
        hits, count, len_sum = honest[label]
        expect(f"table1 {label} covariance x{SCALE}",
               checks.check_table1_pooled({label: (hits, count, len_sum * factor)},
                                          t1.D, t1.N, t1.Q, t1.SIGMA, t1.m_for),
               fail=True, must_mention="length")
    oracle_len = 2.0 * checks.z_two_sided(t1.Q) * t1.SIGMA / math.sqrt(t1.N) * factor
    expect(f"table1 oracle covariance x{SCALE}",
           checks.check_table1_call({"oracle": (95.0, oracle_len, oracle_len, t1.N_SIM)},
                                    0, t1.N_SIM, t1.N, t1.Q, t1.SIGMA),
           fail=True, must_mention="oracle")

    # stream-logistic-bm: one stream.
    st = run.Stream(sgdinf, seed=101, trace=False)
    x_bar, cov, report = st.op(st.make_input(0))
    err_limit = float(checks.wishart_floor_errors(st.v, st.m, st.FLOOR_DRAWS,
                                                  st.FLOOR_SEED).max())
    zeros = np.zeros(st.D)

    def stream(x, c, centre, half):
        return checks.check_stream(x, zeros, c, centre, half, st.v, st.N, st.Q, err_limit)

    expect("stream honest", stream(x_bar, cov, report.center, report.half_width), fail=False)
    expect(f"stream interval from a covariance x{SCALE}",
           stream(x_bar, cov, report.center, report.half_width * math.sqrt(SCALE)),
           fail=True, must_mention="half-widths")
    # 18 batches resolve the covariance only to within about 2 ||V||, so the
    # floor check is a guard against gross faults.
    expect("stream covariance x4", stream(x_bar, 4.0 * cov, report.center,
                                          2.0 * report.half_width),
           fail=True, must_mention="floor")
    shifted = x_bar.copy()
    shifted[0] += 10.0 * math.sqrt(st.v[0, 0] / st.N)
    expect("stream x_bar shifted by 10 SE", stream(shifted, cov, shifted, report.half_width),
           fail=True, must_mention="chi2")

    # highdim-debias: one fit.
    hd = run.HighDim(sgdinf, seed=101, trace=False)
    design, b = hd.make_input(0)
    fit = hd.op((design, b))
    p = fit.precision

    def highdim(x_d, centre):
        return checks.check_highdim(design, b, fit.x_hat, x_d, p.gamma, p.tau, p.omega,
                                    centre, fit.report.half_width, hd.SIGMA, hd.Q)

    expect("highdim honest", highdim(fit.x_debiased, fit.report.center), fail=False)
    expect("highdim without the correction step", highdim(fit.x_hat, fit.x_hat),
           fail=True, must_mention="x_debiased")

    print(f"{sum(verdicts)}/{len(verdicts)} verdicts as expected")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
