"""Show that the benchmark's correctness checks bite.

    python3 perfbench/selftest.py

Each case runs a check on a correct output of `rcadmm`, which must pass,
and on a deliberately wrong copy of it, which must fail.  Exits 0 only
when every case behaves so.
"""
import copy
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from rcadmm import (  # noqa: E402
    ConstantPenalty,
    DriverConfig,
    ExperimentCell,
    MultiplicativePenalty,
    SelfAdaptivePenalty,
    assemble_problem,
    default_scenario,
    monte_carlo,
    simulate_relay,
    solve,
    true_impulse_response,
)
from rcadmm.serialize import write_averages_csv  # noqa: E402

K_MAX = 60


def config(strategy, accelerated, **kw):
    return DriverConfig(beta0=1.0, strategy=strategy, eps_tol=1e-300, k_max=K_MAX,
                        acceleration=accelerated, **kw)


def with_row(records, index, **changes):
    out = list(records)
    out[index] = replace(out[index], **changes)
    return out


def first_index(records, predicate):
    return next(i for i in range(1, len(records)) if predicate(records[i - 1], records[i]))


def main():
    failures = []

    def case(name, check, good, bad):
        passed, caught = not check(good), bool(check(bad))
        print(f"{'ok ' if passed and caught else 'BAD'} {name}: "
              f"correct input {'passes' if passed else 'FAILS'}, wrong input "
              f"{'is caught' if caught else 'is NOT caught'}")
        if not (passed and caught):
            failures.append(name)

    scn = default_scenario(0)
    plant = scn.plant
    truth = checks.independent_truth(plant, scn.dt, 60)
    package = true_impulse_response(plant, scn.dt, 60)
    case("truth matches the package oracle", lambda t: checks.check_truth(t, package, 20, 8),
         truth, np.roll(truth, 1))
    case("truth Hankel has rank r", lambda t: checks.check_truth(t, t, 20, 8),
         truth, truth + 1e-3 * np.random.default_rng(0).standard_normal(60))

    problem = assemble_problem(simulate_relay(scn).data, l=60, n=20, r=8)
    sa_aa = solve(problem, config(SelfAdaptivePenalty(), True))
    mult = solve(problem, config(MultiplicativePenalty(), False))
    const = solve(problem, config(ConstantPenalty(), False))
    last = [rec for rec in sa_aa.records if rec.accepted][-1]

    def estimate(theta):
        return checks.check_estimate(theta, last.primal_sq, 20, 8, truth, 1.0)

    off_rank = sa_aa.theta + 0.05 * np.random.default_rng(1).standard_normal(60)
    case("theta pushed off rank r", estimate, sa_aa.theta, off_rank)
    case("estimate far from the truth", estimate, sa_aa.theta, sa_aa.theta + 2.0 * truth)

    recs = mult.records
    shifted = [replace(r, beta=n.beta) for r, n in zip(recs, recs[1:] + [recs[-1]])]
    case("multiplicative schedule shifted by one step",
         lambda rs: checks.check_trace(rs, 1.0, "mult", False), recs, shifted)
    drift = 1.0 + 1e-6
    row = const.records[30]
    case("constant beta drifts",
         lambda rs: checks.check_trace(rs, 1.0, "const", False), const.records,
         with_row(const.records, 30, beta=drift,
                  combined=drift * row.primal_sq + row.dual_sq / drift))
    rec = recs[10]
    case("combined != beta*primal + dual/beta",
         lambda rs: checks.check_trace(rs, 1.0, "mult", False), recs,
         with_row(recs, 10, combined=rec.combined * (1 + 1e-9)))
    case("a plain solve with a rejected row",
         lambda rs: checks.check_trace(rs, 1.0, "mult", False), recs,
         with_row(recs, 10, accepted=False))

    aa = sa_aa.records
    guard = checks.check_guard
    i = first_index(aa, lambda p, c: p.accepted and c.accepted)
    prev = max(r.combined for r in aa[:i] if r.accepted)
    case("accepted row above the last accepted residual", guard, aa,
         with_row(aa, i, combined=prev * 1.5))
    j = first_index(aa, lambda p, c: p.accepted and not c.accepted)
    case("rejected row below the last accepted residual", guard, aa,
         with_row(aa, j, combined=aa[j - 1].combined * 0.5))
    case("two rejections in a row", guard, aa, with_row(aa, j + 1, accepted=False))

    tol = 1e-6
    converged = solve(problem, replace(config(SelfAdaptivePenalty(), True), eps_tol=tol, k_max=2000))
    case("to-tol solve that did not converge",
         lambda r: checks.check_converged(r, tol), converged,
         replace(converged, termination="max_iterations"))
    case("to-tol last residual above the tolerance",
         lambda r: checks.check_converged(r, tol), converged,
         replace(converged, records=with_row(converged.records, -1, combined=2 * tol)))

    cells = [ExperimentCell("mult", config(MultiplicativePenalty(), False)),
             ExperimentCell("const", config(ConstantPenalty(), False))]
    mc = monte_carlo(default_scenario(), cells, 2, jobs=1, keep_traces=True)
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.csv")
        write_averages_csv(good, mc.cells["mult"])
        with open(good) as fh:
            lines = fh.read().splitlines(keepends=True)

        def variant(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        rows = [line.split(",") for line in lines[1:]]
        beta_shift = [f"{a[0]},{a[1]},{a[2]},{b[3]}" for a, b in zip(rows, rows[1:] + rows[-1:])]
        check_csv = lambda p: checks.check_averages_csv(p, K_MAX, 1.0, "mult")  # noqa: E731
        case("averages CSV with a wrong header", check_csv, good,
             variant("header.csv", "iter,mean_primal,mean_dual,mean_beta\n" + "".join(lines[1:])))
        case("averages CSV missing an iteration", check_csv, good,
             variant("short.csv", "".join(lines[:-1])))
        case("averages mean_beta shifted by one step", check_csv, good,
             variant("shift.csv", lines[0] + "".join(beta_shift)))

    summary = {"mult": {"runs": 2, "failures": 0, "mean_theta_error": 0.3},
               "const": {"runs": 2, "failures": 0, "mean_theta_error": 0.4}}
    check_summary = lambda s: checks.check_summary(s, ["mult", "const"], 2, 1.0)  # noqa: E731
    wrong = copy.deepcopy(summary)
    wrong["const"]["runs"] = 1
    case("summary with a missing run", check_summary, summary, wrong)
    wrong = copy.deepcopy(summary)
    wrong["mult"]["mean_theta_error"] = 1.2
    case("summary with a large error", check_summary, summary, wrong)

    bad_cells = copy.deepcopy(mc.cells)
    bad_cells["mult"].sums[1, 7] *= 1.001
    case("pool averages that differ from the traces",
         lambda c: checks.check_pool_averages(c, mc.traces, 2), mc.cells, bad_cells)

    print(f"checks that did not bite: {failures}" if failures else "every check bites")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
