"""Acceptance gate: one test per release criterion.

Every test prints a single `criterion NN: PASS/FAIL - detail` line (echoed
again in the terminal summary) and then asserts the criterion, so a failed
bound is both visible and red.  The Monte Carlo criteria run at full scale
(100 runs, 500 iterations); the whole module takes a few minutes.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from reference import (
    aligned_factors,
    economy_svd,
    reference_plain_loop,
    run_contraction,
    spectrum_degenerate,
    svd_factor_derivatives,
    z_derivative,
)
from rcadmm.admm import admm_step, initial_state, residuals, update_w
from rcadmm.cli import main
from rcadmm.driver import DriverConfig, solve
from rcadmm.hankel import truncated_svd_projection
from rcadmm.penalty import (
    ConstantPenalty,
    MultiplicativePenalty,
    ResidualBasedPenalty,
    SelfAdaptivePenalty,
    increment_diagnostics,
    lagrangian_increment,
    update_penalty,
)
from rcadmm.problem import RegressionData, assemble_problem
from rcadmm.serialize import write_json
from rcadmm.simulate import ExperimentCell, default_scenario, monte_carlo, simulate_relay
from rcadmm.svd_calc import e_derivative

RUNS = 100
K_MAX = 500
# Small enough that no run ever terminates on tolerance: every trace uses
# the full iteration budget, making per-iteration averages comparable.
EPS_OFF = 1e-300

CRITERION_LINES = []


def verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


def fmt(values):
    return ", ".join(f"{float(v):.2e}" for v in values)


# ---------------------------------------------------------------------------
# shared problem instances and Monte Carlo studies


@pytest.fixture(scope="session")
def bench_problems():
    out = []
    for seed in (0, 1):
        sim = simulate_relay(default_scenario(seed=seed))
        problem = assemble_problem(sim.data, l=60, n=20, r=8)
        out.append((problem, initial_state(problem)))
    return out


def mc_study(cells, keep_traces=False):
    return monte_carlo(
        default_scenario(), cells, RUNS, base_seed=0, keep_traces=keep_traces
    )


@pytest.fixture(scope="session")
def constant_study():
    cells = [
        ExperimentCell(
            f"const-beta{int(b)}",
            DriverConfig(
                beta0=b,
                strategy=ConstantPenalty(),
                eps_tol=EPS_OFF,
                k_max=K_MAX,
                acceleration=False,
            ),
        )
        for b in (1.0, 10.0, 100.0, 1000.0)
    ]
    return mc_study(cells)


@pytest.fixture(scope="session")
def residual_study():
    cells = [
        ExperimentCell(
            f"residual-b0-{b}",
            DriverConfig(
                beta0=b,
                strategy=ResidualBasedPenalty(kappa=10.0, rho_inc=1.02, rho_dec=1.02),
                eps_tol=EPS_OFF,
                k_max=K_MAX,
                acceleration=False,
            ),
        )
        for b in (0.1, 1.0, 10.0, 100.0)
    ]
    return mc_study(cells)


@pytest.fixture(scope="session")
def comparison_study():
    """Self-adaptive vs multiplicative, each with and without acceleration."""

    def config(strategy, accelerated):
        return DriverConfig(
            beta0=1.0,
            strategy=strategy,
            eps_tol=EPS_OFF,
            k_max=K_MAX,
            acceleration=accelerated,
        )

    cells = [
        ExperimentCell("sa-aa", config(SelfAdaptivePenalty(), True)),
        ExperimentCell("sa", config(SelfAdaptivePenalty(), False)),
        ExperimentCell("mult-aa", config(MultiplicativePenalty(), True)),
        ExperimentCell("mult", config(MultiplicativePenalty(), False)),
    ]
    return mc_study(cells, keep_traces=True)


@pytest.fixture(scope="session")
def start_grid_study():
    cells = [
        ExperimentCell(
            f"sa-aa-b0-{b}",
            DriverConfig(
                beta0=b,
                strategy=SelfAdaptivePenalty(),
                eps_tol=EPS_OFF,
                k_max=K_MAX,
                acceleration=True,
            ),
        )
        for b in (0.1, 1.0, 10.0, 100.0)
    ]
    return mc_study(cells, keep_traces=True)


def last_accepted(records):
    return next(rec for rec in reversed(records) if rec.accepted)


# ---------------------------------------------------------------------------
# criterion 1: increment slope vs central finite differences


def increment_slope_fd(problem, w, theta, mu, beta, delta):
    """Replay the w sweep at beta +/- delta through the eliminated increment."""
    lam_mat, lam_vec = problem.split_mu(mu)
    values = []
    for b in (beta + delta, beta - delta):
        z_b, e_b, _ = update_w(problem, theta, lam_mat, lam_vec, b)
        values.append(
            lagrangian_increment(problem, w, theta, mu, problem.stack_w(z_b, e_b), b)
        )
    return (values[0] - values[1]) / (2.0 * delta)


def test_criterion_01_increment_slope(bench_problems):
    start = time.perf_counter()
    strategy = SelfAdaptivePenalty()
    samples = []
    for problem, init in bench_problems:
        theta, mu, w = init.theta, init.mu, init.w
        beta = 1.0
        for k in range(60):
            step = admm_step(problem, theta, mu, beta)
            diag = increment_diagnostics(problem, w, theta, mu, step)
            samples.append((problem, w, theta, mu, beta, diag))
            report = residuals(problem, theta, step)
            theta, mu, w = step.theta, step.mu, step.w
            beta = update_penalty(strategy, beta, report, diag)

    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    for idx in rng.permutation(len(samples)):
        problem, w, theta, mu, beta, diag = samples[idx]
        if diag.slope is None:
            continue
        fd = increment_slope_fd(problem, w, theta, mu, beta, delta=1e-5 * beta)
        worst = max(worst, abs(diag.slope - fd) / max(abs(fd), 1e-12))
        checked += 1
        if checked == 60:
            break
    elapsed = time.perf_counter() - start

    ok = checked >= 50 and worst <= 1e-4 and elapsed < 30.0
    assert verdict(
        1, ok, f"max rel err {worst:.2e} on {checked} iterates in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 2: SVD calculus vs finite differences at benchmark dims


def random_instance(seed):
    rng = np.random.default_rng(seed)
    problem = assemble_problem(
        RegressionData(rng.normal(size=90), rng.normal(size=90)), l=60, n=20, r=8
    )
    theta = rng.normal(size=60)
    lam_mat = rng.normal(size=(problem.dims.rows, problem.dims.n))
    lam_vec = rng.normal(size=90)
    beta = float(10.0 ** rng.uniform(-0.5, 0.5))
    return problem, theta, lam_mat, lam_vec, beta


def rel_err(analytic, fd):
    scale = np.linalg.norm(fd)
    return float(np.linalg.norm(analytic - fd)) / max(scale, 1e-8)


def test_criterion_02_svd_calculus():
    worst = {"ds": 0.0, "du": 0.0, "dv": 0.0, "dz": 0.0, "de": 0.0}
    worst_skew = 0.0
    checked = 0
    seed = 200
    while checked < 50:
        problem, theta, lam_mat, lam_vec, beta = random_instance(seed)
        seed += 1
        omega = -problem.hankel(theta) + lam_mat / beta
        svd = economy_svd(omega)
        if spectrum_degenerate(svd.s):
            continue
        checked += 1

        d_omega = -lam_mat / beta**2
        du, ds, dv = svd_factor_derivatives(svd, d_omega)
        dz = z_derivative(svd, du, ds, dv, problem.r)
        _, e_new, _ = update_w(problem, theta, lam_mat, lam_vec, beta)
        de = e_derivative(problem, theta, e_new, beta)

        delta = 1e-6 * beta
        hi = economy_svd(-problem.hankel(theta) + lam_mat / (beta + delta))
        lo = economy_svd(-problem.hankel(theta) + lam_mat / (beta - delta))
        u_hi, v_hi = aligned_factors(svd, hi)
        u_lo, v_lo = aligned_factors(svd, lo)
        worst["ds"] = max(worst["ds"], rel_err(ds, (hi.s - lo.s) / (2 * delta)))
        worst["du"] = max(worst["du"], rel_err(du, (u_hi - u_lo) / (2 * delta)))
        worst["dv"] = max(worst["dv"], rel_err(dv, (v_hi - v_lo) / (2 * delta)))

        delta = 1e-5 * beta
        z_hi, e_hi, _ = update_w(problem, theta, lam_mat, lam_vec, beta + delta)
        z_lo, e_lo, _ = update_w(problem, theta, lam_mat, lam_vec, beta - delta)
        worst["dz"] = max(worst["dz"], rel_err(dz, (z_hi - z_lo) / (2 * delta)))
        worst["de"] = max(worst["de"], rel_err(de, (e_hi - e_lo) / (2 * delta)))

        skew = svd.U.T @ du
        worst_skew = max(worst_skew, float(np.max(np.abs(skew + skew.T))))

    ok = max(worst.values()) <= 1e-4 and worst_skew <= 1e-8
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    assert verdict(
        2, ok, f"max rel err {detail}; U'dU skew defect {worst_skew:.2e} (50 instances)"
    )


# ---------------------------------------------------------------------------
# criterion 3: dual orthogonality and the theta identity along driver runs


def test_criterion_03_dual_orthogonality(bench_problems, loop_spy):
    problem, init = bench_problems[0]
    strategies = [
        ConstantPenalty(),
        MultiplicativePenalty(),
        ResidualBasedPenalty(),
        SelfAdaptivePenalty(),
    ]
    worst_mu = 0.0
    worst_theta = 0.0
    executions = 0
    for strategy in strategies:
        config = DriverConfig(
            beta0=1.0,
            strategy=strategy,
            eps_tol=EPS_OFF,
            k_max=200,
            acceleration=True,
        )
        loop_spy.clear()
        result = solve(problem, config, init=init)
        assert result.termination == "max_iterations"
        for sweep in loop_spy:
            executions += 1
            # The sweep's output, the mu carried into it, and an
            # extrapolated mu the loop carries on (the last sweep's
            # included).
            mus = [sweep.step.mu, sweep.mu]
            if sweep.extrapolated is not None:
                mus.append(sweep.extrapolated[0][problem.l :])
            for mu in mus:
                defect = np.max(np.abs(problem.q.T @ mu))
                scaled = defect / (1.0 + np.max(np.abs(mu)))
                worst_mu = max(worst_mu, float(scaled))
            step = sweep.step
            ref = -problem.qfac.solve_normal(step.w + problem.y_tilde)
            defect = np.max(np.abs(step.theta - ref))
            scaled = defect / (1.0 + np.max(np.abs(step.theta)))
            worst_theta = max(worst_theta, float(scaled))

    ok = worst_mu <= 1e-8 and worst_theta <= 1e-8
    assert verdict(
        3,
        ok,
        f"dual defect {worst_mu:.2e}, theta defect {worst_theta:.2e} "
        f"over {executions} executions x 4 strategies",
    )


# ---------------------------------------------------------------------------
# criterion 4: subproblem optimality at every 10th iteration


def e_objective(e, problem, theta, lam_vec, beta):
    c = e + problem.phi @ theta - problem.data.y
    if e.ndim == 1:
        return float(e @ e - lam_vec @ c + 0.5 * beta * (c @ c))
    return np.sum(e * e, axis=1) - c @ lam_vec + 0.5 * beta * np.sum(c * c, axis=1)


def test_criterion_04_subproblem_optimality(bench_problems, loop_spy):
    problem, init = bench_problems[0]
    config = DriverConfig(
        beta0=1.0,
        strategy=SelfAdaptivePenalty(),
        eps_tol=EPS_OFF,
        k_max=K_MAX,
        acceleration=True,
    )
    result = solve(problem, config, init=init)
    sweeps = loop_spy.per_row(result.records)
    accepted = [s for s, rec in zip(sweeps, result.records) if rec.accepted]
    # Every tenth accepted sweep, the first included.
    checkpoints = accepted[::10]
    assert len(checkpoints) >= 50

    rng = np.random.default_rng(4)
    z_margin = np.inf
    e_margin = np.inf
    for sweep in checkpoints:
        lam_mat, lam_vec = problem.split_mu(sweep.mu)
        beta = sweep.beta
        omega = -problem.hankel(sweep.theta) + lam_mat / beta
        z_star, _ = truncated_svd_projection(omega, problem.r)
        e_star = (
            beta * (problem.data.y - problem.phi @ sweep.theta) + lam_vec
        ) / (beta + 2.0)
        replayed = problem.stack_w(z_star, e_star)
        assert np.linalg.norm(replayed - sweep.step.w) <= 1e-10 * (
            1.0 + np.linalg.norm(sweep.step.w)
        )

        # Rank-r competitors: random factorizations at the minimizer's own
        # scale plus truncations of nearby perturbed targets.
        dist_star = np.linalg.norm(z_star - omega)
        scale = np.linalg.norm(z_star)
        for _ in range(500):
            cand = rng.normal(size=(omega.shape[0], problem.r)) @ rng.normal(
                size=(problem.r, omega.shape[1])
            )
            cand *= scale / np.linalg.norm(cand)
            z_margin = min(z_margin, float(np.linalg.norm(cand - omega) - dist_star))
        noise_scale = 1e-3 * np.linalg.norm(omega)
        for _ in range(500):
            noise = rng.normal(size=omega.shape)
            cand, _ = truncated_svd_projection(
                omega + noise_scale * noise / np.linalg.norm(noise), problem.r
            )
            z_margin = min(z_margin, float(np.linalg.norm(cand - omega) - dist_star))

        directions = rng.normal(size=(1000, e_star.size))
        directions *= 1e-3 / np.linalg.norm(directions, axis=1, keepdims=True)
        perturbed = e_objective(
            e_star[None, :] + directions, problem, sweep.theta, lam_vec, beta
        )
        f_star = e_objective(e_star, problem, sweep.theta, lam_vec, beta)
        e_margin = min(e_margin, float(np.min(perturbed) - f_star))

    ok = z_margin >= -1e-12 and e_margin > 0.0
    assert verdict(
        4,
        ok,
        f"min Z margin {z_margin:.2e}, min e margin {e_margin:.2e} "
        f"over {len(checkpoints)} checkpoints x 1000 candidates each",
    )


# ---------------------------------------------------------------------------
# criteria 5-8: Monte Carlo orderings


def test_criterion_05_constant_beta_tradeoff(constant_study):
    names = [f"const-beta{int(b)}" for b in (1, 10, 100, 1000)]
    primal = [float(constant_study.cells[name].primal_sq[-1]) for name in names]
    dual = [float(constant_study.cells[name].dual_sq[-1]) for name in names]
    decreasing = all(a > b for a, b in zip(primal, primal[1:]))
    increasing = all(a < b for a, b in zip(dual, dual[1:]))
    assert verdict(
        5,
        decreasing and increasing,
        f"final mean primal [{fmt(primal)}] decreasing={decreasing}; "
        f"dual [{fmt(dual)}] increasing={increasing}",
    )


def test_criterion_06_residual_rule_stalls(residual_study):
    finals = {
        name: float(avg.combined[-1]) for name, avg in residual_study.cells.items()
    }
    ok = all(v >= 1e-4 for v in finals.values())
    assert verdict(
        6,
        ok,
        f"mean final combined [{fmt(finals.values())}], "
        f"all >= 1e-4 (>= 6 orders above tolerance 1e-10): {ok}",
    )


def test_criterion_07_adaptive_beats_multiplicative(comparison_study):
    at = 499  # iteration 500
    cells = comparison_study.cells
    for avg in cells.values():
        assert avg.counts[at] == RUNS

    checks = [
        ("primal sa-aa<mult-aa", cells["sa-aa"].primal_sq[at], cells["mult-aa"].primal_sq[at]),
        ("primal sa<mult", cells["sa"].primal_sq[at], cells["mult"].primal_sq[at]),
        ("dual sa-aa<mult-aa", cells["sa-aa"].dual_sq[at], cells["mult-aa"].dual_sq[at]),
        ("dual sa<mult", cells["sa"].dual_sq[at], cells["mult"].dual_sq[at]),
        ("combined sa-aa<sa", cells["sa-aa"].combined[at], cells["sa"].combined[at]),
        ("combined mult-aa<mult", cells["mult-aa"].combined[at], cells["mult"].combined[at]),
    ]
    failed = [name for name, lhs, rhs in checks if not lhs < rhs]
    detail = f"{len(checks) - len(failed)}/6 mean orderings hold at iteration 500"
    if failed:
        detail += "; violated: " + ", ".join(failed)
    assert verdict(7, not failed, detail)


def test_criterion_08_start_insensitivity(start_grid_study):
    names = [f"sa-aa-b0-{b}" for b in (0.1, 1.0, 10.0, 100.0)]
    spreads = []
    for run in range(RUNS):
        betas = [
            last_accepted(start_grid_study.traces[(name, run)]).beta for name in names
        ]
        spreads.append(max(betas) / min(betas))
    within = sum(1 for s in spreads if s <= 10.0)
    ok = within >= 80
    assert verdict(
        8,
        ok,
        f"{within}/{RUNS} runs with final beta spread <= 10 (need 80); "
        f"median spread {np.median(spreads):.1f}, max {max(spreads):.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: acceleration mechanics


def guard_audit(records):
    """Replay the driver's residual guard over one accelerated trace.

    The guard tests every step against the last accepted combined
    residual, except the plain step from the recorded point right after
    a rejection, which is accepted without a test (Zhang, Peng & Deng,
    TOG 2019).  The plain map itself is not monotone here, so those
    forced acceptances are counted, not bounded.  Returns whether the
    trace obeys the guard, the number of forced acceptances, and how
    many of them rose above the last accepted residual.
    """
    consistent = True
    forced = rose = 0
    prev = np.inf
    after_reject = False
    for rec in records:
        if rec.accepted:
            if after_reject:
                forced += 1
                rose += not rec.combined < prev
            elif not rec.combined < prev:
                consistent = False
            prev = rec.combined
        elif after_reject or rec.combined < prev:
            consistent = False
        after_reject = not rec.accepted
    return consistent and not after_reject, forced, rose


def test_criterion_09_acceleration_mechanics(bench_problems, comparison_study):
    accelerated, _ = run_contraction(True)
    plain, _ = run_contraction(False)
    ok_fixture = accelerated <= 3 and plain >= 20

    problem, _ = bench_problems[0]
    config = DriverConfig(
        beta0=1.0,
        strategy=SelfAdaptivePenalty(),
        eps_tol=EPS_OFF,
        k_max=40,
        acceleration=False,
    )
    result = solve(problem, config)
    ref_theta, ref_rows = reference_plain_loop(problem, config)
    rows = [
        (r.iteration, r.beta, r.primal_sq, r.dual_sq, r.combined, r.objective)
        for r in result.records
    ]
    ok_bitwise = np.array_equal(result.theta, ref_theta) and rows == ref_rows

    guard = {}
    for name in ("sa-aa", "mult-aa"):
        audits = [
            guard_audit(comparison_study.traces[(name, run)]) for run in range(RUNS)
        ]
        guard[name] = [sum(column) for column in zip(*audits)]
    ok_guard = all(consistent == RUNS for consistent, _, _ in guard.values())

    ok = ok_fixture and ok_bitwise and ok_guard
    detail = "; ".join(
        f"{name} {consistent}/{RUNS} ({forced} forced, {rose} rose)"
        for name, (consistent, forced, rose) in guard.items()
    )
    assert verdict(
        9,
        ok,
        f"contraction {accelerated} vs {plain} evaluations; plain driver "
        f"{'bitwise-identical' if ok_bitwise else 'MISMATCH'}; "
        f"guard-consistent runs {detail}",
    )


# ---------------------------------------------------------------------------
# criterion 10: bench reruns are byte-identical


def test_criterion_10_bench_determinism(tmp_path):
    spec = {
        "scenario": {"seed": 0},
        "problem": {"l": 60, "n": 20, "rank": 8},
        "runs": 2,
        "base_seed": 0,
        "cells": [
            {
                "name": "const-beta1",
                "solver": {
                    "strategy": "constant",
                    "eps_tol": EPS_OFF,
                    "k_max": 60,
                    "acceleration": False,
                },
            },
            {
                "name": "self-adaptive",
                "solver": {
                    "strategy": "self-adaptive",
                    "eps_tol": EPS_OFF,
                    "k_max": 60,
                },
            },
        ],
    }
    spec_path = tmp_path / "bench.json"
    write_json(spec_path, spec)

    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        rc = main(["bench", "--spec", str(spec_path), "--jobs", "1", "--out", str(out)])
        assert rc == 0

    files = sorted(os.listdir(outs[0]))
    assert files == sorted(os.listdir(outs[1]))
    identical = [
        name
        for name in files
        if filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
    ]
    ok = identical == files
    assert verdict(
        10, ok, f"{len(identical)}/{len(files)} bench output files byte-identical"
    )
