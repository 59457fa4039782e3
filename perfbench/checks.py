"""Correctness checks for the benchmark's workloads.

Every check returns a list of problem strings; an empty list means the
output passed.  The checks compare against properties the method must
have, or against quantities computed here independently of `rcadmm`
(the FIR truth, the Hankel arrangement, the SVD), never against stored
output.  `selftest.py` feeds each check a deliberately wrong input.
"""
import csv

import numpy as np
from scipy.signal import cont2discrete, lfilter

# Relative tolerance for identities the program evaluates with the same
# floating-point operations, allowing a later change to reorder them.
IDENTITY_RTOL = 1e-12
# Repeated multiplication against the closed-form power, over <= 500 steps.
SCHEDULE_RTOL = 1e-9
MULT_RHO = 1.01
MULT_CAP = 100.0
AVERAGES_HEADER = ["iter", "mean_primal_sq", "mean_dual_sq", "mean_beta"]


def independent_truth(plant, dt, l):
    """FIR coefficients of the zero-order-hold discretisation of ``plant``.

    Uses scipy's ZOH transfer-function discretisation and a filtered unit
    impulse, then shifts by the whole-sample input delay; none of it goes
    through `rcadmm`.
    """
    delay = round(plant.delay / dt)
    if abs(delay * dt - plant.delay) > 1e-12:
        raise ValueError("the delay must be a whole number of samples")
    numd, dend, _ = cont2discrete((list(plant.num), list(plant.den)), dt, method="zoh")
    impulse = np.zeros(l + 1)
    impulse[0] = 1.0
    g = lfilter(np.ravel(numd), dend, impulse)
    theta = np.zeros(l)
    theta[delay:] = g[1 : l - delay + 1]
    return theta


def hankel_singular_values(theta, n):
    """Singular values of the (l+1-n) x n Hankel matrix H[i, j] = theta[i+j]."""
    theta = np.asarray(theta, dtype=float)
    rows = theta.size + 1 - n
    return np.linalg.svd(theta[np.add.outer(np.arange(rows), np.arange(n))], compute_uv=False)


def check_truth(truth, package_truth, n, r):
    """The independent truth matches the package's oracle and has rank r."""
    problems = []
    scale = float(np.max(np.abs(truth)))
    gap = float(np.max(np.abs(truth - np.asarray(package_truth))))
    if not gap <= 1e-12 * scale:
        problems.append(f"truth differs from true_impulse_response by {gap:.3e}")
    s = hankel_singular_values(truth, n)
    if not s[r] <= 1e-12 * s[0]:
        problems.append(f"truth Hankel is not rank {r}: s[{r}]/s[0] = {s[r] / s[0]:.3e}")
    return problems


def check_estimate(theta, primal_sq, n, r, truth, err_bound):
    """sigma_{r+1}(H_n(theta)) <= sqrt(primal_sq), and the error stays bounded.

    Z has rank r and ||Z + H_n(theta)||_F is at most the primal residual,
    so the (r+1)-th singular value of H_n(theta) cannot exceed it.
    """
    problems = []
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return ["estimate is not finite"]
    s = hankel_singular_values(theta, n)
    limit = np.sqrt(primal_sq) * (1.0 + 1e-9) + 1e-13 * s[0]
    if not s[r] <= limit:
        problems.append(
            f"sigma_{r + 1}(H(theta)) = {s[r]:.3e} exceeds sqrt(primal_sq) = {np.sqrt(primal_sq):.3e}"
        )
    err = float(np.linalg.norm(theta - truth) / np.linalg.norm(truth))
    if not err < err_bound:
        problems.append(f"relative error {err:.3f} is not below {err_bound}")
    return problems


def mult_schedule(beta0, count):
    """Expected beta of accepted rows 1..count: min(beta0 rho^(k-1), cap)."""
    return np.minimum(beta0 * MULT_RHO ** np.arange(count), MULT_CAP)


def check_beta_schedule(betas, beta0, rule):
    """Betas of consecutive accepted rows follow the cell's penalty rule."""
    betas = np.asarray(betas, dtype=float)
    if rule == "const":
        expected = np.full(betas.size, beta0)
    elif rule == "mult":
        expected = mult_schedule(beta0, betas.size)
    else:
        return []
    bad = np.flatnonzero(~(np.abs(betas - expected) <= SCHEDULE_RTOL * expected))
    if bad.size:
        k = int(bad[0])
        return [f"{rule} beta at accepted row {k + 1} is {betas[k]!r}, expected {expected[k]!r}"]
    return []


def check_trace(records, beta0, rule, accelerated):
    """Row identities, the residual guard and the beta rule of one solve trace."""
    problems = []
    if not records:
        return ["empty trace"]
    for rec in records:
        if not np.isfinite(rec.combined):
            continue
        expected = rec.beta * rec.primal_sq + rec.dual_sq / rec.beta
        if not abs(rec.combined - expected) <= IDENTITY_RTOL * abs(expected):
            problems.append(
                f"row {rec.iteration}: combined {rec.combined!r} != beta*primal + dual/beta {expected!r}"
            )
            break
    accepted = [rec for rec in records if rec.accepted]
    if [rec.iteration for rec in accepted] != list(range(1, len(accepted) + 1)):
        problems.append("accepted rows are not numbered 1, 2, ...")
    if accelerated:
        problems += check_guard(records)
    elif len(accepted) != len(records):
        problems.append("a plain solve rejected a step")
    problems += check_beta_schedule([rec.beta for rec in accepted], beta0, rule)
    return problems


def check_guard(records):
    """The residual guard of the accelerated scheme.

    An accepted row after an accepted row is strictly below the last
    accepted combined residual; a rejected row is not below it, or is
    non-finite; every rejection is followed by an acceptance, which is
    the plain step from the recorded point and is not tested.
    """
    last = np.inf
    after_reject = False
    for rec in records:
        if rec.accepted:
            if not after_reject and not rec.combined < last:
                return [f"row {rec.iteration}: accepted {rec.combined!r} not below {last!r}"]
            last = rec.combined
        elif after_reject:
            return [f"row {rec.iteration}: two rejections in a row"]
        elif rec.combined < last:
            return [f"row {rec.iteration}: rejected {rec.combined!r} below {last!r}"]
        after_reject = not rec.accepted
    if after_reject:
        return ["the trace ends on a rejection"]
    return []


def check_converged(result, tol):
    """A solve that met the tolerance says so, and its last row shows it."""
    last = next((rec for rec in reversed(result.records) if rec.accepted), None)
    if result.termination != "tolerance":
        return [f"termination {result.termination!r}, expected 'tolerance'"]
    if last is None or not last.combined < tol:
        return [f"last accepted combined residual is not below {tol}"]
    return []


def check_averages_csv(path, k_max, beta0, rule):
    """Fixed header, one row per iteration 1..k_max+1, and the beta rule."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != AVERAGES_HEADER:
        return [f"{path}: header {rows[0] if rows else None}"]
    body = rows[1:]
    if [int(row[0]) for row in body] != list(range(1, k_max + 2)):
        return [f"{path}: expected one row per iteration 1..{k_max + 1}, got {len(body)} rows"]
    return [f"{path}: {p}" for p in check_beta_schedule([float(row[3]) for row in body], beta0, rule)]


def check_summary(summary, cells, runs, err_bound):
    """summary.json lists every cell with the expected runs and a bounded error."""
    problems = []
    if sorted(summary) != sorted(cells):
        return [f"summary cells {sorted(summary)} != {sorted(cells)}"]
    for name in cells:
        entry = summary[name]
        if entry["runs"] != runs:
            problems.append(f"{name}: runs {entry['runs']} != {runs}")
        err = entry["mean_theta_error"]
        if err is None or not err < err_bound:
            problems.append(f"{name}: mean theta error {err} is not below {err_bound}")
    return problems


def check_pool_averages(cell_averages, traces, runs):
    """Cell averages equal the means recomputed from the kept traces."""
    problems = []
    for name, avg in cell_averages.items():
        rows = [[rec for rec in traces[(name, run)] if rec.accepted] for run in range(runs)]
        horizon = avg.sums.shape[1]
        if any(len(r) != horizon for r in rows):
            problems.append(f"{name}: a run does not fill the {horizon}-iteration horizon")
            continue
        for field in ("primal_sq", "dual_sq", "combined", "beta", "objective"):
            mean = np.mean([[getattr(rec, field) for rec in r] for r in rows], axis=0)
            got = getattr(avg, field)
            if not np.all(np.abs(got - mean) <= IDENTITY_RTOL * np.abs(mean)):
                problems.append(f"{name}: mean {field} differs from the traces")
    return problems
