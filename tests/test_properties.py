"""Property tests of the stacked operator and the sweep invariants.

Shapes are drawn at the input edges: tall or square Hankel blocks
(square is l = 2n - 1), rank r = n - 1, and records of 1 to 3 samples,
so Phi alone never has full column rank and Q's rank rests on the
lifting rows.  The dense ``problem.q`` is the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcadmm.admm import admm_step
from rcadmm.errors import IllConditionedError
from rcadmm.problem import RegressionData, assemble_problem

# Derandomized so that every run of the suite draws the same examples.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def problems(draw, min_samples=1, scale=1.0):
    n = draw(st.integers(2, 6))
    l = 2 * n - 1 + draw(st.integers(0, 5))
    n_samples = draw(st.integers(min_samples, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # |u| >= 0.5 keeps every sample's regressor row away from zero.
    u = rng.choice([-1.0, 1.0], size=n_samples) * rng.uniform(0.5, 2.0, size=n_samples)
    data = RegressionData(scale * u, rng.normal(size=n_samples))
    return data, l, n, rng


def assembled(case):
    data, l, n, rng = case
    return assemble_problem(data, l=l, n=n, r=n - 1), rng


@PROPERTY_SETTINGS
@given(problems())
def test_apply_matches_dense_q(case):
    problem, rng = assembled(case)
    theta = rng.normal(size=problem.l)
    np.testing.assert_allclose(problem.qfac.apply(theta), problem.q @ theta, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(problems())
def test_solve_normal_matches_lstsq(case):
    problem, rng = assembled(case)
    v = rng.normal(size=problem.w_size)
    expected = np.linalg.lstsq(problem.q, v, rcond=None)[0]
    np.testing.assert_allclose(problem.qfac.solve_normal(v), expected, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(problems())
def test_projector_output_orthogonal_to_q(case):
    problem, rng = assembled(case)
    v = rng.normal(size=problem.w_size)
    defect = problem.q.T @ problem.qfac.apply_projector(v)
    assert np.abs(defect).max() <= 1e-12 * max(1.0, np.abs(v).max())


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.01, 100.0))
def test_dual_orthogonal_to_q_after_sweep(case, beta):
    problem, rng = assembled(case)
    theta = rng.normal(size=problem.l)
    mu = rng.normal(size=problem.w_size)
    it = admm_step(problem, theta, mu, beta)
    scale = max(1.0, np.abs(mu).max(), beta * np.abs(it.primal).max())
    assert np.abs(problem.q.T @ it.mu).max() <= 1e-11 * scale


@PROPERTY_SETTINGS
@given(problems(min_samples=2, scale=1e12))
def test_huge_input_scale_rejected(case):
    # Phi has rank below l (its first row is zero), so at this scale the
    # unit lifting rows fall under the conditioning threshold.
    data, l, n, _ = case
    with pytest.raises(IllConditionedError):
        assemble_problem(data, l=l, n=n, r=n - 1)
