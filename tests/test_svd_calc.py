import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    aligned_factors,
    economy_svd,
    gain_matrix,
    spectrum_degenerate,
    svd_factor_derivatives,
    z_derivative,
)
from rcadmm.admm import update_w
from rcadmm.driver import DriverConfig, solve
from rcadmm.errors import SensitivityUnavailable
from rcadmm.hankel import GAP_RTOL, truncated_svd_projection
from rcadmm.penalty import SelfAdaptivePenalty
from rcadmm.problem import RegressionData, assemble_problem
from rcadmm.svd_calc import e_derivative, w_derivative


def make_instance(seed, l=9, n=4, r=2, beta=1.3, n_samples=20, lam_scale=1.0):
    rng = np.random.default_rng(seed)
    prob = assemble_problem(
        RegressionData(rng.normal(size=n_samples), rng.normal(size=n_samples)), l, n, r
    )
    theta = rng.normal(size=l)
    lam_mat = lam_scale * rng.normal(size=(prob.dims.rows, n))
    lam_vec = rng.normal(size=n_samples)
    return prob, theta, lam_mat, lam_vec, beta, rng


def omega_of(prob, theta, lam_mat, beta):
    return -prob.hankel(theta) + lam_mat / beta


class TestGainMatrix:
    def test_literal(self):
        s = np.array([2.0, 1.0])
        np.testing.assert_allclose(gain_matrix(s), [[0.0, -1.0 / 3.0], [1.0 / 3.0, 0.0]])
        assert not spectrum_degenerate(s)

    def test_antisymmetric(self):
        g = gain_matrix(np.array([3.0, 2.0, 0.5]))
        np.testing.assert_allclose(g, -g.T)

    def test_degenerate_gap_flagged(self):
        assert spectrum_degenerate(np.array([2.0, 1.0, 1.0 - 1e-14]))

    def test_tied_pair_gives_zero(self):
        s = np.array([3.0, 2.0, 2.0, 0.5])
        g = gain_matrix(s)
        assert g[1, 2] == 0.0 and g[2, 1] == 0.0
        assert spectrum_degenerate(s)

    def test_zero_tail_flagged(self):
        assert spectrum_degenerate(np.array([1.0, 1e-12]))
        assert not spectrum_degenerate(np.array([1.0, 0.5]))


class TestFactorDerivatives:
    def test_diagonal_matches_singular_value_slopes(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        lam = rng.normal(size=(3, 3))
        beta = 1.7
        svd = economy_svd(a + lam / beta)
        delta = 1e-6 * beta
        s_hi = np.linalg.svd(a + lam / (beta + delta), compute_uv=False)
        s_lo = np.linalg.svd(a + lam / (beta - delta), compute_uv=False)
        fd = (s_hi - s_lo) / (2 * delta)
        ds = svd_factor_derivatives(svd, -lam / beta**2)[1]
        np.testing.assert_allclose(ds, fd, atol=1e-6)

    def test_zero_domega_gives_zero(self):
        prob, theta, lam_mat, _, beta, _ = make_instance(4)
        svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
        du, ds, dv = svd_factor_derivatives(svd, np.zeros((6, 4)))
        np.testing.assert_array_equal(du, np.zeros((6, 4)))
        np.testing.assert_array_equal(ds, np.zeros(4))
        np.testing.assert_array_equal(dv, np.zeros((4, 4)))

    def test_orthogonality_tangent(self):
        # U'U = I along the branch forces U'dU antisymmetric (same for V).
        prob, theta, lam_mat, _, beta, _ = make_instance(5)
        svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
        du, _, dv = svd_factor_derivatives(svd, -lam_mat / beta**2)
        skew_u = svd.U.T @ du
        skew_v = svd.V.T @ dv
        np.testing.assert_allclose(skew_u, -skew_u.T, atol=1e-8)
        np.testing.assert_allclose(skew_v, -skew_v.T, atol=1e-8)

    def test_finite_difference_factors(self):
        prob, theta, lam_mat, _, beta, _ = make_instance(6, l=11, n=5, r=2)
        omega = omega_of(prob, theta, lam_mat, beta)
        svd = economy_svd(omega)
        du, ds, dv = svd_factor_derivatives(svd, -lam_mat / beta**2)

        delta = 1e-6 * beta
        hi = economy_svd(omega_of(prob, theta, lam_mat, beta + delta))
        lo = economy_svd(omega_of(prob, theta, lam_mat, beta - delta))
        u_hi, v_hi = aligned_factors(svd, hi)
        u_lo, v_lo = aligned_factors(svd, lo)

        np.testing.assert_allclose((hi.s - lo.s) / (2 * delta), ds, atol=1e-5)
        np.testing.assert_allclose((u_hi - u_lo) / (2 * delta), du, atol=1e-4)
        np.testing.assert_allclose((v_hi - v_lo) / (2 * delta), dv, atol=1e-4)

    def test_first_order_reconstruction(self):
        prob, theta, lam_mat, _, beta, _ = make_instance(7)
        omega = omega_of(prob, theta, lam_mat, beta)
        svd = economy_svd(omega)
        du, ds, dv = svd_factor_derivatives(svd, -lam_mat / beta**2)
        delta = 1e-4 * beta
        omega_hi = omega_of(prob, theta, lam_mat, beta + delta)
        recon = ((svd.U + delta * du) * (svd.s + delta * ds)) @ (svd.V + delta * dv).T
        assert np.linalg.norm(omega_hi - recon) <= 1e-6 * np.linalg.norm(omega)

    def test_degenerate_spectrum_raises(self):
        svd = economy_svd(np.diag([2.0, 1.0, 1.0, 0.5]))
        with pytest.raises(SensitivityUnavailable):
            svd_factor_derivatives(svd, np.ones((4, 4)))

    def test_zero_spectrum_raises(self):
        svd = economy_svd(np.diag([1.0, 1e-13, 0.0]))
        with pytest.raises(SensitivityUnavailable):
            svd_factor_derivatives(svd, np.ones((3, 3)))


class TestBlockDerivatives:
    def test_z_zero_dual(self):
        prob, theta, lam_mat, _, beta, _ = make_instance(8)
        svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
        du, ds, dv = svd_factor_derivatives(svd, np.zeros((6, 4)))
        np.testing.assert_array_equal(z_derivative(svd, du, ds, dv, 2), np.zeros((6, 4)))

    def test_full_rank_z_matches_domega(self):
        # With r = n the truncation is the identity, so dZ must equal dOmega.
        prob, theta, lam_mat, _, beta, _ = make_instance(9)
        d_omega = -lam_mat / beta**2
        svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
        du, ds, dv = svd_factor_derivatives(svd, d_omega)
        np.testing.assert_allclose(z_derivative(svd, du, ds, dv, 4), d_omega, atol=1e-10)

    def test_z_finite_difference(self):
        prob, theta, lam_mat, lam_vec, beta, _ = make_instance(10)
        svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
        du, ds, dv = svd_factor_derivatives(svd, -lam_mat / beta**2)
        dz = z_derivative(svd, du, ds, dv, prob.r)
        delta = 1e-5 * beta
        z_hi, _, _ = update_w(prob, theta, lam_mat, lam_vec, beta + delta)
        z_lo, _, _ = update_w(prob, theta, lam_mat, lam_vec, beta - delta)
        fd = (z_hi - z_lo) / (2 * delta)
        assert np.linalg.norm(dz - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_e_derivative_arithmetic(self):
        prob, theta, lam_mat, lam_vec, beta, _ = make_instance(11)
        _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
        expected = (prob.data.y - e_new - prob.phi @ theta) / (beta + 2.0)
        np.testing.assert_allclose(e_derivative(prob, theta, e_new, beta), expected)

    def test_e_derivative_finite_difference(self):
        prob, theta, lam_mat, lam_vec, beta, _ = make_instance(12)
        _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
        de = e_derivative(prob, theta, e_new, beta)
        delta = 1e-7 * beta
        _, e_hi, _ = update_w(prob, theta, lam_mat, lam_vec, beta + delta)
        _, e_lo, _ = update_w(prob, theta, lam_mat, lam_vec, beta - delta)
        np.testing.assert_allclose((e_hi - e_lo) / (2 * delta), de, atol=1e-8)

    def test_e_derivative_zero_at_consistent_point(self):
        # If e+ = y - Phi theta (the beta -> inf limit) the slope vanishes.
        prob, theta, _, _, beta, _ = make_instance(13)
        e_new = prob.data.y - prob.phi @ theta
        np.testing.assert_allclose(
            e_derivative(prob, theta, e_new, beta), np.zeros(20), atol=1e-14
        )

    def test_stacked_derivative_benchmark_dims(self):
        # 50 random instances at the benchmark Hankel shape (41 x 20).
        failures = 0
        for seed in range(50):
            prob, theta, lam_mat, lam_vec, _, rng = make_instance(
                100 + seed, l=60, n=20, r=8, n_samples=40
            )
            beta = float(rng.uniform(0.2, 50.0))
            _, e_new, svd = update_w(prob, theta, lam_mat, lam_vec, beta)
            dw = w_derivative(prob, theta, lam_mat, beta, svd, e_new)
            delta = 1e-5 * max(1.0, beta)
            z_hi, e_hi, _ = update_w(prob, theta, lam_mat, lam_vec, beta + delta)
            z_lo, e_lo, _ = update_w(prob, theta, lam_mat, lam_vec, beta - delta)
            fd = (prob.stack_w(z_hi, e_hi) - prob.stack_w(z_lo, e_lo)) / (2 * delta)
            if np.linalg.norm(dw - fd) > 1e-4 * np.linalg.norm(fd):
                failures += 1
        assert failures == 0

    def test_w_derivative_degenerate_raises(self):
        # sigma_r = sigma_{r+1} at r = 2: the one gap M divides by is zero.
        prob, theta, lam_mat, lam_vec, beta, _ = make_instance(14)
        _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
        degenerate_svd = economy_svd(np.diag([2.0, 1.0, 1.0, 0.5]))
        with pytest.raises(SensitivityUnavailable):
            w_derivative(prob, theta, lam_mat, beta, degenerate_svd, e_new)

    @pytest.mark.parametrize(
        "spectrum, r",
        [([2.0, 1.0, 1.0, 0.5], 3), ([2.0, 1.0, 0.0, 0.0], 2)],
        ids=["kept-block-tie", "zero-tail"],
    )
    def test_w_derivative_defined_off_the_gap(self, spectrum, r):
        # A tie inside the kept block, or a zero tail, leaves the gap at r
        # open, so the slope exists and matches a central difference.
        rng = np.random.default_rng(15)
        prob = assemble_problem(
            RegressionData(rng.normal(size=20), rng.normal(size=20)), 9, 4, r
        )
        theta, lam_vec, beta = rng.normal(size=9), rng.normal(size=20), 1.3
        u = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        # Lam chosen so that Omega(beta) = -H(theta) + Lam / beta has the spectrum.
        lam_mat = beta * ((u * spectrum) @ v.T + prob.hankel(theta))
        # The Gram route resolves a zero tail only to about sqrt(eps) s_1.
        s = np.linalg.svd(omega_of(prob, theta, lam_mat, beta), compute_uv=False)
        np.testing.assert_allclose(s, spectrum, atol=1e-14)
        _, e_new, svd = update_w(prob, theta, lam_mat, lam_vec, beta)
        dw = w_derivative(prob, theta, lam_mat, beta, svd, e_new)
        delta = 1e-5 * beta
        z_hi, e_hi, _ = update_w(prob, theta, lam_mat, lam_vec, beta + delta)
        z_lo, e_lo, _ = update_w(prob, theta, lam_mat, lam_vec, beta - delta)
        fd = (prob.stack_w(z_hi, e_hi) - prob.stack_w(z_lo, e_lo)) / (2 * delta)
        assert np.linalg.norm(dw - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_gap_rule_on_squares(self, side):
        # s_2^2 - s_3^2 planted 1% below or above GAP_RTOL s_1^2, where
        # s_2 - s_3 is 1.5 GAP_RTOL s_1.  Omega is diagonal and scales as
        # 1 / beta, so the Gram route is exact and the truncation stays
        # smooth right up to the threshold.
        rng = np.random.default_rng(17)
        prob = assemble_problem(
            RegressionData(rng.normal(size=20), rng.normal(size=20)), 9, 4, 2
        )
        theta, lam_vec, beta = np.zeros(9), rng.normal(size=20), 1.3
        s3 = np.sqrt(1.0 - (1.0 + 0.01 * side) * GAP_RTOL * 9.0)
        lam_mat = np.zeros((6, 4))
        np.fill_diagonal(lam_mat, beta * np.array([3.0, 1.0, s3, 0.5]))
        _, e_new, svd = update_w(prob, theta, lam_mat, lam_vec, beta)
        if side < 0:
            with pytest.raises(SensitivityUnavailable):
                w_derivative(prob, theta, lam_mat, beta, svd, e_new)
            return
        dw = w_derivative(prob, theta, lam_mat, beta, svd, e_new)
        delta = 1e-5 * beta
        z_hi, e_hi, _ = update_w(prob, theta, lam_mat, lam_vec, beta + delta)
        z_lo, e_lo, _ = update_w(prob, theta, lam_mat, lam_vec, beta - delta)
        fd = (prob.stack_w(z_hi, e_hi) - prob.stack_w(z_lo, e_lo)) / (2 * delta)
        assert np.linalg.norm(dw - fd) <= 1e-6 * np.linalg.norm(fd)


def factor_route_w_derivative(prob, theta, lam_mat, beta, svd, e_new):
    # dU, ds, dV through the gains, then the product rule: the reference.
    du, ds, dv = svd_factor_derivatives(svd, -lam_mat / beta**2)
    dz = z_derivative(svd, du, ds, dv, prob.r)
    return prob.stack_w(dz, e_derivative(prob, theta, e_new, beta))


def assert_close_relative(actual, expected, rtol):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@st.composite
def planted_blocks(draw):
    """A tall SVD whose adjacent singular values differ by at least 20%,
    and by at least 50% across the cut at r."""
    n = draw(st.integers(2, 12))
    rows = n + draw(st.integers(0, 10))
    r = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratios = rng.uniform(1.2, 2.0, size=n - 1)
    ratios[r - 1] = rng.uniform(1.5, 4.0)
    s = np.concatenate([[1.0], 1.0 / np.cumprod(ratios)])
    u = np.linalg.qr(rng.normal(size=(rows, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return rows, n, r, economy_svd((u * s) @ v.T), rng


class TestBasisRoute:
    @pytest.mark.parametrize(
        "l, n, r", [(60, 20, 8), (120, 40, 8), (60, 20, 19), (60, 20, 1)]
    )
    def test_matches_factor_route(self, l, n, r):
        for seed in range(5):
            prob, theta, lam_mat, lam_vec, beta, _ = make_instance(
                200 + seed, l=l, n=n, r=r, n_samples=40
            )
            _, e_new, _ = update_w(prob, theta, lam_mat, lam_vec, beta)
            # The P form on LAPACK's factors, B = U diag(s).
            svd = economy_svd(omega_of(prob, theta, lam_mat, beta))
            assert_close_relative(
                w_derivative(prob, theta, lam_mat, beta, svd, e_new),
                factor_route_w_derivative(prob, theta, lam_mat, beta, svd, e_new),
                1e-13,
            )

    def test_gram_factors_match_factor_route_along_solver_iterates(self, solver_sweeps):
        # The sweep's own Gram factors against the factor route on LAPACK's.
        for prob, theta, lam_mat, beta in solver_sweeps:
            e_new = np.zeros(prob.n_samples)
            omega = omega_of(prob, theta, lam_mat, beta)
            _, svd = truncated_svd_projection(omega, prob.r)
            assert_close_relative(
                w_derivative(prob, theta, lam_mat, beta, svd, e_new),
                factor_route_w_derivative(
                    prob, theta, lam_mat, beta, economy_svd(omega), e_new
                ),
                1e-8,
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_blocks())
    def test_planted_gap_matches_factor_route(self, case):
        rows, n, r, svd, rng = case
        prob = assemble_problem(
            RegressionData(rng.normal(size=5), rng.normal(size=5)), rows + n - 1, n, r
        )
        theta = rng.normal(size=prob.l)
        lam_mat = rng.normal(size=(rows, n))
        e_new = rng.normal(size=5)
        beta = float(rng.uniform(0.1, 10.0))
        assert_close_relative(
            w_derivative(prob, theta, lam_mat, beta, svd, e_new),
            factor_route_w_derivative(prob, theta, lam_mat, beta, svd, e_new),
            1e-13,
        )

    def test_solver_calls_no_reference(self):
        # The reference routes live only in the tests, so every slope of
        # a solve comes from `w_derivative`: a 60-iteration sa-aa run has
        # one finite slope per accepted step.
        prob = make_instance(16, l=60, n=20, r=8, n_samples=100)[0]
        result = solve(
            prob, DriverConfig(beta0=1.0, strategy=SelfAdaptivePenalty(), k_max=60)
        )
        slopes = [rec.dldbeta for rec in result.records if rec.accepted]
        assert len(slopes) == 61
        assert np.all(np.isfinite(slopes))


@st.composite
def sign_flips(draw):
    """A random sweep instance and a nonempty set of factor columns to negate."""
    n = draw(st.integers(2, 12))
    rows = n + draw(st.integers(0, 10))
    r = draw(st.integers(1, n - 1))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    instance = make_instance(draw(st.integers(0, 2**32 - 1)), l=rows + n - 1, n=n, r=r)
    return instance[:4], draw(st.floats(0.1, 10.0)), np.where(flips, -1.0, 1.0)


class TestSignInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sign_flips())
    def test_column_sign_flips_change_no_bit(self, case):
        # eigh's column signs are arbitrary; the truncation Z and the
        # slope dw must not depend on them, bit for bit.
        (prob, theta, lam_mat, lam_vec), beta, sign = case
        z, e_new, svd = update_w(prob, theta, lam_mat, lam_vec, beta)
        dw = w_derivative(prob, theta, lam_mat, beta, svd, e_new)
        eigh = np.linalg.eigh

        def flipped_eigh(gram):
            lam, v = eigh(gram)
            # eigh lists ascending, the factors descending.
            return lam, v * sign[::-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", flipped_eigh)
            z_flipped, _, flipped = update_w(prob, theta, lam_mat, lam_vec, beta)
        np.testing.assert_array_equal(flipped.V, svd.V * sign)
        np.testing.assert_array_equal(flipped.B, svd.B * sign)
        assert z_flipped.tobytes() == z.tobytes()
        dw_flipped = w_derivative(prob, theta, lam_mat, beta, flipped, e_new)
        assert dw_flipped.tobytes() == dw.tobytes()
