"""Tests for the formation controller and the closed-loop certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from oracles import control_input, controller_neighbors
from platoonsec import controller
from platoonsec.controller import (
    CROSS_CHECK_TOL,
    CertificateError,
    IssCertificate,
    block_spectrum,
    check_gains,
    closed_loop_matrix,
    estimation_disturbance,
    grounded_laplacian,
    iss_certificate,
    lyapunov_series,
    spectral_radius,
    tracking_bound,
)
from platoonsec.dynamics import plant_norm

N, T, G_S, G_V = 5, 0.01, 50.0, 50.0
LOOP = closed_loop_matrix(N, T, G_S, G_V)


@pytest.fixture(scope="module")
def cert():
    return iss_certificate(LOOP)


# --------------------------------------------------------------------------
# control law
# --------------------------------------------------------------------------

def test_controller_neighbors_chain_with_leader():
    assert controller_neighbors(1, 5) == (0, 2)
    assert controller_neighbors(3, 5) == (2, 4)
    assert controller_neighbors(5, 5) == (4,)
    assert controller_neighbors(1, 1) == (0,)
    with pytest.raises(ValueError):
        controller_neighbors(0, 5)
    with pytest.raises(ValueError):
        controller_neighbors(6, 5)


def test_control_input_is_zero_on_formation():
    x_own = np.array([40.0, 10.0])
    terms = [(np.array([60.0, 10.0]), np.array([-20.0, 0.0])),
             (np.array([20.0, 10.0]), np.array([20.0, 0.0]))]
    assert control_input(x_own, terms, G_S, G_V) == 0.0


def test_control_input_hand_formula():
    x_own = np.array([40.0, 10.0])
    terms = [(np.array([61.0, 12.0]), np.array([-20.0, 0.0]))]
    # g_s * (61 - 40 - 20) + g_v * (12 - 10 + 0)
    assert control_input(x_own, terms, 3.0, 7.0) == 3.0 * 1.0 + 7.0 * 2.0


def test_control_inputs_equal_grounded_laplacian_feedback():
    """Across the whole platoon the pile of pairwise terms must equal the
    matrix form ``-(L_g (x) [g_s g_v]) e`` on the formation error ``e``, and
    so must the law a run steps, ``control_all``, on its own and neighbour
    sources both ``x``."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 8):
        x_star = np.cumsum(rng.uniform(-30.0, -10.0, size=(n, 2)), axis=0)
        x_star[:, 1] = 12.0
        x = x_star + rng.normal(size=(n, 2))
        x_leader = x_star[0] + np.array([25.0, 0.0])
        u = []
        for i in range(1, n + 1):
            terms = []
            for j in controller_neighbors(i, n):
                x_j = x_leader if j == 0 else x[j - 1]
                star_j = x_leader if j == 0 else x_star[j - 1]
                terms.append((x_j, x_star[i - 1] - star_j))
            u.append(control_input(x[i - 1], terms, G_S, G_V))
        e = (x - x_star).reshape(-1)
        want = -np.kron(grounded_laplacian(n), np.array([[G_S, G_V]])) @ e
        assert np.allclose(u, want, rtol=1e-12, atol=1e-9)
        rows = x.tolist()
        u_all = controller.control_all(n, x_star.tolist(), x_leader.tolist(), rows, rows,
                                       G_S, G_V)
        assert np.allclose(u_all, want, rtol=1e-12, atol=1e-9)


# --------------------------------------------------------------------------
# gain certification
# --------------------------------------------------------------------------

def test_grounded_laplacian_small_cases():
    assert np.array_equal(grounded_laplacian(1), np.array([[1.0]]))
    assert np.array_equal(grounded_laplacian(2), np.array([[2.0, -1.0], [-1.0, 1.0]]))
    lg = grounded_laplacian(5)
    assert np.array_equal(np.diag(lg), [2.0, 2.0, 2.0, 2.0, 1.0])
    assert np.array_equal(np.diag(lg, 1), [-1.0] * 4)
    assert np.array_equal(lg, lg.T)
    assert np.array_equal(np.triu(lg, 2), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        grounded_laplacian(0)


def test_grounded_laplacian_five_vehicle_spectrum():
    want = [0.08101405277100517, 0.6902785321094296, 1.7153703234534292,
            2.830830026003772, 3.682507065662362]
    assert np.linalg.eigvalsh(grounded_laplacian(5)) == pytest.approx(want, rel=1e-12)


def test_check_gains_baseline_report():
    rep = check_gains(G_S, G_V, T, N)
    assert rep.ok
    assert rep.lambda_max == pytest.approx(3.682507065662362, rel=1e-12)
    assert rep.velocity_margin == 49.5
    assert rep.rate_margin == pytest.approx(0.09121651735528491, rel=1e-12)


def test_check_gains_failure_modes():
    assert not check_gains(1000.0, 5.0, 0.01, 5).ok        # velocity margin < 0
    weak = check_gains(10.0, 300.0, 0.01, 5)
    assert not weak.ok and weak.rate_margin < 0.0          # over-damped
    assert not check_gains(-1.0, 50.0, 0.01, 5).ok
    # the margin conditions certify an actually-Schur loop, and vice versa
    for g_s, g_v in ((50.0, 50.0), (20.0, 80.0), (5.0, 30.0), (80.0, 10.0)):
        rep = check_gains(g_s, g_v, T, N)
        assert rep.ok == (spectral_radius(closed_loop_matrix(N, T, g_s, g_v)) < 1.0)


def test_closed_loop_matrix_is_the_expected_kronecker_sum():
    a = np.array([[1.0, T], [0.0, 1.0]])
    f = np.array([[0.0, 0.0], [T * G_S, T * G_V]])
    want = np.kron(np.eye(N), a) - np.kron(grounded_laplacian(N), f)
    assert np.array_equal(LOOP, want)
    assert LOOP.shape == (2 * N, 2 * N)


@pytest.mark.parametrize("period", [0.0, -0.01])
def test_closed_loop_matrix_refuses_a_nonpositive_period(period):
    with pytest.raises(ValueError, match="sampling period must be positive"):
        closed_loop_matrix(N, period, G_S, G_V)


def test_baseline_loop_is_schur_with_pinned_radius():
    assert spectral_radius(LOOP) == pytest.approx(0.9899450911072051, rel=1e-12)


def test_block_spectrum_matches_the_full_eigensolve():
    blocks = block_spectrum(N, T, G_S, G_V)
    full = sorted(np.linalg.eigvals(LOOP), key=lambda z: (abs(z), z.real, z.imag))
    assert blocks.shape == (2 * N,)
    assert np.max(np.abs(blocks - np.array(full))) <= 1e-8


def test_block_spectrum_cross_check_other_sizes():
    for n, g_s, g_v in ((2, 30.0, 40.0), (7, 12.0, 60.0)):
        blocks = block_spectrum(n, T, g_s, g_v)
        full = sorted(np.linalg.eigvals(closed_loop_matrix(n, T, g_s, g_v)),
                      key=lambda z: (abs(z), z.real, z.imag))
        assert np.max(np.abs(blocks - np.array(full))) <= 1e-8


# --------------------------------------------------------------------------
# Lyapunov machinery
# --------------------------------------------------------------------------

def test_lyapunov_series_closed_forms():
    assert np.array_equal(lyapunov_series(np.zeros((2, 2))), np.eye(2))
    got = lyapunov_series(0.5 * np.eye(2))
    assert got == pytest.approx(np.eye(2) * (4.0 / 3.0), rel=1e-12)
    with pytest.raises(CertificateError, match="doubling budget"):
        lyapunov_series(np.eye(2))


def _acceptance_6_matrices():
    """The 20 random Schur matrices of acceptance 6, drawn from its stream."""
    rng = np.random.default_rng(13579)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        raw = rng.normal(size=(dim, dim))
        yield raw * (float(rng.uniform(0.3, 0.95)) / spectral_radius(raw))
        rng.uniform(0.1, 2.0)
        rng.normal(size=(1500, dim))  # the noise acceptance 6 drives each loop with


@pytest.mark.parametrize("loops", [
    [LOOP], [closed_loop_matrix(41, T, G_S, G_V)], list(_acceptance_6_matrices()),
], ids=["baseline", "string41", "acceptance6"])
def test_lyapunov_series_matches_scipy(loops):
    for mat in loops:
        want = scipy.linalg.solve_discrete_lyapunov(mat.T, np.eye(mat.shape[0]))
        assert np.linalg.norm(lyapunov_series(mat) - want) <= 1e-9 * np.linalg.norm(want)


def test_the_101_vehicle_string_certifies_with_headroom():
    """scipy's solver left sqrt(dim)*||R||_F = 1.6e-7 here; the doubling 2.4e-9."""
    c = iss_certificate(closed_loop_matrix(101, T, G_S, G_V))
    assert math.sqrt(202) * c.residual <= 1e-7


def test_iss_certificate_solves_the_lyapunov_equation(cert):
    M = cert.M
    residual = LOOP.T @ M @ LOOP - M + np.eye(2 * N)
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(M)
    assert np.allclose(M, M.T, rtol=1e-10)
    assert float(np.min(np.linalg.eigvalsh(M))) >= 1.0 - 1e-9  # M >= I always


def test_iss_certificate_baseline_pins(cert):
    assert cert.spectral_radius == pytest.approx(0.9899450911072051, rel=1e-12)
    assert cert.kappa == pytest.approx(26260.463869075727, rel=1e-9)
    assert cert.xi(1.0) == pytest.approx(2427.604902538389, rel=1e-9)
    assert cert.xi(2.0) == pytest.approx(2.0 * cert.xi(1.0), rel=1e-12)


def test_iss_certificate_keeps_its_residual_and_the_extremes_of_m(cert):
    M = cert.M
    assert cert.residual == float(np.linalg.norm(LOOP.T @ M @ LOOP - M + np.eye(2 * N)))
    eigs = np.linalg.eigvalsh(M)
    assert (cert.lam_min, cert.lam_max) == (float(np.min(eigs)), float(np.max(eigs)))


@pytest.mark.parametrize("scale, refused", [
    (1e-4, True),
    # a solve scaled by 1+d has residual -d*I, so sqrt(dim)*||R||_F = d*dim:
    # just under and just over CROSS_CHECK_TOL at dim = 10
    (0.99e-7, False),
    (1.01e-7, True),
    (float("nan"), True),
])
def test_iss_certificate_refuses_a_solve_by_its_residual(monkeypatch, scale, refused):
    solve = controller.lyapunov_series
    monkeypatch.setattr(controller, "lyapunov_series", lambda a: solve(a) * (1.0 + scale))
    if not refused:
        c = iss_certificate(LOOP)
        assert math.sqrt(2 * N) * c.residual <= CROSS_CHECK_TOL
        return
    with pytest.raises(CertificateError, match="Lyapunov residual"):
        iss_certificate(LOOP)


def test_iss_certificate_trivial_and_unstable_loops():
    triv = iss_certificate(np.zeros((2, 2)))
    assert np.array_equal(triv.M, np.eye(2))
    assert triv.kappa == 1.0
    assert triv.xi(3.0) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        iss_certificate(np.eye(2))


def test_iss_certificate_random_schur_matrices():
    rng = np.random.default_rng(12)
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        raw = rng.normal(size=(dim, dim))
        mat = raw * (float(rng.uniform(0.3, 0.9)) / spectral_radius(raw))
        c = iss_certificate(mat)
        res = mat.T @ c.M @ mat - c.M + np.eye(dim)
        assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(c.M))
        assert c.kappa >= np.linalg.norm(c.M, 2) - 1e-12
        assert c.xi(0.5) > 0.0


# --------------------------------------------------------------------------
# end-to-end tracking bound
# --------------------------------------------------------------------------

def test_estimation_disturbance_formula_and_monotonicity():
    got = estimation_disturbance(3.0, N, T, G_S, G_V, 0.1)
    want = (2.0 * math.sqrt(N) * T * 3.0 * (G_S * (plant_norm(T) + 1.0) + 2.0 * G_V)
            + math.sqrt(N) * 0.1)
    assert got == pytest.approx(want, rel=1e-14)
    assert estimation_disturbance(4.0, N, T, G_S, G_V, 0.1) > got
    assert estimation_disturbance(0.0, N, T, G_S, G_V, 0.0) == 0.0


def test_tracking_bound_pinned_for_both_threshold_designs(cert):
    static = tracking_bound(173.9792321486477, N, T, G_S, G_V, 0.1, cert)
    assert static.sigma == pytest.approx(1558.2911756138894, rel=1e-9)
    assert static.total == pytest.approx(3783089.2767347367, rel=1e-9)
    adaptive = tracking_bound(61.05237999762315, N, T, G_S, G_V, 0.1, cert)
    assert adaptive.sigma == pytest.approx(546.9769870636324, rel=1e-9)
    assert adaptive.total == pytest.approx(1327905.0677513487, rel=1e-9)
    assert adaptive.total < static.total
    for tb in (static, adaptive):
        assert tb.total == tb.alpha_hat + tb.xi
        assert tb.xi == pytest.approx(cert.xi(tb.sigma), rel=1e-12)

