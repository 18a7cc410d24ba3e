"""Distributed formation controller and closed-loop stability analysis.

Control runs over the chain graph (each vehicle listens to its immediate
predecessor and follower, the first one also to the virtual leader), which
is deliberately independent of the wider sensing topology.  The analysis
half of the module certifies the gain pair: a grounded-Laplacian eigenvalue
condition, the closed-loop spectral radius (computed two independent ways),
and a Lyapunov-based ISS gain, checked by its own residual, that converts
bounded estimation error into a bounded formation tracking error.  Its
Lyapunov equation is solved on numpy alone, by summing its series with
Smith's doubling in :func:`lyapunov_series`.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import plant_norm


def grounded_laplacian(n: int) -> np.ndarray:
    """Laplacian of the chain graph with the leader link grounding node 1."""
    if n < 1:
        raise ValueError("need at least one vehicle")
    lg = np.zeros((n, n))
    for k in range(n):
        lg[k, k] = 2.0 if k < n - 1 else 1.0
        if k > 0:
            lg[k, k - 1] = -1.0
            lg[k - 1, k] = -1.0
    return lg


@dataclass(frozen=True)
class GainReport:
    """Outcome of the gain-feasibility test with per-condition margins."""
    ok: bool
    lambda_max: float
    #: g_v - T*g_s, must be positive (velocity coupling dominates)
    velocity_margin: float
    #: T^2*g_s - 2*T*g_v + 4/lambda_max, must be positive (damping not excessive)
    rate_margin: float


def check_gains(g_s: float, g_v: float, T: float, n: int) -> GainReport:
    """Certify that the gain pair stabilises the ``n``-vehicle closed loop."""
    if n < 1:
        raise ValueError("need at least one vehicle")
    lam_max = float(np.max(np.linalg.eigvalsh(grounded_laplacian(n))))
    velocity_margin = g_v - T * g_s
    rate_margin = T * T * g_s - 2.0 * T * g_v + 4.0 / lam_max
    ok = g_s > 0.0 and velocity_margin > 0.0 and rate_margin > 0.0
    return GainReport(ok=ok, lambda_max=lam_max,
                      velocity_margin=velocity_margin, rate_margin=rate_margin)


def closed_loop_matrix(n: int, T: float, g_s: float, g_v: float) -> np.ndarray:
    """Error dynamics matrix ``kron(I, A) - kron(L_g, F)`` of the platoon,
    with ``A = [[1, T], [0, 1]]``."""
    if T <= 0:
        raise ValueError(f"sampling period must be positive, got {T}")
    feedback = np.array([[0.0, 0.0], [T * g_s, T * g_v]])
    lg = grounded_laplacian(n)
    return np.kron(np.eye(n), np.array([[1.0, T], [0.0, 1.0]])) - np.kron(lg, feedback)


def spectral_radius(mat: np.ndarray, eigs: np.ndarray | None = None) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat) if eigs is None else eigs)))


def block_spectrum(n: int, T: float, g_s: float, g_v: float) -> np.ndarray:
    """Closed-loop eigenvalues via the per-mode 2x2 blocks.

    Diagonalising the grounded Laplacian decouples the ``2n x 2n`` loop into
    ``n`` blocks ``[[1, T], [-l*T*g_s, 1 - l*T*g_v]]``, one per Laplacian
    eigenvalue ``l``; their union is the full spectrum.  Kept separate from
    :func:`spectral_radius` so the two routes can be cross-checked.
    """
    eigs = []
    for lam in np.linalg.eigvalsh(grounded_laplacian(n)):
        block = np.array([[1.0, T], [-lam * T * g_s, 1.0 - lam * T * g_v]])
        eigs.extend(np.linalg.eigvals(block))
    return np.array(sorted(eigs, key=lambda z: (abs(z), z.real, z.imag)))


class CertificateError(RuntimeError):
    """The Lyapunov/ISS certificate could not be established for a loop."""


#: the series stops once a term's norm falls below ``SERIES_TOL``, and fails
#: after ``SERIES_MAX_DOUBLINGS`` doublings, that is ``2**64`` terms
SERIES_TOL = 1e-12
SERIES_MAX_DOUBLINGS = 64
#: largest admitted ``sqrt(dim) * ||R||_F``, which bounds the relative error of M
CROSS_CHECK_TOL = 1e-6


def lyapunov_series(mat: np.ndarray) -> np.ndarray:
    """``sum_k (P^T)^k P^k``, the ``M`` of ``P^T M P - M = -I``, for Schur ``P``.

    Smith's doubling: with ``power = P^(2^j)`` the sum of the first ``2^j``
    terms doubles to ``2^(j+1)`` by ``total += power^T total power``, so the
    term budget grows exponentially in the number of products.  The caller
    checks that ``P`` is Schur; a divergent sum runs out of the budget.
    """
    total = np.eye(mat.shape[0])
    power = mat
    with np.errstate(all="ignore"):  # an overflow ends as a NaN residual or the budget
        for _ in range(SERIES_MAX_DOUBLINGS):
            term = power.T @ total @ power
            total += term
            if np.linalg.norm(term) < SERIES_TOL:
                return total
            power = power @ power
    raise CertificateError("Lyapunov series failed to converge within the doubling budget")


@dataclass(frozen=True)
class IssCertificate:
    """Lyapunov data bounding the steady effect of a bounded disturbance."""
    M: np.ndarray
    kappa: float
    spectral_radius: float
    #: Frobenius norm of ``P^T M P - M + I``, and the extreme eigenvalues of M
    residual: float
    lam_min: float
    lam_max: float

    def xi(self, sigma: float) -> float:
        """Ultimate tracking-error radius for disturbances of norm ``sigma``."""
        return float(np.sqrt(2.0 * self.kappa * sigma * sigma * self.lam_max / self.lam_min))


def iss_certificate(mat: np.ndarray, eigs: np.ndarray | None = None) -> IssCertificate:
    """Solve ``P^T M P - M = -I`` and derive the ISS constant ``kappa``.

    The solution is checked by its own residual ``R``: for Schur ``P`` the
    exact ``M*`` has ``M - M* = -sum_k (P^T)^k R P^k``, so ``||M - M*||_F <=
    sqrt(dim) ||R||_F ||M*||_F``; a bound above ``CROSS_CHECK_TOL`` (or NaN) aborts.
    ``eigs``, if given, are ``mat``'s eigenvalues, already taken.
    """
    radius = spectral_radius(mat, eigs)
    if radius >= 1.0:
        raise ValueError(
            f"closed loop is not Schur stable (spectral radius {radius:.6f} >= 1)")
    dim = mat.shape[0]
    M = lyapunov_series(mat)
    residual = float(np.linalg.norm(mat.T @ M @ mat - M + np.eye(dim)))
    if not np.sqrt(dim) * residual <= CROSS_CHECK_TOL:
        raise CertificateError(
            f"Lyapunov residual {residual:.3e} exceeds {CROSS_CHECK_TOL:.0e}/sqrt({dim}); "
            "refusing to certify the closed loop")
    eigs = np.linalg.eigvalsh(M)
    norm_M = float(np.linalg.norm(M, 2))
    norm_MP = float(np.linalg.norm(M @ mat, 2))
    kappa = norm_M + 2.0 * norm_MP * norm_MP
    return IssCertificate(M, kappa, radius, residual, float(np.min(eigs)), float(np.max(eigs)))


def estimation_disturbance(alpha_hat: float, n: int, T: float,
                           g_s: float, g_v: float, eps: float) -> float:
    """Worst-case loop disturbance caused by estimation error ``alpha_hat``.

    Feeding estimates instead of true states perturbs every control input by
    at most ``2*T*(g_s*(norm_A + 1) + 2*g_v)*alpha_hat`` per step (own
    estimate plus two neighbour predictions), on top of process noise.
    """
    norm_A = plant_norm(T)
    return (2.0 * np.sqrt(n) * T * alpha_hat * (g_s * (norm_A + 1.0) + 2.0 * g_v)
            + np.sqrt(n) * eps)


@dataclass(frozen=True)
class TrackingBound:
    """End-to-end formation guarantee: estimation radius plus ISS response."""
    alpha_hat: float
    sigma: float
    xi: float

    @property
    def total(self) -> float:
        return self.alpha_hat + self.xi


def tracking_bound(alpha_hat: float, n: int, T: float, g_s: float, g_v: float,
                   eps: float, cert: IssCertificate) -> TrackingBound:
    """Ultimate bound on ``||x_i - x_i*||`` under resilient estimation.

    ``alpha_hat`` is the worst asymptotic estimation radius across vehicles
    and ``cert`` the certificate of the ``n``-vehicle loop.
    """
    sigma = estimation_disturbance(alpha_hat, n, T, g_s, g_v, eps)
    return TrackingBound(alpha_hat=alpha_hat, sigma=sigma, xi=cert.xi(sigma))
