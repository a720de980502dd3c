"""Per-pair channel statistics and coherence-block channel sampling.

Each UE-AP pair gets a Rician decomposition: a deterministic steering vector
scaled by the line-of-sight share of the pair gain, a fixed phase drawn once
per network setup, and a spatially correlated Gaussian scattered component.
The scattering covariance follows the Gaussian local scattering model: the
multipath angles are jointly Gaussian around the nominal azimuth/elevation,
truncated at 8 standard deviations, wrapped around the angular support and
renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from .errors import ConfigError, NumericalError
from .scenario import AreaConfig, Deployment, rician_factor

ANGLE_SPREAD_RAD = np.radians(5.0)
ANTENNA_SPACING = 0.5  # in wavelengths
_TRUNCATION_SIGMAS = 8.0
QUAD_TOL = 1e-8
QUAD_MAX_NODES = 256  # per angle axis
PSD_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class ChannelStats:
    """Immutable large-scale channel state for one network setup."""

    los_mean: np.ndarray    # (K, L, N) complex, deterministic component before phase
    los_phase: np.ndarray   # (K, L) radians, fixed for the whole setup
    nlos_cov: np.ndarray    # (K, L, N, N) Hermitian PSD scattered-power covariance
    kappa: np.ndarray       # (K, L) Rician factors
    beta_lin: np.ndarray    # (K, L) linear pair gains
    cov_factor: np.ndarray  # (K, L, N, N) factor F with F F^H = nlos_cov

    @property
    def n_antennas(self) -> int:
        return self.los_mean.shape[2]

    def phased_mean(self) -> np.ndarray:
        """LoS component including the fixed phase, laid out (L, N, K)."""
        phased = self.los_mean * np.exp(1j * self.los_phase)[:, :, None]
        return np.ascontiguousarray(phased.transpose(1, 2, 0))


@dataclass(frozen=True)
class ChannelDraw:
    """A batch of independent coherence-block channel realizations."""

    true_channels: np.ndarray  # (draws, L, N, K) complex

    @property
    def n_draws(self) -> int:
        return self.true_channels.shape[0]


def los_signature(azimuth: float, elevation: float, n_antennas: int) -> np.ndarray:
    """Uniform-linear-array steering vector for a nominal arrival direction."""
    n = np.arange(n_antennas)
    return np.exp(2j * np.pi * ANTENNA_SPACING * n * np.sin(azimuth) * np.cos(elevation))


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _wrapped_axis(mean: float, sigma: float, support_lo: float, support_hi: float,
                  n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes for one truncated, wrapped Gaussian angle.

    Integrates over the +-8 sigma window around the mean, splitting at the
    period boundaries so the wrapped angle is continuous within each piece.
    Returns wrapped node angles and the combined quadrature-times-pdf weights
    (unnormalized; callers divide by the integrated mass).
    """
    period = support_hi - support_lo
    lo = mean - _TRUNCATION_SIGMAS * sigma
    hi = mean + _TRUNCATION_SIGMAS * sigma
    base_x, base_w = _gauss_legendre(n_nodes)

    w_min = int(np.floor((lo - support_lo) / period))
    w_max = int(np.floor((hi - support_lo) / period))
    angles, weights = [], []
    for w in range(w_min, w_max + 1):
        a = max(lo, support_lo + w * period)
        b = min(hi, support_lo + (w + 1) * period)
        if b - a <= 0.0:
            continue
        x = 0.5 * (a + b) + 0.5 * (b - a) * base_x
        pdf = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        angles.append(x - w * period)
        weights.append(0.5 * (b - a) * base_w * pdf)
    return np.concatenate(angles), np.concatenate(weights)


def local_scattering_covariance(azimuth: float, elevation: float,
                                sigma_az: float, sigma_el: float,
                                n_antennas: int) -> np.ndarray:
    """Normalized spatial correlation matrix of the scattered component.

    Entry (x, y) is the expectation of exp(j 2 pi spacing (x-y) sin(az) cos(el))
    over the truncated wrapped Gaussian angle distribution, evaluated with a
    tensor-product Gauss-Legendre rule. The node count doubles from 16 until two
    successive refinements agree to QUAD_TOL in Frobenius norm; NumericalError
    past QUAD_MAX_NODES per axis. The result has a unit diagonal and is PSD by
    construction (a positive combination of steering-vector outer products).
    """
    if sigma_az <= 0 or sigma_el <= 0:
        raise ConfigError("angle spreads must be positive")
    if n_antennas < 1:
        raise ConfigError("n_antennas must be >= 1")

    prev = None
    n = 16
    while n <= QUAD_MAX_NODES:
        az_ang, az_w = _wrapped_axis(azimuth, sigma_az, -np.pi, np.pi, n)
        el_ang, el_w = _wrapped_axis(elevation, sigma_el, 0.0, np.pi, n)
        direction = np.sin(az_ang)[:, None] * np.cos(el_ang)[None, :]
        weight = az_w[:, None] * el_w[None, :]
        mass = weight.sum()

        # Toeplitz structure: only the first row of the matrix is needed.
        step = np.exp(2j * np.pi * ANTENNA_SPACING * direction)
        first_row = np.empty(n_antennas, dtype=complex)
        running = weight.astype(complex)
        first_row[0] = running.sum() / mass
        for m in range(1, n_antennas):
            running = running * step
            first_row[m] = running.sum() / mass

        cov = toeplitz(first_row, np.conj(first_row))
        if prev is not None and np.linalg.norm(cov - prev) < QUAD_TOL:
            return cov
        prev = cov
        n *= 2
    raise NumericalError(
        f"scattering covariance quadrature did not converge within {QUAD_MAX_NODES} nodes per axis"
    )


def _psd_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (repaired matrix, factor F with F F^H = matrix).

    Cholesky on the fast path; semidefinite or slightly rounded matrices fall
    back to an eigendecomposition with negative eigenvalues clipped to zero.
    Eigenvalues below -PSD_TRACE_TOL * trace are treated as a real failure.
    """
    trace = float(np.real(np.trace(matrix)))
    if trace == 0.0:
        return np.zeros_like(matrix), np.zeros_like(matrix)
    try:
        return matrix, np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    eigval, eigvec = np.linalg.eigh(matrix)
    if eigval.min() < -PSD_TRACE_TOL * trace:
        raise NumericalError("scattering covariance is indefinite beyond tolerance")
    clipped = np.clip(eigval, 0.0, None)
    repaired = (eigvec * clipped) @ eigvec.conj().T
    factor = eigvec * np.sqrt(clipped)
    return repaired, factor


@dataclass(frozen=True)
class PairGeometry:
    """Kappa-independent per-pair quantities: steering vectors and normalized
    scattering correlations. Reusable across Rician-factor overrides."""

    steering: np.ndarray    # (K, L, N) unit-modulus entries
    scattering: np.ndarray  # (K, L, N, N) unit-diagonal correlation matrices


def pair_geometry(dep: Deployment, cfg: AreaConfig) -> PairGeometry:
    """Steering vectors and normalized scattering matrices for every pair."""
    K, L = dep.gains_db.shape
    N = cfg.antennas_per_ap
    steering = np.empty((K, L, N), dtype=complex)
    scattering = np.empty((K, L, N, N), dtype=complex)
    for k in range(K):
        for l in range(L):
            steering[k, l] = los_signature(dep.azimuth[k, l], dep.elevation[k, l], N)
            scattering[k, l] = local_scattering_covariance(
                dep.azimuth[k, l], dep.elevation[k, l],
                ANGLE_SPREAD_RAD, ANGLE_SPREAD_RAD, N,
            )
    return PairGeometry(steering=steering, scattering=scattering)


def stats_from_geometry(geom: PairGeometry, dep: Deployment, phases: np.ndarray,
                        kappa_override: float | None = None) -> ChannelStats:
    """Scale geometry into full channel statistics for one deployment.

    Pair gains come from `dep`; Rician factors follow the distance law, or
    `kappa_override` uniformly for all pairs. The pair gain splits between
    the deterministic and scattered parts in the ratio kappa : 1, so
    trace(cov) + |mean|^2 = N * beta for every pair. Kappa values of 0 and
    inf give the pure-NLoS and pure-LoS limits exactly.
    """
    K, L, N = geom.steering.shape
    beta_lin = 10.0 ** (dep.gains_db / 10.0)
    if kappa_override is None:
        kappa = rician_factor(dep.distances_3d)
    else:
        if kappa_override < 0:
            raise ConfigError("kappa_override must be >= 0")
        kappa = np.full((K, L), float(kappa_override))
    with np.errstate(invalid="ignore"):
        los_share = np.where(np.isinf(kappa), 1.0, kappa / (kappa + 1.0))
        nlos_share = np.where(np.isinf(kappa), 0.0, 1.0 / (kappa + 1.0))

    los_mean = np.sqrt(beta_lin * los_share)[:, :, None] * geom.steering
    nlos_cov = np.zeros((K, L, N, N), dtype=complex)
    cov_factor = np.zeros((K, L, N, N), dtype=complex)
    for k in range(K):
        for l in range(L):
            scale = beta_lin[k, l] * nlos_share[k, l]
            if scale > 0.0:
                nlos_cov[k, l], cov_factor[k, l] = _psd_factor(scale * geom.scattering[k, l])

    return ChannelStats(
        los_mean=los_mean,
        los_phase=phases,
        nlos_cov=nlos_cov,
        kappa=kappa,
        beta_lin=beta_lin,
        cov_factor=cov_factor,
    )


def build_channel_stats(dep: Deployment, cfg: AreaConfig, rng: np.random.Generator,
                        kappa_override: float | None = None) -> ChannelStats:
    """Assemble LoS signatures, phases and scattered covariances for one drop.

    LoS phases are drawn once per setup, uniformly on [0, 2 pi), and stay
    fixed across all coherence blocks.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dep.gains_db.shape)
    return stats_from_geometry(pair_geometry(dep, cfg), dep, phases, kappa_override)


def sample_channels(stats: ChannelStats, rng: np.random.Generator, n_draws: int = 1) -> ChannelDraw:
    """Draw i.i.d. coherence-block channel realizations.

    Each pair gets mean + F z with z standard complex normal, independent
    across pairs and draws.
    """
    K, L, N = stats.los_mean.shape
    z = rng.standard_normal((n_draws, K, L, N)) + 1j * rng.standard_normal((n_draws, K, L, N))
    z *= np.sqrt(0.5)
    channels = stats.cov_factor @ z.transpose(1, 2, 3, 0)    # (K, L, N, draws)
    channels += (stats.los_mean * np.exp(1j * stats.los_phase)[:, :, None])[..., None]
    return ChannelDraw(true_channels=np.ascontiguousarray(channels.transpose(3, 1, 2, 0)))
