"""Per-pair channel statistics and coherence-block channel sampling.

Each UE-AP pair gets a Rician decomposition: a deterministic steering vector
scaled by the line-of-sight share of the pair gain, a fixed phase drawn once
per network setup, and a spatially correlated Gaussian scattered component.
The scattering covariance follows the Gaussian local scattering model: the
multipath angles are independent Gaussians around the nominal
azimuth/elevation. Azimuth enters only through the 2 pi-periodic sin, so its
Gaussian stays untruncated and a Gauss-Hermite rule integrates it. Elevation
is truncated at 8 standard deviations, renormalized, integrated by a
Gauss-Legendre rule and folded modulo pi (a ray below the horizon is placed
at pi minus its depth). Since cos(pi - t) = -cos(t), a ray folded from depth
t has minus the phase of the ray at height t, so the quadrature evaluates one
phase table per pair for both elevation pieces and conjugates the lower
piece's sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .scenario import AreaConfig, Deployment, rician_factor

ANGLE_SPREAD_RAD = np.radians(5.0)
ANTENNA_SPACING = 0.5  # in wavelengths
_TRUNCATION_SIGMAS = 8.0
QUAD_TOL = 1e-8
QUAD_MAX_NODES = 256  # elevation nodes; azimuth takes half as many
PSD_TRACE_TOL = 1e-10
# Quadrature nodes per pass (at least one pair's); bounds the quadrature's memory.
_NODES_PER_PASS = 2 ** 15


@dataclass(frozen=True)
class ChannelStats:
    """Immutable large-scale channel state for one network setup.

    `los_mean` is the LoS component with the setup's fixed phase applied, so
    every coherence block of the setup shares it as the channel mean.
    """

    los_mean: np.ndarray    # (K, L, N) complex LoS component, fixed phase included
    nlos_cov: np.ndarray    # (K, L, N, N) Hermitian PSD scattered-power covariance
    cov_factor: np.ndarray  # (K, L, N, N) factor F with F F^H = nlos_cov


@dataclass(frozen=True)
class ChannelDraw:
    """A batch of independent coherence-block channel realizations."""

    true_channels: np.ndarray  # (draws, L, N, K) complex

    @property
    def n_draws(self) -> int:
        return self.true_channels.shape[0]


def los_signature(azimuth, elevation, n_antennas: int) -> np.ndarray:
    """Uniform-linear-array steering vectors, shape angles.shape + (n_antennas,)."""
    n = np.arange(n_antennas)
    return np.exp(2j * np.pi * ANTENNA_SPACING * n * np.sin(azimuth)[..., None]
                  * np.cos(elevation)[..., None])


def _pairs_per_pass(n: int) -> int:
    """Pairs per pass of `_lag_rows` at level n (n // 2 x n nodes per pair)."""
    return max(1, _NODES_PER_PASS // (n // 2 * n))


def _lag_rows(azimuth: np.ndarray, elevation: np.ndarray, sigma: float, n: int,
              n_antennas: int) -> np.ndarray:
    """First Toeplitz rows, (pairs, n_antennas), of one quadrature level.

    Azimuth is an untruncated Gaussian, integrated by n // 2 Gauss-Hermite
    nodes at offsets sigma * x. Elevation keeps its +-8 sigma window, split at
    0: the upper piece [max(lo, 0), hi] takes n Gauss-Legendre nodes t with
    weight g(t - el), and the piece below the horizon is folded onto the same
    nodes. Its ray at depth t folds to pi - t, and cos(pi - t) = -cos(t), so
    its phase is minus the phase at +t: it reuses the upper piece's phase
    table with weight g(t + el) for t <= -lo (0 elsewhere, and everywhere when
    lo >= 0), and its lag sums are complex conjugates. Row m is therefore
    az_w^T P^m w_up + conj(az_w^T P^m w_down) over one n // 2 x n table P.
    The weights leave out constant factors, which the division by the total
    mass removes anyway; lag 0 is exactly 1.
    """
    az_x, az_w = np.polynomial.hermite_e.hermegauss(n // 2)
    az_offset = sigma * az_x
    x, w = np.polynomial.legendre.leggauss(n)
    half = _TRUNCATION_SIGMAS * sigma
    lo, hi = (elevation - half)[:, None], (elevation + half)[:, None]
    cut = np.maximum(lo, 0.0)
    height = 0.5 * (cut + hi) + 0.5 * (hi - cut) * x     # (P, n) nodes on [cut, hi]
    scale = 0.5 * (hi - cut) * w
    el = elevation[:, None]
    up = scale * np.exp(-0.5 * ((height - el) / sigma) ** 2)
    down = np.where(height <= -lo, scale * np.exp(-0.5 * ((height + el) / sigma) ** 2), 0.0)
    el_w = np.stack([up, down], 1)                      # (P, 2, n)
    mass = az_w.sum() * el_w.sum(axis=(1, 2))
    cos_el = np.cos(height)

    rows = np.empty((len(azimuth), n_antennas), dtype=complex)
    rows[:, 0] = 1.0
    per_pass = _pairs_per_pass(n)
    for start in range(0, len(azimuth), per_pass):
        p = slice(start, start + per_pass)
        direction = np.sin(azimuth[p, None] + az_offset)[:, :, None] * cos_el[p, None, :]
        phase = 2.0 * np.pi * ANTENNA_SPACING * direction
        step = np.empty(phase.shape, dtype=complex)   # exp(j phase), faster than np.exp
        np.cos(phase, out=step.real)
        np.sin(phase, out=step.imag)
        running = step
        for m in range(1, n_antennas):
            if m > 1:
                running = running * step
            # real products on the (re, im) pairs: azimuth, then both elevation pieces
            az_sum = np.matmul(az_w, running.view(np.float64)).reshape(-1, n, 2)
            up, down = (el_w[p] @ az_sum).view(complex)[..., 0].T
            rows[p, m] = (up + down.conj()) / mass[p]
    return rows


def _toeplitz(rows: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrices: entry (x, y) is row[x - y], conjugated for x < y."""
    lag = np.subtract.outer(np.arange(rows.shape[-1]), np.arange(rows.shape[-1]))
    entries = rows[..., np.abs(lag)]
    return np.where(lag >= 0, entries, entries.conj())


def local_scattering_covariance(azimuth, elevation, n_antennas: int,
                                sigma: float = ANGLE_SPREAD_RAD) -> np.ndarray:
    """Normalized spatial correlation matrices of the scattered component.

    Elementwise over the angle arrays; returns angles.shape + (N, N). Entry
    (x, y) is the expectation of exp(j 2 pi spacing (x-y) sin(az) cos(el)) over
    the Gaussian angles, from a tensor-product rule: n // 2 Gauss-Hermite
    nodes for the untruncated azimuth, and n Gauss-Legendre nodes for the
    elevation truncated at +-8 sigma and folded at the horizon. Per pair, n
    doubles from 16 until two successive levels agree to QUAD_TOL in Frobenius
    norm; NumericalError past QUAD_MAX_NODES.
    Each result has a unit diagonal and is PSD by construction (a positive
    combination of steering-vector outer products).
    """
    if not sigma > 0:
        raise ConfigError("angle spread must be positive")
    azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
    if not np.all((elevation >= 0.0) & (elevation <= np.pi / 2)):
        raise ConfigError("elevation must lie in [0, pi/2]")
    shape = azimuth.shape
    azimuth, elevation = azimuth.ravel(), elevation.ravel()

    rows = np.empty((azimuth.size, n_antennas), dtype=complex)
    active = np.arange(azimuth.size)
    prev = None
    n = 16
    while active.size and n <= QUAD_MAX_NODES:
        level = _lag_rows(azimuth[active], elevation[active], sigma, n, n_antennas)
        if prev is not None:
            done = np.linalg.norm(_toeplitz(level - prev), axis=(1, 2)) < QUAD_TOL
            rows[active[done]] = level[done]
            active, level = active[~done], level[~done]
        prev = level
        n *= 2
    if active.size:
        raise NumericalError(
            f"scattering covariance quadrature did not converge within {QUAD_MAX_NODES} elevation nodes"
        )
    return _toeplitz(rows).reshape(shape + (n_antennas, n_antennas))


def _psd_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (repaired matrix, factor F with F F^H = matrix).

    Cholesky on the fast path; semidefinite or slightly rounded matrices fall
    back to an eigendecomposition with negative eigenvalues clipped to zero.
    Eigenvalues below -PSD_TRACE_TOL * trace are treated as a real failure.
    """
    trace = float(np.real(np.trace(matrix)))
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
    N = cfg.antennas_per_ap
    return PairGeometry(
        steering=los_signature(dep.azimuth, dep.elevation, N),
        scattering=local_scattering_covariance(dep.azimuth, dep.elevation, N),
    )


def stats_from_geometry(geom: PairGeometry, dep: Deployment, phases: np.ndarray,
                        kappa_override: float | None = None) -> ChannelStats:
    """Scale geometry into full channel statistics for one deployment.

    Pair gains come from `dep`; Rician factors follow the distance law, or
    `kappa_override` uniformly for all pairs. The pair gain splits between
    the deterministic and scattered parts in the ratio kappa : 1, so
    trace(cov) + |mean|^2 = N * beta for every pair. Kappa values of 0 and
    inf give the pure-NLoS and pure-LoS limits exactly. The LoS mean is
    formed once here with its fixed phase from `phases` (K, L) applied.
    """
    K, L, N = geom.steering.shape
    beta_lin = 10.0 ** (dep.gains_db / 10.0)
    if kappa_override is None:
        kappa = rician_factor(dep.distances_3d)
    else:
        kappa = np.full((K, L), float(kappa_override))
    with np.errstate(invalid="ignore"):
        los_share = np.where(np.isinf(kappa), 1.0, kappa / (kappa + 1.0))
        nlos_share = np.where(np.isinf(kappa), 0.0, 1.0 / (kappa + 1.0))

    los_mean = (np.sqrt(beta_lin * los_share)[:, :, None] * geom.steering
                * np.exp(1j * phases)[:, :, None])
    nlos_cov = np.zeros((K, L, N, N), dtype=complex)
    cov_factor = np.zeros((K, L, N, N), dtype=complex)
    scale = beta_lin * nlos_share
    scattered = scale > 0.0
    covs = scale[scattered][:, None, None] * geom.scattering[scattered]
    try:
        factors = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        # some pair is only semidefinite: factor each pair, repairing where needed
        repaired = [_psd_factor(cov) for cov in covs]
        covs = np.array([cov for cov, _ in repaired])
        factors = np.array([factor for _, factor in repaired])
    nlos_cov[scattered], cov_factor[scattered] = covs, factors

    return ChannelStats(los_mean=los_mean, nlos_cov=nlos_cov, cov_factor=cov_factor)


def build_channel_stats(dep: Deployment, cfg: AreaConfig, rng: np.random.Generator,
                        kappas=(None,)) -> list[ChannelStats]:
    """Channel statistics of one drop, one `ChannelStats` per Rician factor in `kappas`.

    `None` means the distance law. LoS phases are drawn once per setup,
    uniformly on [0, 2 pi), and the kappa-independent geometry is built once;
    every kappa shares both, and they stay fixed across all coherence blocks.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dep.gains_db.shape)
    geom = pair_geometry(dep, cfg)
    return [stats_from_geometry(geom, dep, phases, kappa) for kappa in kappas]


def sample_channels(stats: ChannelStats, rng: np.random.Generator, n_draws: int) -> ChannelDraw:
    """Draw i.i.d. coherence-block channel realizations.

    Each pair gets mean + F z with z standard complex normal, independent
    across pairs and draws.
    """
    shape = (n_draws,) + stats.los_mean.shape
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(0.5)
    channels = stats.cov_factor @ z.transpose(1, 2, 3, 0)    # (K, L, N, draws)
    del z
    channels += stats.los_mean[..., None]
    return ChannelDraw(true_channels=np.ascontiguousarray(channels.transpose(3, 1, 2, 0)))
