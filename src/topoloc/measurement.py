"""Appearance likelihoods: exponential kernel over descriptor distances.

A query descriptor ``z`` scores node ``v`` as ``exp(-lam * ||z - z_v||)``.
The kernel rate ``lam`` is either supplied or calibrated from the first
query frame so that the mean reference distance scores ``1 / rho`` relative
to the best match.  The off-map state receives the k-th largest within-map
likelihood: high enough that it competes when nothing stands out, low enough
that a clear match wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mapping import TopometricMap

__all__ = [
    "MeasurementParams", "calibrate_lambda", "descriptor_distances",
    "lambda_from_distances", "likelihood_vector", "likelihoods_from_distances",
    "order_stat_k",
]


@dataclass(frozen=True, slots=True)
class MeasurementParams:
    """Measurement-model configuration.

    ``lam`` is the kernel rate; ``None`` means "calibrate from the first
    query frame".  ``rho`` is the calibration ratio (the likelihood contrast
    assigned between best and mean reference distance).  The off-map entry
    uses rank ``k = clamp(ceil(k_frac * N), k_min, N)``.
    """

    lam: float | None = None
    k_frac: float = 0.02
    k_min: int = 10
    rho: float = math.e

    def __post_init__(self):
        if self.lam is not None and not self.lam > 0.0:
            raise ValueError("lam must be positive when given")
        if not 0.0 < self.k_frac <= 1.0:
            raise ValueError("k_frac must lie in (0, 1]")
        if self.k_min < 2:
            raise ValueError("k_min must be at least 2")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")


def order_stat_k(n_nodes: int, params: MeasurementParams) -> int:
    """Rank of the within-map likelihood used as the off-map entry."""
    return min(n_nodes, max(math.ceil(params.k_frac * n_nodes), params.k_min))


def descriptor_distances(z: np.ndarray, map_: TopometricMap) -> np.ndarray:
    """Distances ``||z - z_v||`` to every node: the one ``N x d`` pass per frame."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size != map_.descriptor_dim:
        raise ValueError(
            f"descriptor dimension mismatch: query {z.size}, map {map_.descriptor_dim}"
        )
    return np.linalg.norm(map_.descriptors_f64 - z[None, :], axis=1)


def calibrate_lambda(z0: np.ndarray, map_: TopometricMap, rho: float) -> float:
    """Kernel rate from the first query frame's reference distances.

    ``lam = ln(rho) / (d_mean - d_min)``; a degenerate spread (below 1e-9)
    falls back to ``lam = 1``.
    """
    return lambda_from_distances(descriptor_distances(z0, map_), rho)


def lambda_from_distances(d: np.ndarray, rho: float) -> float:
    """:func:`calibrate_lambda` on precomputed :func:`descriptor_distances`."""
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    spread = float(d.mean() - d.min())
    if spread < 1e-9:
        return 1.0
    return math.log(rho) / spread


def likelihood_vector(
    z: np.ndarray, map_: TopometricMap, params: MeasurementParams
) -> np.ndarray:
    """Unnormalized likelihoods over the ``N`` nodes plus the off-map state.

    The returned vector has length ``N + 1`` with the off-map entry last;
    that entry equals the k-th largest within-map value (an order statistic,
    found by selection rather than a full sort).  ``params.lam`` must be
    resolved (calibrated or overridden) before calling.
    """
    return likelihoods_from_distances(descriptor_distances(z, map_), params)


def likelihoods_from_distances(d: np.ndarray, params: MeasurementParams) -> np.ndarray:
    """:func:`likelihood_vector` on precomputed :func:`descriptor_distances`."""
    if params.lam is None:
        raise ValueError("likelihood_vector requires a resolved lam")
    with np.errstate(under="ignore"):
        g = np.exp(-params.lam * d)
    n = g.size
    k = order_stat_k(n, params)
    g_off = np.partition(g, n - k)[n - k]
    return np.concatenate([g, [g_off]])
