"""Appearance likelihoods: exponential kernel over descriptor distances.

A query descriptor ``z`` scores node ``v`` as ``exp(-lam * ||z - z_v||)``.
The kernel rate ``lam`` is either supplied or calibrated from the first
query frame so that the mean reference distance scores ``1 / rho`` relative
to the best match.  The off-map state receives the k-th largest within-map
likelihood: high enough that it competes when nothing stands out, low enough
that a clear match wins.

Distances are computed as matrix products, ``||z||^2 + ||z_v||^2 - 2 z . z_v``
with the map's squared norms cached, so a whole query costs one stacked
product of one row against the map per frame (Johnson, Douze & Jegou,
"Billion-scale similarity search with GPUs", 2019).
That form cancels catastrophically when ``z`` is close to ``z_v``: a query
equal to a map descriptor scores 1e-8 to 1e-7 instead of 0, and clamping at
0 does not help, so the noiseless scenario's taus would move by about
1e-10.  Every entry whose squared distance is below ``_GUARD`` times
``||z||^2 + ||z_v||^2`` is therefore recomputed in the difference form
``||z - z_v||``: 2.75e-4 of the entries on the noiseless S0, none on S1-S3.
The kernel rate is calibrated on the difference form of its one frame, so it
does not depend on how a run batches its distances.

Each row is its own ``(1, d) @ (d, N)`` product, so a stack of rows is computed
in blocks of ``_ROW_BLOCK`` rows that one thread per CPU the process may run on
takes from a shared queue, each block writing its rows of one output array,
with the bits of one serial pass; a stack of at most one block runs inline.
Likelihood rows, each its own ``exp`` and selection, run in the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import run_blocks
from .mapping import TopometricMap

__all__ = [
    "MeasurementParams", "calibrate_lambda", "descriptor_distances",
    "likelihood_vector", "likelihoods_from_distances", "order_stat_k",
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


# Relative size of a squared distance, against ||z||^2 + ||z_v||^2, below
# which the matrix-product form has lost too many digits to cancellation.
_GUARD = 1e-4
# Guarded entries recomputed per pass, bounding the (entries, d) temporary.
_GUARD_BLOCK = 4096
# Query rows per block of work a thread takes.
_ROW_BLOCK = 32


def _difference_distances(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``||rows - z||`` along the last axis: the form that loses no digits near zero."""
    return np.linalg.norm(rows - z, axis=-1)


def _query_rows(z, map_: TopometricMap) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != map_.descriptor_dim:
        raise ValueError(
            f"descriptor dimension mismatch: query {z.shape}, map {map_.descriptor_dim}"
        )
    return z


def descriptor_distances(z: np.ndarray, map_: TopometricMap) -> np.ndarray:
    """Distances ``||z - z_v||`` to every node: ``(d,)`` gives ``(N,)``, ``(T, d)`` ``(T, N)``.

    Row-exact: one ``(1, d) @ (d, N)`` product per row, so a row's bits do not depend
    on the stack it is in (a GEMM rounds by row count).  Near-zero entries are
    recomputed in the difference form (see the module notes).  Blocks of rows
    run across the CPUs, with the same bits as one serial pass.
    """
    z = _query_rows(z, map_)
    zs = np.atleast_2d(z)
    refs, ref_sq = map_.descriptors_f64, map_.descriptor_sq_norms
    out = np.empty((len(zs), len(refs)))

    def rows(lo, hi):
        q, d = zs[lo:hi], out[lo:hi]
        scale = np.add.outer(np.einsum("ij,ij->i", q, q), ref_sq)
        np.matmul(q[:, None, :], refs.T, out=d[:, None, :])
        d *= -2.0
        d += scale
        scale *= _GUARD
        r, c = np.nonzero(d < scale)
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        for at in range(0, r.size, _GUARD_BLOCK):
            rr, cc = r[at : at + _GUARD_BLOCK], c[at : at + _GUARD_BLOCK]
            d[rr, cc] = _difference_distances(q[rr], refs[cc])

    run_blocks(rows, len(zs), _ROW_BLOCK)
    return out if z.ndim == 2 else out[0]


def calibrate_lambda(z0: np.ndarray, map_: TopometricMap, rho: float) -> float:
    """Kernel rate from the first query frame's reference distances.

    ``lam = ln(rho) / (d_mean - d_min)`` over the difference-form distances
    of ``z0``; a degenerate spread (below 1e-9) falls back to ``lam = 1``.
    """
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    z0 = _query_rows(z0, map_)
    if z0.ndim != 1:
        raise ValueError("calibrate_lambda takes one descriptor")
    d = _difference_distances(z0, map_.descriptors_f64)
    spread = float(d.mean() - d.min())
    if spread < 1e-9:
        return 1.0
    return math.log(rho) / spread


def likelihood_vector(
    z: np.ndarray, map_: TopometricMap, params: MeasurementParams
) -> np.ndarray:
    """Unnormalized likelihoods over the ``N`` nodes plus the off-map state.

    A descriptor ``(d,)`` gives a vector of length ``N + 1`` with the
    off-map entry last, and a query's descriptors ``(T, d)`` one such row
    per frame.  The off-map entry equals the k-th largest within-map value
    (an order statistic, found by selection rather than a full sort).
    ``params.lam`` must be resolved (calibrated or overridden) before
    calling.
    """
    return likelihoods_from_distances(descriptor_distances(z, map_), params)


def likelihoods_from_distances(d: np.ndarray, params: MeasurementParams) -> np.ndarray:
    """:func:`likelihood_vector` on precomputed :func:`descriptor_distances`.

    Works row by row: ``(N,)`` distances give ``(N + 1,)`` likelihoods and
    ``(T, N)`` give ``(T, N + 1)``, in blocks of ``_ROW_BLOCK`` rows across
    the CPUs with the bits of one serial pass.
    """
    if params.lam is None:
        raise ValueError("likelihood_vector requires a resolved lam")
    n = d.shape[-1]
    g = np.empty(d.shape[:-1] + (n + 1,))
    k = order_stat_k(n, params)
    d_rows, g_rows = d.reshape(-1, n), g.reshape(-1, n + 1)

    def rows(lo, hi):
        part = g_rows[lo:hi]
        with np.errstate(under="ignore"):
            np.exp(-params.lam * d_rows[lo:hi], out=part[:, :n])
        part[:, n] = np.partition(part[:, :n], n - k, axis=-1)[:, n - k]

    run_blocks(rows, len(d_rows), _ROW_BLOCK)
    return g
