"""Brute-force reference implementations the unit tests check against.

Everything here trades efficiency for obviousness: posteriors by explicit
path enumeration, segment minima by dense grid search, the chi-square CDF by
numerical quadrature, and the one-pose-at-a-time forms of what the package
computes only on whole arrays, descriptor distances by explicit
differences, banded products by one slice product per diagonal offset,
ground-truth labels from the dense frame-by-node table and transition
probabilities by the softmax of every entry.  Most of it imports
nothing but the package's value types, so a bug in the library cannot hide
in its own oracle.  The exceptions are ``min_mahalanobis_on_segment(s)``,
thin wrappers over the library's segment kernel (``segment_directions``
followed by ``min_mahalanobis_on_directed_segments``) that let a test score
raw endpoint rows; a check that needs the kernel itself verified compares
against ``grid_min_mahalanobis`` instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from topoloc.errors import DataError
from topoloc.evaluate import GroundTruthLabel
from topoloc.geometry import (
    Covariance3,
    Pose2,
    min_mahalanobis_on_directed_segments,
    segment_directions,
    wrap_angle,
)
from topoloc.traverse import Traverse


def enumerate_marginals(prior, transitions, likelihoods):
    """Filtered and smoothed marginals plus evidence, by path enumeration.

    Parameters
    ----------
    prior : (S,) array
        Initial state distribution.
    transitions : list of (S, S) arrays
        Dense transition matrix per step, length T.
    likelihoods : list of (S,) arrays
        Observation likelihood per time, length T + 1.

    Returns
    -------
    filtered : (T+1, S) array
    smoothed : (T+1, S) array
    evidence : float
    """
    prior = np.asarray(prior, dtype=float)
    s = prior.size
    t_steps = len(transitions)
    assert len(likelihoods) == t_steps + 1

    def joint_over_paths(upto):
        # weight of every state sequence of length upto+1, indexed by the
        # cartesian grid of states per time
        paths = np.indices((s,) * (upto + 1)).reshape(upto + 1, -1)
        w = prior[paths[0]] * likelihoods[0][paths[0]]
        for t in range(1, upto + 1):
            w = w * transitions[t - 1][paths[t - 1], paths[t]]
            w = w * likelihoods[t][paths[t]]
        return paths, w

    filtered = np.zeros((t_steps + 1, s))
    for t in range(t_steps + 1):
        paths, w = joint_over_paths(t)
        marg = np.bincount(paths[t], weights=w, minlength=s)
        filtered[t] = marg / marg.sum()

    paths, w = joint_over_paths(t_steps)
    evidence = float(w.sum())
    smoothed = np.zeros((t_steps + 1, s))
    for t in range(t_steps + 1):
        marg = np.bincount(paths[t], weights=w, minlength=s)
        smoothed[t] = marg / marg.sum()
    return filtered, smoothed, evidence


def random_banded_model(rng, n, t_steps, window=3):
    """A random banded-plus-off-state HMM in dense matrix form.

    Mirrors the structure the filter consumes: state n is off-map, rows of
    the within block only reach forward up to ``window - 1`` nodes, the off
    row is a self-loop plus uniform re-entry.  Returns (prior, transitions,
    likelihoods) with dense (n+1, n+1) matrices.
    """
    s = n + 1
    p0_off = rng.uniform(0.0, 0.5)
    prior = np.full(s, (1.0 - p0_off) / n)
    prior[n] = p0_off

    transitions = []
    for _ in range(t_steps):
        m = np.zeros((s, s))
        for i in range(n):
            to_off = rng.uniform(0.0, 0.6)
            js = list(range(i + 1, min(i + window, n))) or [i]
            raw = rng.uniform(0.1, 1.0, size=len(js))
            raw = raw / raw.sum() * (1.0 - to_off)
            for j, p in zip(js, raw):
                m[i, j] = p
            m[i, n] = to_off
        off_self = rng.uniform(0.2, 0.95)
        m[n, :n] = (1.0 - off_self) / n
        m[n, n] = off_self
        transitions.append(m)

    likelihoods = [rng.uniform(0.05, 1.0, size=s) for _ in range(t_steps + 1)]
    return prior, transitions, likelihoods


def difference_distances(z, map_):
    """``||z - z_v||`` to every node by explicit differences, one query row at a time.

    ``z`` is ``(d,)`` or ``(T, d)``, as for ``measurement.descriptor_distances``.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = [np.linalg.norm(map_.descriptors_f64 - row, axis=1) for row in np.atleast_2d(z)]
    return np.array(rows) if z.ndim == 2 else rows[0]


def dense_label_ground_truth(query, map_, tol_m=5.0, tol_deg=30.0) -> GroundTruthLabel:
    """``label_ground_truth`` from the full ``(T, N)`` distance and heading tables."""
    if not query.has_gt:
        raise DataError("query traverse carries no ground truth")
    if map_.gt_poses is None:
        raise DataError("map carries no ground-truth node poses")
    if not (0.0 < tol_m < math.inf and 0.0 < tol_deg < math.inf):
        raise DataError("tolerances must be positive and finite")
    gt = query.gt_poses
    nodes = map_.gt_poses
    tol_rad = math.radians(tol_deg)
    dists = np.linalg.norm(gt[:, None, :2] - nodes[None, :, :2], axis=2)
    dheads = np.abs(wrap_angle(gt[:, None, 2] - nodes[None, :, 2]))
    ok = (dists <= tol_m) & (dheads <= tol_rad)
    within = ok.any(axis=1)
    masked = np.where(ok, dists, np.inf)
    true_node = np.where(within, np.argmin(masked, axis=1), -1).astype(int)
    ok_nodes = [np.flatnonzero(row) for row in ok]
    return GroundTruthLabel(
        within_map=within,
        true_node=true_node,
        ok_nodes=ok_nodes,
        tol_m=float(tol_m),
        tol_deg=float(tol_deg),
    )


def unmasked_transition_probs(table, to_off):
    """One step's ``within_probs`` from its ``(window, N)`` ``d2`` table (``+inf``
    off the edge set): ``exp(-0.5 (d2 - min))`` of every entry, normalised per
    node and scaled by ``1 - to_off``, in the builder's order of operations."""
    table = np.array(table, dtype=float)
    table -= table.min(axis=0)
    table *= -0.5
    with np.errstate(under="ignore"):
        np.exp(table, out=table)
    table /= table.sum(axis=0)
    table *= 1.0 - np.asarray(to_off, dtype=float)
    return table


def grid_min_mahalanobis(lo, hi, mean, cov_inv, n_grid=10_000):
    """Dense grid search for the segment minimum the closed form must match."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ss = np.linspace(0.0, 1.0, n_grid)
    pts = lo[None, :] + ss[:, None] * (hi - lo)[None, :]
    r = pts - np.asarray(mean, dtype=float)[None, :]
    d2 = np.einsum("ni,ij,nj->n", r, cov_inv, r)
    k = int(np.argmin(d2))
    return float(d2[k]), float(ss[k])


def chi2_cdf_3_quad(x):
    """CDF of the chi-square distribution with 3 dof via quadrature."""
    if x <= 0.0:
        return 0.0
    density = lambda u: np.sqrt(u) * np.exp(-u / 2.0) / np.sqrt(2.0 * np.pi)
    val, _ = quad(density, 0.0, x, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# scalar pose algebra


def compose(a: Pose2, b: Pose2) -> Pose2:
    """First ``a``, then ``b`` in ``a``'s end frame."""
    c = math.cos(a.dtheta)
    s = math.sin(a.dtheta)
    return Pose2(
        a.dx + c * b.dx - s * b.dy,
        a.dy + s * b.dx + c * b.dy,
        a.dtheta + b.dtheta,
    )


def inverse(a: Pose2) -> Pose2:
    """The relative pose undoing ``a``."""
    c = math.cos(a.dtheta)
    s = math.sin(a.dtheta)
    return Pose2(-(c * a.dx + s * a.dy), -(-s * a.dx + c * a.dy), -a.dtheta)


def relative(a: Pose2, b: Pose2) -> Pose2:
    """Pose of ``b`` in the frame of ``a`` (both given in one frame)."""
    return compose(inverse(a), b)


def interpolate_pose(a: Pose2, b: Pose2, s: float) -> Pose2:
    """Componentwise interpolation from ``a`` (s=0) to ``b`` (s=1), angle the short way."""
    ddt = wrap_angle(b.dtheta - a.dtheta)
    return Pose2(a.dx + s * (b.dx - a.dx), a.dy + s * (b.dy - a.dy), a.dtheta + s * ddt)


def mean_pose(a: Pose2, b: Pose2) -> Pose2:
    return interpolate_pose(a, b, 0.5)


def covariance_from_upper(entries) -> Covariance3:
    """Inverse of ``Covariance3.to_upper``: entries xx, xy, xt, yy, yt, tt."""
    xx, xy, xt, yy, yt, tt = (float(v) for v in entries)
    return Covariance3(np.array([[xx, xy, xt], [xy, yy, yt], [xt, yt, tt]]))


def precision(sigma: Covariance3) -> np.ndarray:
    """The inverse of a covariance, symmetrised as ``motion.build_transitions`` forms it."""
    prec = np.linalg.inv(sigma.matrix)
    return 0.5 * (prec + prec.T)


def mahalanobis_sq(x: Pose2, mu: Pose2, sigma: Covariance3) -> float:
    """Squared Mahalanobis distance of ``x`` from ``mu``, angular residual wrapped."""
    r = np.array([x.dx - mu.dx, x.dy - mu.dy, wrap_angle(x.dtheta - mu.dtheta)])
    return float(r @ precision(sigma) @ r)


def min_mahalanobis_on_segments(lo, hi, mu, sigma: Covariance3):
    """Segment minima for segments given as ``(K, 3)`` endpoint rows."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    assert lo.ndim == 2 and lo.shape[1] == 3 and lo.shape == hi.shape
    u, degenerate = segment_directions(lo.T, hi.T)
    if isinstance(mu, Pose2):
        mu = mu.as_array()
    return min_mahalanobis_on_directed_segments(lo.T, u, degenerate, mu, precision(sigma))


def min_mahalanobis_on_segment(a: Pose2, b: Pose2, mu: Pose2, sigma: Covariance3):
    """``(d2, s)`` of the single segment ``a``--``b``."""
    d2, s = min_mahalanobis_on_segments(a.as_array()[None], b.as_array()[None], mu, sigma)
    return float(d2[0]), float(s[0])


# ---------------------------------------------------------------------------
# one element of a map, a transition model or a traverse at a time


def rel_pose(map_, i: int, j: int) -> Pose2:
    """The band's relative pose from node ``i`` to node ``j``."""
    k = j - i
    if not (0 <= i < map_.n_nodes and 0 <= j < map_.n_nodes and 0 <= k < map_.window):
        raise DataError(f"rel_pose({i}, {j}) is outside the stored band")
    return Pose2(*map_.band[i, k])


def segment_endpoints(map_, i: int, j: int) -> tuple[Pose2, Pose2]:
    """The segment scored for edge ``i -> j``, from the band by its definition.

    Low end: midpoint of ``rel_pose(i, j-1)`` and ``rel_pose(i, j)``.  High
    end: midpoint of ``rel_pose(i, j)`` and ``rel_pose(i, j+1)``, or
    ``rel_pose(i, j)`` when ``j + 1`` is off the map or outside the band.
    """
    if not 1 <= j - i < map_.window or j >= map_.n_nodes:
        raise DataError(f"edge {i} -> {j} does not exist")
    cur = rel_pose(map_, i, j)
    lo = mean_pose(rel_pose(map_, i, j - 1), cur)
    if j + 1 < map_.n_nodes and j + 1 - i < map_.window:
        return lo, mean_pose(cur, rel_pose(map_, i, j + 1))
    return lo, cur


def segment_endpoint_rows(map_, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``segment_endpoints`` as raw ``(3,)`` rows, with the map's own midpoint arithmetic.

    The midpoint of rows ``a`` and ``b`` is ``0.5 * (a + b)`` with the angle
    set to ``a + 0.5 * wrap(b - a)`` and left unwrapped, as the map's edge
    geometry forms it, so the rows match its segments bit for bit.
    """
    if not 1 <= j - i < map_.window or j >= map_.n_nodes:
        raise DataError(f"edge {i} -> {j} does not exist")

    def midpoint(a, b):
        out = 0.5 * (a + b)
        out[2] = a[2] + 0.5 * wrap_angle(b[2] - a[2])
        return out

    band, k = map_.band, j - i
    lo = midpoint(band[i, k - 1], band[i, k])
    if j + 1 < map_.n_nodes and k + 1 < map_.window:
        return lo, midpoint(band[i, k], band[i, k + 1])
    return lo, band[i, k].copy()


def full_band(model) -> np.ndarray:
    """A model's ``(window, N)`` band, or a stack's ``(S, window, N)``, offset 0 first.

    Offset 0 is zero but for the final node's ``stay``; offsets 1 up are
    ``within_probs``.  This is the layout ``TransitionStack`` accepts.
    """
    within = np.asarray(model.within_probs, dtype=float)
    first = np.zeros(within.shape[:-2] + (1, model.n_nodes))
    first[..., 0, -1] = model.stay
    return np.concatenate([first, within], axis=-2)


def within(model, i: int) -> list[tuple[int, float]]:
    """Outgoing within-map transitions of node ``i`` as ``(j, prob)`` pairs."""
    band = full_band(model)
    return [(i + k, float(band[k, i])) for k in range(model.window) if model.valid[k, i]]


def off_out(model) -> float:
    """Per-node probability of leaving the off-map state into the map."""
    return (1.0 - model.off_self) / model.n_nodes


def to_dense(model) -> np.ndarray:
    """A transition model as its dense ``(N+1, N+1)`` matrix."""
    n = model.n_nodes
    dense = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j, p in within(model, i):
            dense[i, j] = p
    dense[:n, n] = model.to_off
    dense[n, :n] = off_out(model)
    dense[n, n] = model.off_self
    return dense


def slice_propagate(model, alpha: np.ndarray) -> np.ndarray:
    """``alpha @ E`` as one slice product per diagonal offset, summed from offset 0."""
    n, band = model.n_nodes, full_band(model)
    pred = np.zeros(n + 1)
    within = alpha[:n]
    for k in range(min(model.window, n)):
        if k == 0:
            pred[:n] += within * band[0]
        else:
            pred[k:n] += within[: n - k] * band[k, : n - k]
    pred[:n] += alpha[n] * off_out(model)
    pred[n] = within @ model.to_off + alpha[n] * model.off_self
    return pred


def slice_backpropagate(model, v: np.ndarray) -> np.ndarray:
    """``E @ v`` as one slice product per diagonal offset, summed from offset 0."""
    n, band = model.n_nodes, full_band(model)
    out = np.zeros(n + 1)
    v_within = v[:n]
    for k in range(min(model.window, n)):
        if k == 0:
            out[:n] += band[0] * v_within
        else:
            out[: n - k] += band[k, : n - k] * v_within[k:]
    out[:n] += model.to_off * v[n]
    out[n] = model.off_self * v[n] + off_out(model) * v_within.sum()
    return out


def slice_forward_backward(prior_vector, stack, likelihoods):
    """Scaled forward messages, scales and smoothed beliefs, one model per step.

    The forward and backward passes step through ``stack[t]`` models with
    :func:`slice_propagate` and :func:`slice_backpropagate`, in the same
    order of operations as ``filtering.run_forward`` and ``smooth_pass``.
    """
    alphas = np.empty(likelihoods.shape)
    scales = np.empty(len(likelihoods))
    raw = prior_vector * likelihoods[0]
    for t in range(len(likelihoods)):
        if t:
            raw = slice_propagate(stack[t - 1], alphas[t - 1])
            raw *= likelihoods[t]
        scales[t] = float(raw.sum())
        alphas[t] = raw / scales[t]
    smoothed = np.empty(alphas.shape)
    smoothed[-1] = alphas[-1]
    beta = np.ones(alphas.shape[1])
    for t in range(len(alphas) - 1, 0, -1):
        beta = slice_backpropagate(stack[t - 1], likelihoods[t] * beta) / scales[t]
        product = alphas[t - 1] * beta
        smoothed[t - 1] = product / product.sum()
    return alphas, scales, smoothed


def padded_convergence_scores(within: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes and taus of ``(T, N)`` rows, each window gathered from zero-padded rows.

    The mode is the first argmax; ``tau`` adds, in index order, the ``2 half
    + 1`` entries centred on it, with ``half`` zeros beyond either end.
    """
    n = within.shape[1]
    modes = np.argmax(within, axis=1)
    padded = np.zeros((len(within), n + 2 * half))
    padded[:, half : half + n] = within
    mass = padded[np.arange(len(within))[:, None], modes[:, None] + np.arange(2 * half + 1)]
    return modes, np.add.accumulate(mass, axis=1)[:, -1]


def traverse_of(frames) -> Traverse:
    """A traverse from ``(descriptor, odometry step or None, Pose2 or None)`` triples."""
    steps = [odom for _, odom, _ in frames[1:]]
    gts = [gt for _, _, gt in frames]
    return Traverse(
        np.stack([d for d, _, _ in frames]),
        np.array([s.mean.as_array() for s in steps]).reshape(-1, 3),
        np.array([s.cov.matrix for s in steps]).reshape(-1, 3, 3),
        None if gts[0] is None else np.array([g.as_array() for g in gts]),
    )
