"""Correctness checks on the program's outputs.

Each check recomputes what it can without the program's own code (ground
truth labels, recall at precision, likelihoods, odometry distances, tau) or
tests a property the method must have, and raises :class:`CheckError` on the
first disagreement.  Nothing here calls ``topoloc``.
"""

from __future__ import annotations

import math

import numpy as np

TOL_M = 5.0
TOL_DEG = 30.0
PRECISIONS = (0.90, 0.95, 0.99)


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message: str):
    if not ok:
        raise CheckError(message)


# -- ground truth and precision-recall --------------------------------------


def own_labels(query_gt: np.ndarray, node_gt: np.ndarray):
    """Acceptable nodes per query frame: within 5 m and 30 degrees of its pose.

    Returns ``(ok, within, nearest)``: the (T, N) acceptability matrix, the
    per-frame within-map flag, and the nearest acceptable node (-1 if none).
    """
    dx = query_gt[:, None, 0] - node_gt[None, :, 0]
    dy = query_gt[:, None, 1] - node_gt[None, :, 1]
    dist = np.hypot(dx, dy)
    dtheta = query_gt[:, None, 2] - node_gt[None, :, 2]
    heading_err = np.abs(np.arctan2(np.sin(dtheta), np.cos(dtheta)))
    ok = (dist <= TOL_M) & (heading_err <= math.radians(TOL_DEG))
    within = ok.any(axis=1)
    nearest = np.where(within, np.where(ok, dist, np.inf).argmin(axis=1), -1)
    return ok, within, nearest


def check_labels(labels, ok, within, nearest):
    """The program's labels agree with :func:`own_labels` frame for frame."""
    _require(len(labels.ok_nodes) == ok.shape[0], "label count differs from frame count")
    _require(
        np.array_equal(np.asarray(labels.within_map, dtype=bool), within),
        "within-map labels differ from the recomputed ones",
    )
    _require(
        np.array_equal(np.asarray(labels.true_node), nearest),
        "nearest-node labels differ from the recomputed ones",
    )
    for t, nodes in enumerate(labels.ok_nodes):
        _require(
            np.array_equal(np.asarray(nodes), np.flatnonzero(ok[t])),
            f"acceptable nodes of frame {t} differ from the recomputed ones",
        )


def own_recall_at_precision(taus, proposals, ok, within) -> dict[float, float]:
    """Best recall at each precision in ``PRECISIONS`` over all tau thresholds.

    A frame proposes its mode when its tau exceeds the threshold; the
    proposal is a true positive when the node is acceptable for the frame,
    otherwise a false positive.  A within-map frame that does not propose is
    a false negative.  Thresholds are -1 (everything proposes) and every
    observed tau; precision is 1 when nothing is proposed.
    """
    taus = np.asarray(taus, dtype=float)
    correct = ok[np.arange(len(taus)), np.asarray(proposals)]
    points = []
    for thr in [-1.0, *sorted(set(taus.tolist()))]:
        proposed = taus > thr
        tp = int(np.sum(proposed & correct))
        fp = int(np.sum(proposed & ~correct))
        fn = int(np.sum(~proposed & within))
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        points.append((precision, recall))
    return {
        p: max((r for prec, r in points if prec >= p), default=0.0) for p in PRECISIONS
    }


def check_recalls(program: dict, own: dict):
    for p in PRECISIONS:
        _require(
            abs(program[p] - own[p]) <= 1e-12,
            f"recall at precision {p}: program {program[p]}, recomputed {own[p]}",
        )


# -- loop-closure detection --------------------------------------------------


def check_lcd_result(result, n_frames: int, n_nodes: int):
    """One record per query frame in order, tau in [0, 1], mode mass <= tau."""
    frames = result.frames
    _require(len(frames) == n_frames, f"{len(frames)} records for {n_frames} frames")
    for i, fr in enumerate(frames):
        _require(fr.t == i, f"record {i} carries t={fr.t}")
        _require(0.0 <= fr.tau <= 1.0, f"frame {i}: tau {fr.tau} outside [0, 1]")
        _require(fr.mode_mass <= fr.tau, f"frame {i}: mode mass exceeds tau")
        _require(
            isinstance(fr.proposal, (int, np.integer)) and 0 <= fr.proposal < n_nodes,
            f"frame {i}: proposal {fr.proposal} is not a node",
        )


def check_lcd_readback(result, readback):
    """The results file read back holds exactly the in-memory result."""
    _require(readback.lam == result.lam, "lambda differs after the round trip")
    _require(len(readback.frames) == len(result.frames), "frame count differs after the round trip")
    for a, b in zip(result.frames, readback.frames):
        _require(
            (a.t, a.proposal, a.tau, a.mode_mass) == (b.t, b.proposal, b.tau, b.mode_mass),
            f"frame {a.t} differs after the round trip",
        )


# -- wakeup -----------------------------------------------------------------


def odometry_norms(query) -> np.ndarray:
    """Translation norm of each frame's odometry mean; 0 for the first frame."""
    return np.array(
        [0.0] + [math.sqrt(f.odom.mean.dx**2 + f.odom.mean.dy**2) for f in query.frames[1:]]
    )


def check_wakeup_batch(results, n_trials, n_frames, max_steps, tau_thres, norms):
    """Structural and arithmetic properties of one batch of wakeup trials."""
    _require(len(results) == n_trials, f"{len(results)} results for {n_trials} trials")
    for i, r in enumerate(results):
        where = f"trial {i}"
        _require(r.trial == i, f"{where}: returned as trial {r.trial}")
        _require(0 <= r.start < n_frames - 1, f"{where}: start {r.start} out of range")
        budget = min(max_steps, n_frames - 1 - r.start)
        _require(1 <= r.steps_used <= budget, f"{where}: {r.steps_used} steps used")
        _require(
            r.converged == (r.tau > tau_thres),
            f"{where}: converged={r.converged} with tau {r.tau}",
        )
        _require(
            (r.proposal is not None) == r.converged,
            f"{where}: proposal {r.proposal} with converged={r.converged}",
        )
        _require(r.converged or r.steps_used == budget, f"{where}: stopped early unconverged")
        expected = math.fsum(norms[r.start + 1 : r.start + r.steps_used + 1])
        _require(
            abs(r.distance_traveled - expected) <= 1e-9 * max(1.0, expected),
            f"{where}: distance {r.distance_traveled}, recomputed {expected}",
        )


def check_same_trial(record, rerun):
    _require(record == rerun, f"trial {record.trial} differs when rerun alone: {rerun}")


def on_map_unconverged(r, within, max_steps) -> bool:
    """The wakeup fault: all ``max_steps + 1`` frames on the map, yet no convergence."""
    window = within[r.start : r.start + max_steps + 1]
    return len(window) == max_steps + 1 and bool(window.all()) and not r.converged


# -- filtering and measurement ----------------------------------------------


def check_belief(vec):
    vec = np.asarray(vec, dtype=float)
    _require(np.all(np.isfinite(vec)), "belief has a non-finite entry")
    _require(vec.min() >= 0.0, "belief has a negative entry")
    _require(abs(math.fsum(vec) - 1.0) <= 1e-9, f"belief sums to {math.fsum(vec)}")


def check_propagated_mass(pred):
    total = math.fsum(np.asarray(pred, dtype=float))
    _require(abs(total - 1.0) <= 1e-9, f"propagation moved mass: total {total}")


def off_map_rank(n_nodes: int, k_frac: float, k_min: int) -> int:
    """Rank k of the off-map likelihood: ceil(k_frac * N), clamped to [k_min, N]."""
    return min(n_nodes, max(math.ceil(k_frac * n_nodes), k_min))


def check_likelihood(g, z, descriptors, lam: float, k: int):
    """``exp(-lam * ||z - d_v||)`` per node, and the k-th largest for off-map."""
    d = np.asarray(descriptors, dtype=np.float64) - np.asarray(z, dtype=np.float64)
    expected = np.exp(-lam * np.sqrt(np.einsum("ij,ij->i", d, d)))
    expected = np.append(expected, np.sort(expected)[-k])
    g = np.asarray(g, dtype=float)
    _require(g.shape == expected.shape, f"likelihood has shape {g.shape}")
    err = np.abs(g - expected) / np.maximum(np.abs(expected), 1e-300)
    _require(err.max() <= 1e-9, f"likelihood off by {err.max():.3g} relative")


def check_tau(tau: float, mode: int, within, half_width: int):
    """Tau is the within-map mass in the window around the belief's argmax."""
    within = np.asarray(within, dtype=float)
    _require(mode == int(np.argmax(within)), f"mode {mode} is not the argmax")
    lo, hi = max(0, mode - half_width), min(len(within), mode + half_width + 1)
    expected = math.fsum(within[lo:hi])
    _require(abs(tau - expected) <= 1e-12, f"tau {tau}, recomputed {expected}")
