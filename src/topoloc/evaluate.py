"""Ground-truth labeling and precision-recall scoring.

A query frame is labeled within-map when some map node lies within both the
translation and the heading tolerance of its ground-truth pose (defaults
``LABEL_TOL_M`` and ``LABEL_TOL_DEG``); only nodes a sweep over x finds near
the frame are tested.  Proposals are judged by ground-truth pose distance,
never by node-index equality: the label records, per frame, the full set of
acceptable nodes.  Any proposal on a frame labeled off-map counts as a false
positive regardless of the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .geometry import wrap_angle
from .mapping import TopometricMap
from .tasks import LcdResult, WakeupResult
from .traverse import Traverse

__all__ = [
    "LABEL_TOL_DEG",
    "LABEL_TOL_M",
    "GroundTruthLabel",
    "PrCurve",
    "WakeupScore",
    "label_ground_truth",
    "recall_at_precision",
    "score_lcd",
    "score_wakeup",
]

# Default label tolerances (metres, degrees), also the CLI's for ``eval`` and ``run``.
LABEL_TOL_M = 5.0
LABEL_TOL_DEG = 30.0


@dataclass(eq=False)
class GroundTruthLabel:
    """Per-frame ground-truth verdicts against a map.

    ``ok_nodes[t]`` lists every node acceptable as a proposal for frame
    ``t``; ``true_node[t]`` is the nearest of them by translation (-1 when
    the frame is off-map).
    """

    within_map: np.ndarray
    true_node: np.ndarray
    ok_nodes: list[np.ndarray]
    tol_m: float
    tol_deg: float

    def __len__(self) -> int:
        return self.within_map.size


def label_ground_truth(
    query: Traverse,
    map_: TopometricMap,
    tol_m: float = LABEL_TOL_M,
    tol_deg: float = LABEL_TOL_DEG,
) -> GroundTruthLabel:
    """Label every query frame against the map's ground-truth node poses.

    Only nodes within ``tol_m`` of a frame's x, found by ``searchsorted`` on the
    x-sorted nodes, take the dense ``(T, N)`` table's exact test, so the labels
    are its labels; a route along one x makes that whole table the candidates.
    """
    if not query.has_gt:
        raise DataError("query traverse carries no ground truth")
    if map_.gt_poses is None:
        raise DataError("map carries no ground-truth node poses")
    if not (0.0 < tol_m < math.inf and 0.0 < tol_deg < math.inf):
        raise DataError("tolerances must be positive and finite")
    gt = query.gt_poses
    nodes = map_.gt_poses
    tol_rad = math.radians(tol_deg)
    by_x = np.argsort(nodes[:, 0], kind="stable")
    xs, reach = nodes[by_x, 0], tol_m * (1.0 + 1e-9)  # the margin only adds candidates
    lo = np.searchsorted(xs, gt[:, 0] - reach)
    counts = np.searchsorted(xs, gt[:, 0] + reach, side="right") - lo
    t = np.repeat(np.arange(len(gt)), counts)
    v = by_x[np.arange(t.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    d = np.linalg.norm(gt[t, :2] - nodes[v, :2], axis=1)  # the dense table's expressions
    ok = (d <= tol_m) & (np.abs(wrap_angle(gt[t, 2] - nodes[v, 2])) <= tol_rad)
    order = np.flatnonzero(ok)[np.lexsort((v[ok], t[ok]))]
    t, v, d = t[order], v[order], d[order]
    counts = np.bincount(t, minlength=len(gt))
    within, starts = counts > 0, np.cumsum(counts) - counts
    ok_nodes = np.split(v, starts[1:])
    true_node = np.full(len(gt), -1)
    true_node[within] = v[np.lexsort((d, t))[starts[within]]]  # stable: ties go to the lowest node
    return GroundTruthLabel(
        within_map=within,
        true_node=true_node,
        ok_nodes=ok_nodes,
        tol_m=float(tol_m),
        tol_deg=float(tol_deg),
    )


@dataclass(eq=False)
class PrCurve:
    """A precision-recall sweep with raw counts per operating point.

    Thresholds are finite and strictly increasing, and precision and recall
    are finite; a point's proposals are the items whose score strictly
    exceeds its threshold.  Empty-proposal points take precision 1.0 and
    recall 0.0 by convention.
    """

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    def __post_init__(self):
        k = self.thresholds.size
        for name in ("precision", "recall", "tp", "fp", "fn", "tn"):
            if getattr(self, name).size != k:
                raise ValueError(f"{name} length mismatch")
        for name in ("thresholds", "precision", "recall"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not np.all(np.diff(self.thresholds) > 0.0):
            raise ValueError("thresholds must be strictly increasing")
        totals = self.tp + self.fp + self.fn + self.tn
        if k and np.any(totals != totals[0]):
            raise ValueError("confusion counts must partition the item set")

    @property
    def n_items(self) -> int:
        if self.thresholds.size == 0:
            return 0
        return int(self.tp[0] + self.fp[0] + self.fn[0] + self.tn[0])


def _sweep(taus, can_propose, correct, gt_within) -> PrCurve:
    taus = np.asarray(taus, dtype=float)
    can_propose = np.asarray(can_propose, dtype=bool)
    correct = np.asarray(correct, dtype=bool) & can_propose
    gt_within = np.asarray(gt_within, dtype=bool)
    n = taus.size
    order = np.argsort(taus, kind="stable")
    sorted_tau = taus[order]

    def suffix(flags):
        return np.concatenate([np.cumsum(flags[order][::-1])[::-1], [0]])

    suf_prop = suffix(can_propose)
    suf_tp = suffix(correct)
    suf_prop_within = suffix(can_propose & gt_within)
    total_within = int(gt_within.sum())
    total_off = n - total_within

    thresholds = np.concatenate([[-1.0], np.unique(sorted_tau)])
    idx = np.searchsorted(sorted_tau, thresholds, side="right")
    tp = suf_tp[idx]
    prop = suf_prop[idx]
    fp = prop - tp
    fn = total_within - suf_prop_within[idx]
    tn = total_off - (prop - suf_prop_within[idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(prop > 0, tp / np.maximum(prop, 1), 1.0)
        recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    return PrCurve(
        thresholds=thresholds,
        precision=precision.astype(float),
        recall=recall.astype(float),
        tp=tp.astype(int),
        fp=fp.astype(int),
        fn=fn.astype(int),
        tn=tn.astype(int),
    )


def _acceptable(labels: GroundTruthLabel, frames: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """Whether each proposal is acceptable at its frame, by one ``isin`` of pair keys."""
    nodes = np.concatenate([np.empty(0, dtype=int), *labels.ok_nodes])
    pairs = np.repeat(np.arange(len(labels)), [len(ok) for ok in labels.ok_nodes])
    width = max(int(nodes.max(initial=0)), int(proposals.max(initial=0))) + 1
    return np.isin(frames * width + proposals, pairs * width + nodes)


def score_lcd(result: LcdResult, labels: GroundTruthLabel) -> PrCurve:
    """PR curve for a loop-closure run, sweeping over all observed tau values.

    At each threshold a frame proposes its recorded mode node iff its tau
    strictly exceeds the threshold; a proposal is correct iff the node is
    acceptable for the frame under the label tolerances.
    """
    if len(result.frames) != len(labels):
        raise DataError("result and labels disagree on the frame count")
    proposals = result.proposals()
    if (proposals < 0).any():
        raise DataError(f"frame {int(np.argmax(proposals < 0))} proposes a negative node")
    correct = _acceptable(labels, np.arange(len(labels)), proposals)
    can = np.ones(len(labels), dtype=bool)
    return _sweep(result.taus(), can, correct, labels.within_map)


@dataclass(eq=False)
class WakeupScore:
    """PR curve over wakeup trials plus the distance-to-convergence summary."""

    curve: PrCurve
    _taus: np.ndarray = field(repr=False)
    _can: np.ndarray = field(repr=False)
    _distances: np.ndarray = field(repr=False)

    def mean_distance_at(self, p: float) -> float | None:
        """Mean distance traveled by proposing trials at the best operating
        point with precision >= p; ``None`` when no point qualifies."""
        c = self.curve
        eligible = np.flatnonzero(c.precision >= p)
        if eligible.size == 0:
            return None
        best = eligible[np.argmax(c.recall[eligible])]
        mask = self._can & (self._taus > c.thresholds[best])
        if not mask.any():
            return None
        return float(self._distances[mask].mean())


def score_wakeup(results: list[WakeupResult], labels: GroundTruthLabel) -> WakeupScore:
    """Score wakeup trials: converged-and-correct is a true positive.

    A trial that never converged counts against recall when its decision
    frame is within the map (a missed localization) and as a true negative
    when it is off-map.  The sweep re-thresholds the recorded tau of
    converged trials; unconverged trials never propose.
    """
    short = [r for r in results if r.steps_used < 1]
    if short:
        raise DataError(f"trial {short[0].trial} steps_used {short[0].steps_used} is below 1")
    frames = np.array([r.start + r.steps_used for r in results], dtype=int)
    outside = np.flatnonzero((frames < 0) | (frames >= len(labels)))
    if outside.size:
        raise DataError(f"trial {results[outside[0]].trial} decision frame outside the labels")
    can = np.array([r.converged for r in results], dtype=bool)
    proposals = np.array([-1 if r.proposal is None else r.proposal for r in results], dtype=int)
    bad = np.flatnonzero(can & (proposals < 0))
    if bad.size:
        r = results[bad[0]]
        raise DataError(f"trial {r.trial} converged with proposal {r.proposal}, not a node")
    correct = can & _acceptable(labels, frames, proposals)
    taus = np.array([r.tau for r in results], dtype=float)
    dist = np.array([r.distance_traveled for r in results], dtype=float)
    curve = _sweep(taus, can, correct, labels.within_map[frames])
    return WakeupScore(curve=curve, _taus=taus, _can=can, _distances=dist)


def recall_at_precision(curve: PrCurve, p: float) -> float:
    """Maximum recall among operating points with precision >= p (0.0 if none)."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    mask = curve.precision >= p
    if not mask.any():
        return 0.0
    return float(curve.recall[mask].max())
