"""Scaled discrete Bayes filtering and forward-backward smoothing.

State layout
------------
Belief vectors have length ``N + 1``: entries ``0..N-1`` are map nodes in map
order, entry ``N`` is the off-map state.  A whole query's messages are
``(T, N + 1)`` arrays with one row per frame, checked once per array.
Forward messages are kept scaled (each sums to one) with the per-step scale
constants ``c_t`` stored alongside; the sum of their logs is the log
evidence (their product underflows on queries of a few hundred frames).  The
backward pass divides by the stored ``c_t`` (the standard scaled
convention), so smoothed marginals are simply the renormalized elementwise
product of the two messages.  Both passes step through the stack's arrays
with one :class:`~topoloc.motion.BandKernel` each, building no per-step model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasurementDegenerateError
from .mapping import TopometricMap
from .motion import BandKernel, TransitionModel, TransitionStack

__all__ = [
    "Belief",
    "Decision",
    "FilterTrace",
    "convergence_scores",
    "decide",
    "forward_init",
    "forward_step",
    "init_belief",
    "run_forward",
    "smooth_pass",
    "tau_half_width",
]


def _check_beliefs(within: np.ndarray, off: np.ndarray) -> None:
    """Rows ``(T, N)`` of within-map mass and ``(T,)`` off-map masses are beliefs.

    Every entry is non-negative and every row sums to one within 1e-9.
    """
    if min(within.min(initial=0.0), off.min(initial=0.0)) < -1e-12:
        raise ValueError("belief entries must be non-negative")
    totals = within.sum(axis=1) + off
    miss = np.abs(totals - 1.0)
    if miss.max(initial=0.0) > 1e-9:
        raise ValueError(f"belief must sum to 1 within 1e-9, got {totals[np.argmax(miss > 1e-9)]}")


@dataclass(frozen=True, eq=False)
class Belief:
    """A normalized posterior: per-node mass plus the off-map mass."""

    within: np.ndarray
    off: float

    def __post_init__(self):
        w = np.asarray(self.within, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("within must be a non-empty vector")
        _check_beliefs(w[None], np.array([self.off], dtype=float))
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "within", w)
        object.__setattr__(self, "off", float(self.off))

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.within, [self.off]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "Belief":
        vec = np.asarray(vec, dtype=float)
        return cls(vec[:-1], float(vec[-1]))


def init_belief(n_nodes: int, p0_off: float) -> Belief:
    """Uniform within-map prior with ``p0_off`` initial off-map mass."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    if not 0.0 <= p0_off < 1.0:
        raise ValueError("p0_off must lie in [0, 1)")
    within = np.full(n_nodes, (1.0 - p0_off) / n_nodes)
    return Belief(within, p0_off)


def _normalize(raw: np.ndarray, step: int | None) -> tuple[np.ndarray, float]:
    c = float(raw.sum())
    if not c > 0.0:
        raise MeasurementDegenerateError(
            "likelihood mass vanished (scale constant is zero)"
            + (f" at step {step}" if step is not None else ""),
            step=step,
        )
    return raw / c, c


def forward_init(prior: Belief, g0: np.ndarray) -> tuple[np.ndarray, float]:
    """Fold the first measurement into the prior: ``alpha_0 = prior * g_0``.

    Returns the scaled message and its scale constant ``c_0``.
    """
    raw = prior.vector * np.asarray(g0, dtype=float)
    return _normalize(raw, step=0)


def forward_step(
    alpha_prev: np.ndarray, model: TransitionModel, g: np.ndarray
) -> tuple[np.ndarray, float]:
    """One scaled forward update: propagate, weight, renormalize.

    ``alpha_prev`` is the previous scaled message (length ``N + 1``).
    Raises :class:`MeasurementDegenerateError` when the normalizer hits zero.
    """
    predicted = model.propagate(np.asarray(alpha_prev, dtype=float))
    raw = predicted * np.asarray(g, dtype=float)
    return _normalize(raw, step=None)


@dataclass(frozen=True, eq=False)
class FilterTrace:
    """Everything the backward pass needs, as whole-query arrays.

    ``alphas[t]`` is the scaled forward message after fusing frame ``t``
    (``(T, N + 1)``); ``scales[t]`` the matching scale constant (``(T,)``);
    ``transitions[t - 1]`` and ``likelihoods[t]`` the transition model into
    and likelihood row of frame ``t`` (``likelihoods[0]`` pairs with the
    prior).  :func:`smooth_pass` consumes the forward messages: it writes the
    smoothed beliefs over ``alphas``.
    """

    alphas: np.ndarray
    scales: np.ndarray
    transitions: TransitionStack
    likelihoods: np.ndarray

    def log_evidence(self) -> float:
        """``sum(log c_t)``: the log of the total observation evidence."""
        return float(np.log(self.scales).sum())


def run_forward(prior: Belief, transitions: TransitionStack, likelihoods) -> FilterTrace:
    """Run the scaled forward pass over a query's transitions and likelihoods.

    ``likelihoods`` is ``(T, N + 1)``, one row per frame; ``transitions``
    holds one step fewer.  Degenerate scales surface with the failing step
    index attached.
    """
    likelihoods = np.asarray(likelihoods, dtype=float)
    if likelihoods.ndim != 2 or len(likelihoods) != len(transitions) + 1:
        raise ValueError("need exactly one more likelihood row than transition steps")
    alphas = np.empty(likelihoods.shape)
    scales = np.empty(len(likelihoods))
    alphas[0], scales[0] = forward_init(prior, likelihoods[0])
    band = BandKernel(transitions.window, transitions.n_nodes)
    for t in range(1, len(likelihoods)):
        raw = band.forward(transitions, t - 1, alphas[t - 1])
        raw *= likelihoods[t]
        alphas[t], scales[t] = _normalize(raw, step=t)
    _check_beliefs(alphas[:, :-1], alphas[:, -1])
    return FilterTrace(alphas, scales, transitions, likelihoods)


def smooth_pass(trace: FilterTrace) -> np.ndarray:
    """Backward smoothing over a completed forward trace: ``(T, N + 1)`` beliefs.

    The terminal backward message is all ones; each step applies the
    transition and likelihood of the later frame and divides by that frame's
    stored scale constant.  Smoothed marginals are the renormalized products
    ``alpha_t * beta_t``; the final smoothed belief equals the final filtered
    one by construction.  The call consumes the forward messages: row ``t``
    of ``trace.alphas`` is overwritten by its smoothed belief once the pass
    has read it, and ``trace.alphas`` itself is returned.  ``trace.scales``
    is left as it was.
    """
    alphas = trace.alphas
    n_frames = len(alphas)
    if n_frames == 0:
        raise ValueError("cannot smooth an empty trace")
    if len(trace.transitions) != n_frames - 1 or trace.likelihoods.shape != alphas.shape:
        raise ValueError("trace is inconsistent")
    beta = np.ones(alphas.shape[1])
    band = BandKernel(trace.transitions.window, trace.transitions.n_nodes)
    for t in range(n_frames - 1, 0, -1):
        weighted = trace.likelihoods[t] * beta
        beta = band.backward(trace.transitions, t - 1, weighted) / trace.scales[t]
        product = alphas[t - 1] * beta
        total = product.sum()
        if not total > 0.0:
            raise MeasurementDegenerateError(
                f"smoothed mass vanished at step {t - 1}", step=t - 1
            )
        np.divide(product, total, out=alphas[t - 1])
    _check_beliefs(alphas[:, :-1], alphas[:, -1])
    return alphas


# Rows per argmax in convergence_scores.
_ARGMAX_ROWS = 64


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of one convergence check: the mode node, its mass score, the verdict."""

    mode: int
    tau: float
    converged: bool


def convergence_scores(
    within: np.ndarray, map_: TopometricMap, radius_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mode node and the belief mass concentrated around it, for each row.

    ``within`` holds the within-map part of ``T`` beliefs, ``(T, N)``.  The
    mode is the argmax (off-map mass never wins; ties go to the lowest
    index).  ``tau`` sums the mass over nodes whose index distance from the
    mode is at most ``round(radius_m / node_spacing)``, in index order;
    off-map mass is excluded, so a posterior drifting off-map suppresses
    convergence.  Returns the ``(T,)`` arrays ``(modes, taus)``.
    """
    n = map_.n_nodes
    if within.ndim != 2 or within.shape[1] != n:
        raise ValueError("beliefs and map disagree on the number of nodes")
    modes = np.empty(len(within), dtype=np.intp)
    for lo in range(0, len(within), _ARGMAX_ROWS):  # argmax copies a strided view: a block at once
        modes[lo : lo + _ARGMAX_ROWS] = within[lo : lo + _ARGMAX_ROWS].argmax(axis=1)
    half = tau_half_width(map_, radius_m)
    nodes = modes[:, None] + np.arange(-half, half + 1)
    inside = (0 <= nodes) & (nodes < n)  # nodes beyond either end count as exact zeros
    mass = np.where(inside, within[np.arange(len(within))[:, None], nodes.clip(0, n - 1)], 0.0)
    taus = np.add.accumulate(mass, axis=1)[:, -1]
    return modes, taus


def tau_half_width(map_: TopometricMap, radius_m: float) -> int:
    """Nodes either side of the mode in ``tau``: ``radius_m`` in spacings, at most ``N - 1``."""
    if not radius_m >= 0.0:
        raise ValueError("radius_m must be non-negative")
    return min(math.floor(radius_m / map_.node_spacing + 0.5), map_.n_nodes - 1)


def decide(
    belief: Belief, map_: TopometricMap, radius_m: float, tau_thres: float
) -> Decision:
    """Convergence detection: propose the mode iff ``tau`` strictly exceeds the gate.

    One belief's :func:`convergence_scores`.
    """
    if not 0.0 <= tau_thres <= 1.0:
        raise ValueError("tau_thres must lie in [0, 1]")
    modes, taus = convergence_scores(belief.within[None], map_, radius_m)
    tau = float(taus[0])
    return Decision(mode=int(modes[0]), tau=tau, converged=tau > tau_thres)
