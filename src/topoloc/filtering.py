"""Scaled discrete Bayes filtering and forward-backward smoothing.

State layout
------------
Belief vectors have length ``N + 1``: entries ``0..N-1`` are map nodes in map
order, entry ``N`` is the off-map state.  Forward messages are kept scaled
(each sums to one) with the per-step scale constants ``c_t`` stored alongside;
their product is the total evidence.  The backward pass divides by the stored
``c_t`` (the standard scaled convention), so smoothed marginals are simply the
renormalized elementwise product of the two messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementDegenerateError
from .mapping import TopometricMap
from .motion import TransitionModel

__all__ = [
    "Belief",
    "Decision",
    "FilterTrace",
    "convergence_score",
    "decide",
    "forward_init",
    "forward_step",
    "init_belief",
    "run_forward",
    "smooth_pass",
]


@dataclass(frozen=True, eq=False)
class Belief:
    """A normalized posterior: per-node mass plus the off-map mass."""

    within: np.ndarray
    off: float

    def __post_init__(self):
        w = np.asarray(self.within, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("within must be a non-empty vector")
        if w.min() < -1e-12 or self.off < -1e-12:
            raise ValueError("belief entries must be non-negative")
        total = w.sum() + self.off
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"belief must sum to 1 within 1e-9, got {total}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "within", w)
        object.__setattr__(self, "off", float(self.off))

    @property
    def n_nodes(self) -> int:
        return self.within.size

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


@dataclass(eq=False)
class FilterTrace:
    """Everything the backward pass needs: messages, scales, models, likelihoods.

    ``alphas[t]`` is the scaled forward message after fusing frame ``t``;
    ``scales[t]`` the matching scale constant; ``models[t - 1]`` and
    ``likelihoods[t]`` the transition model into and likelihood vector of
    frame ``t`` (``likelihoods[0]`` pairs with the prior).
    """

    alphas: list[np.ndarray] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    models: list[TransitionModel] = field(default_factory=list)
    likelihoods: list[np.ndarray] = field(default_factory=list)

    def evidence(self) -> float:
        """Product of the scale constants: the total observation evidence."""
        return float(np.prod(self.scales))


def run_forward(prior: Belief, models, likelihoods) -> FilterTrace:
    """Run the scaled forward pass over aligned models and likelihoods.

    ``likelihoods`` has one vector per frame; ``models`` one transition model
    per step (one fewer).  Degenerate scales surface with the failing step
    index attached.
    """
    models = list(models)
    likelihoods = [np.asarray(g, dtype=float) for g in likelihoods]
    if len(likelihoods) != len(models) + 1:
        raise ValueError("need exactly one more likelihood vector than models")
    trace = FilterTrace()
    alpha, c = forward_init(prior, likelihoods[0])
    trace.alphas.append(alpha)
    trace.scales.append(c)
    trace.likelihoods.append(likelihoods[0])
    for t, (model, g) in enumerate(zip(models, likelihoods[1:]), start=1):
        try:
            alpha, c = forward_step(alpha, model, g)
        except MeasurementDegenerateError as exc:
            raise MeasurementDegenerateError(
                f"likelihood mass vanished at step {t}", step=t
            ) from exc
        trace.alphas.append(alpha)
        trace.scales.append(c)
        trace.models.append(model)
        trace.likelihoods.append(g)
    return trace


def smooth_pass(trace: FilterTrace) -> list[Belief]:
    """Backward smoothing over a completed forward trace.

    The terminal backward message is all ones; each step applies the
    transition and likelihood of the later frame and divides by that frame's
    stored scale constant.  Smoothed marginals are the renormalized products
    ``alpha_t * beta_t``; the final smoothed belief equals the final filtered
    one by construction.
    """
    n_frames = len(trace.alphas)
    if n_frames == 0:
        raise ValueError("cannot smooth an empty trace")
    if len(trace.models) != n_frames - 1 or len(trace.likelihoods) != n_frames:
        raise ValueError("trace is inconsistent")
    beta = np.ones_like(trace.alphas[-1])
    smoothed = [Belief.from_vector(trace.alphas[-1])]
    for t in range(n_frames - 1, 0, -1):
        weighted = trace.likelihoods[t] * beta
        beta = trace.models[t - 1].backpropagate(weighted) / trace.scales[t]
        product = trace.alphas[t - 1] * beta
        total = product.sum()
        if not total > 0.0:
            raise MeasurementDegenerateError(
                f"smoothed mass vanished at step {t - 1}", step=t - 1
            )
        smoothed.append(Belief.from_vector(product / total))
    smoothed.reverse()
    return smoothed


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of one convergence check: the mode node, its mass score, the verdict."""

    mode: int
    tau: float
    converged: bool


def convergence_score(
    belief: Belief, map_: TopometricMap, radius_m: float
) -> tuple[int, float]:
    """Mode node and the belief mass concentrated around it.

    The mode is the within-map argmax (off-map mass never wins; ties go to
    the lowest index).  ``tau`` sums the within-map mass over nodes whose
    index distance from the mode is at most ``round(radius_m /
    node_spacing)``; off-map mass is excluded, so a posterior drifting
    off-map suppresses convergence.
    """
    if belief.n_nodes != map_.n_nodes:
        raise ValueError("belief and map disagree on the number of nodes")
    if not radius_m >= 0.0:
        raise ValueError("radius_m must be non-negative")
    mode = int(np.argmax(belief.within))
    half_width = int(np.floor(radius_m / map_.node_spacing + 0.5))
    lo = max(0, mode - half_width)
    hi = min(belief.n_nodes, mode + half_width + 1)
    tau = float(belief.within[lo:hi].sum())
    return mode, tau


def decide(
    belief: Belief, map_: TopometricMap, radius_m: float, tau_thres: float
) -> Decision:
    """Convergence detection: propose the mode iff ``tau`` strictly exceeds the gate."""
    if not 0.0 <= tau_thres <= 1.0:
        raise ValueError("tau_thres must lie in [0, 1]")
    mode, tau = convergence_score(belief, map_, radius_m)
    return Decision(mode=mode, tau=tau, converged=tau > tau_thres)
