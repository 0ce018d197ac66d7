"""Task harnesses: offline loop-closure detection and global wakeup.

Loop-closure detection runs the full pipeline over a query traverse:
likelihoods for every frame, transition models for every step, one forward
pass, one backward pass, then a convergence decision per frame on the
smoothed (or, for the ablation, the filtered) beliefs.  The recorded tau
values drive offline threshold sweeps.

Wakeup starts from a uniform prior at an unknown query position and filters
forward until the belief concentrates or the step budget runs out.  The
first decision happens after the first motion-and-measurement update, never
on the prior alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .filtering import (
    Belief,
    decide,
    forward_init,
    forward_step,
    init_belief,
    run_forward,
    smooth_pass,
)
from .mapping import TopometricMap
from .measurement import MeasurementParams, calibrate_lambda, likelihood_vector
from .motion import MotionParams, TransitionModel, build_transition_model
from .traverse import Traverse

__all__ = [
    "LcdFrame",
    "LcdResult",
    "PipelineParams",
    "WakeupResult",
    "run_lcd",
    "run_wakeup",
    "run_wakeup_batch",
]


@dataclass(frozen=True)
class PipelineParams:
    """Everything inference needs beyond the map and the query."""

    motion: MotionParams = field(default_factory=MotionParams)
    measurement: MeasurementParams = field(default_factory=MeasurementParams)
    p0_off: float = 0.1
    radius_m: float = 3.0
    tau_thres: float = 0.95
    forward_only: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p0_off < 1.0:
            raise ValueError("p0_off must lie in [0, 1)")
        if not self.radius_m >= 0.0:
            raise ValueError("radius_m must be non-negative")
        if not 0.0 <= self.tau_thres <= 1.0:
            raise ValueError("tau_thres must lie in [0, 1]")


def _resolve_measurement(
    params: PipelineParams, z0: np.ndarray, map_: TopometricMap
) -> MeasurementParams:
    m = params.measurement
    if m.lam is not None:
        return m
    return replace(m, lam=calibrate_lambda(z0, map_, m.rho))


@dataclass(frozen=True, slots=True)
class LcdFrame:
    """Per-frame record: the mode node, its tau score, and the mode's mass.

    ``proposal`` is always the mode; whether it is announced at a given
    threshold is a question for the sweep (``tau > threshold``).
    """

    t: int
    proposal: int
    tau: float
    mode_mass: float


@dataclass(eq=False)
class LcdResult:
    """All per-frame records of one loop-closure run plus the kernel rate used."""

    frames: list[LcdFrame]
    lam: float

    def taus(self) -> np.ndarray:
        return np.array([f.tau for f in self.frames])

    def proposals(self) -> np.ndarray:
        return np.array([f.proposal for f in self.frames], dtype=int)


def run_lcd(map_: TopometricMap, query: Traverse, params: PipelineParams) -> LcdResult:
    """Offline loop-closure detection over a full query traverse."""
    if query.descriptor_dim != map_.descriptor_dim:
        raise DataError(
            f"descriptor dimension mismatch: query {query.descriptor_dim}, "
            f"map {map_.descriptor_dim}"
        )
    meas = _resolve_measurement(params, query.frames[0].descriptor, map_)
    likelihoods = [
        likelihood_vector(fr.descriptor, map_, meas) for fr in query.frames
    ]
    models = [
        build_transition_model(map_, fr.odom, params.motion)
        for fr in query.frames[1:]
    ]
    prior = init_belief(map_.n_nodes, params.p0_off)
    trace = run_forward(prior, models, likelihoods)
    if params.forward_only:
        beliefs = [Belief.from_vector(a) for a in trace.alphas]
    else:
        beliefs = smooth_pass(trace)
    frames = []
    for t, belief in enumerate(beliefs):
        dec = decide(belief, map_, params.radius_m, params.tau_thres)
        frames.append(
            LcdFrame(
                t=t,
                proposal=dec.mode,
                tau=dec.tau,
                mode_mass=float(belief.within[dec.mode]),
            )
        )
    return LcdResult(frames=frames, lam=float(meas.lam))


@dataclass(frozen=True, slots=True)
class WakeupResult:
    """Outcome of one wakeup trial."""

    trial: int
    start: int
    converged: bool
    steps_used: int
    proposal: int | None
    tau: float
    distance_traveled: float


def run_wakeup(
    map_: TopometricMap,
    query: Traverse,
    start: int,
    max_steps: int,
    params: PipelineParams,
    trial: int = 0,
) -> WakeupResult:
    """One wakeup trial from the given start frame.

    The start frame's measurement is folded into the uniform prior; each
    subsequent frame contributes one motion-and-measurement update followed
    by a convergence check.  The trial stops at the first convergence, after
    ``max_steps`` updates, or at the end of the traverse, whichever comes
    first.  Frames beyond ``start + max_steps`` are never read.
    """
    return _wakeup_trial(map_, query, start, max_steps, params, trial, {})


def _wakeup_trial(
    map_: TopometricMap,
    query: Traverse,
    start: int,
    max_steps: int,
    params: PipelineParams,
    trial: int,
    models: dict[int, TransitionModel],
) -> WakeupResult:
    """:func:`run_wakeup`, reading and filling the model cache ``models``.

    ``models`` maps a frame index to that frame's transition model; a frame
    missing from it is built and added.  Likelihoods are not shared, since
    the kernel rate is calibrated on each trial's own start frame.
    """
    if query.descriptor_dim != map_.descriptor_dim:
        raise DataError("descriptor dimension mismatch between query and map")
    if not 0 <= start < len(query) - 1:
        raise DataError(f"start frame {start} leaves no room for an update")
    if max_steps < 1:
        raise DataError("max_steps must be at least 1")
    meas = _resolve_measurement(params, query.frames[start].descriptor, map_)
    prior = init_belief(map_.n_nodes, params.p0_off)
    alpha, _ = forward_init(
        prior, likelihood_vector(query.frames[start].descriptor, map_, meas)
    )
    steps_used = 0
    distance = 0.0
    converged = False
    proposal = None
    tau = 0.0
    last = min(start + max_steps, len(query) - 1)
    for t in range(start + 1, last + 1):
        frame = query.frames[t]
        model = models.get(t)
        if model is None:
            model = models[t] = build_transition_model(map_, frame.odom, params.motion)
        g = likelihood_vector(frame.descriptor, map_, meas)
        alpha, _ = forward_step(alpha, model, g)
        steps_used = t - start
        distance += frame.odom.mean.translation_norm
        dec = decide(Belief.from_vector(alpha), map_, params.radius_m, params.tau_thres)
        tau = dec.tau
        if dec.converged:
            converged = True
            proposal = dec.mode
            break
    return WakeupResult(
        trial=trial,
        start=start,
        converged=converged,
        steps_used=steps_used,
        proposal=proposal,
        tau=tau,
        distance_traveled=distance,
    )


def run_wakeup_batch(
    map_: TopometricMap,
    query: Traverse,
    n_trials: int,
    seed: int,
    max_steps: int,
    params: PipelineParams,
) -> list[WakeupResult]:
    """Independent wakeup trials from seeded uniform-random start frames.

    The start set is a pure function of ``seed`` and the traverse length, so
    different methods evaluated with the same seed face identical starts.
    Each result equals :func:`run_wakeup` of its start and trial index.

    The trials run in ascending order of start frame (ties in trial order)
    and share the transition models of the frames they cover.  A frame's
    model is built the first time a trial steps onto it and dropped when a
    trial starts at or after it, so each frame's model is built at most once
    per batch and at most ``max_steps`` models are held at a time.  Results
    are returned in trial order.
    """
    if n_trials < 1:
        raise DataError("n_trials must be at least 1")
    if len(query) < 2:
        raise DataError("wakeup needs a query of at least 2 frames")
    rng = np.random.default_rng([int(seed), 2])
    starts = rng.integers(0, len(query) - 1, size=n_trials)
    results: list[WakeupResult | None] = [None] * n_trials
    models: dict[int, TransitionModel] = {}
    for i in np.argsort(starts, kind="stable"):
        start = int(starts[i])
        for t in [t for t in models if t <= start]:
            del models[t]
        results[i] = _wakeup_trial(
            map_, query, start, max_steps, params, int(i), models
        )
    return results
