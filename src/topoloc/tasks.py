"""Task harnesses: offline loop-closure detection and global wakeup.

Loop-closure detection runs the full pipeline over a query traverse, each
stage once over the whole query's arrays: likelihoods for every frame,
transition models for every step, one forward pass, one backward pass, then
a convergence score per frame on the smoothed (or, for the ablation, the
filtered) beliefs.  The recorded tau values drive offline threshold sweeps.

Wakeup starts from a uniform prior at an unknown query position and filters
forward until the belief concentrates or the step budget runs out.  The
first decision happens after the first motion-and-measurement update, never
on the prior alone.  A batch of trials computes the distances of every frame
its trials' windows cover in one row-exact call, and calibrates the trials'
kernel rates in blocks across the CPUs; each trial then filters over its own
rows and stops at its first convergence.

Transition models depend on the query only through its odometry, so both
tasks read them from the query's :class:`~topoloc.motion.TransitionStore`:
each step is built once per query, map and
:class:`~topoloc.motion.MotionParams` value, by the first run that needs it,
and later runs and batches read it again.

:class:`PipelineParams` holds every inference setting: a config's ``filter``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._blocks import run_blocks
from ._records import Record
from .errors import DataError
from .filtering import (
    _normalize,
    convergence_scores,
    forward_init,
    init_belief,
    run_forward,
    smooth_pass,
    tau_half_width,
)
from .geometry import translation_norms
from .mapping import TopometricMap
from .measurement import (
    MeasurementParams,
    calibrate_lambda,
    descriptor_distances,
    likelihood_vector,
    likelihoods_from_distances,
)
from .motion import BandKernel, MotionParams
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

# Trial starts per block of kernel-rate calibrations a thread takes.
_LAMBDA_BLOCK = 4

_MOTION, _MEASUREMENT = MotionParams(), MeasurementParams()


@dataclass(frozen=True)
class PipelineParams(Record):
    """Everything inference needs beyond the map and the query: a config's ``filter``.

    The motion and measurement keys default to those of :class:`MotionParams`
    and :class:`MeasurementParams`; each record builds its ``motion`` and
    ``measurement`` from them, which is where a bad value fails.
    """

    mode: str = _MOTION.mode
    off_self: float = _MOTION.off_self
    no_odom_off: float = _MOTION.no_odom_off
    lam: float | None = _MEASUREMENT.lam
    k_frac: float = _MEASUREMENT.k_frac
    k_min: int = _MEASUREMENT.k_min
    rho: float = _MEASUREMENT.rho
    p0_off: float = 0.1
    radius_m: float = 3.0
    tau_thres: float = 0.95
    forward_only: bool = False

    def __post_init__(self):
        motion = MotionParams(off_self=self.off_self, mode=self.mode, no_odom_off=self.no_odom_off)
        meas = MeasurementParams(lam=self.lam, k_frac=self.k_frac, k_min=self.k_min, rho=self.rho)
        object.__setattr__(self, "motion", motion)  # attributes, not fields: the keys stay eleven
        object.__setattr__(self, "measurement", meas)
        if not 0.0 <= self.p0_off < 1.0:
            raise ValueError("p0_off must lie in [0, 1)")
        if not self.radius_m >= 0.0:
            raise ValueError("radius_m must be non-negative")
        if not 0.0 <= self.tau_thres <= 1.0:
            raise ValueError("tau_thres must lie in [0, 1]")

    def pipeline_params(self) -> PipelineParams:
        """This record itself: the benchmark's workloads still ask for it by this name."""
        return self


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
    meas = params.measurement
    if meas.lam is None:
        meas = replace(meas, lam=calibrate_lambda(query.descriptors[0], map_, meas.rho))
    # the models the query keeps first, below the likelihoods on the heap: made after them,
    # lcd-s2 re-faulted about 20 MB per operation in 5 of 8 runs (seed 11)
    transitions = query.transitions.stack(map_, params.motion, range(len(query) - 1))
    likelihoods = likelihood_vector(query.descriptors, map_, meas)
    prior = init_belief(map_.n_nodes, params.p0_off)
    trace = run_forward(prior, transitions, likelihoods)
    beliefs = trace.alphas if params.forward_only else smooth_pass(trace)
    modes, taus = convergence_scores(beliefs[:, :-1], map_, params.radius_m)
    mode_mass = beliefs[np.arange(len(modes)), modes]
    rows = zip(modes.tolist(), taus.tolist(), mode_mass.tolist())
    frames = [LcdFrame(t, mode, tau, mass) for t, (mode, tau, mass) in enumerate(rows)]
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
    (result,) = _wakeup_trials(map_, query, [start], max_steps, params)
    return replace(result, trial=trial)


def _wakeup_trials(
    map_: TopometricMap,
    query: Traverse,
    starts: list[int],
    max_steps: int,
    params: PipelineParams,
) -> list[WakeupResult]:
    """Wakeup trials from the given start frames, numbered in list order.

    A trial's window is frames ``start..last`` with ``last = min(start +
    max_steps, T - 1)``.  The ``U`` covered frames' distances are one ``(U,
    N)`` array, in which each trial's rows are consecutive.  The models of the
    trials' steps, in trial order, are one stack from the query's store, which
    builds the steps it does not hold yet.  Only the kernel rate is the
    trial's own: it is calibrated on its start frame.
    """
    if query.descriptor_dim != map_.descriptor_dim:
        raise DataError("descriptor dimension mismatch between query and map")
    final = len(query) - 1
    for start in starts:
        if not 0 <= start < final:
            raise DataError(f"start frame {start} leaves no room for an update")
    if max_steps < 1:
        raise DataError("max_steps must be at least 1")
    # Python ints: start + max_steps may not fit in int64
    lasts = [min(start + max_steps, final) for start in starts]
    covered = np.zeros(len(query), dtype=bool)
    for start, last in zip(starts, lasts):
        covered[start : last + 1] = True
    frames = np.flatnonzero(covered)
    # odometry row t - 1 is the step into frame t: a trial's steps are start..last - 1
    steps = np.concatenate([np.arange(start, last) for start, last in zip(starts, lasts)])
    firsts = np.cumsum([0] + [last - start for start, last in zip(starts, lasts)]).tolist()
    models = query.transitions.stack(map_, params.motion, steps)
    step_lengths = translation_norms(query.odom_means[steps]).tolist()
    # row-exact, as if per frame; made before the stack, it raised S2 peak RSS by 15 MB
    dists = descriptor_distances(query.descriptors[frames], map_)
    meas = params.measurement
    lams = [meas.lam] * len(starts)
    if meas.lam is None:
        def calibrate(lo, hi):
            for i in range(lo, hi):
                lams[i] = calibrate_lambda(query.descriptors[starts[i]], map_, meas.rho)

        run_blocks(calibrate, len(starts), _LAMBDA_BLOCK)
    prior = init_belief(map_.n_nodes, params.p0_off)
    band = BandKernel(models.window, models.n_nodes)
    half = tau_half_width(map_, params.radius_m)
    results, rows = [], np.searchsorted(frames, starts).tolist()
    for trial, (start, last, row, first, lam) in enumerate(zip(starts, lasts, rows, firsts, lams)):
        g = likelihoods_from_distances(dists[row : row + last - start + 1], replace(meas, lam=lam))
        alpha, _ = forward_init(prior, g[0])
        distance = 0.0
        proposal = None
        for steps_used in range(1, last - start + 1):
            raw = band.forward(models, first + steps_used - 1, alpha)
            raw *= g[steps_used]
            alpha, _ = _normalize(raw, step=None)
            distance += step_lengths[first + steps_used - 1]
            # convergence_scores of one row: its zero padding adds exactly, so slicing matches
            within = alpha[:-1]
            mode = int(within.argmax())
            tau = float(np.add.accumulate(within[max(mode - half, 0) : mode + half + 1])[-1])
            if tau > params.tau_thres:
                proposal = mode
                break
        converged = proposal is not None
        results.append(WakeupResult(trial, start, converged, steps_used, proposal, tau, distance))
    return results


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

    The trials share the covered frames' distances, from one
    :func:`~topoloc.measurement.descriptor_distances` call, which the batch
    holds: at most the whole traverse, 5 MB on an S2 query (5 MB more during
    that call).  Their transition models come from the query's store, which
    keeps every step built for the query until the query or the map is
    dropped: 40 bytes per map node and step, 23.7 MB for the S2 seed 0 query
    per map and motion mode.  Results are in trial order.
    """
    if n_trials < 1:
        raise DataError("n_trials must be at least 1")
    if seed < 0:
        raise DataError("seed must be non-negative")
    if len(query) < 2:
        raise DataError("wakeup needs a query of at least 2 frames")
    rng = np.random.default_rng([int(seed), 2])
    starts = rng.integers(0, len(query) - 1, size=n_trials)
    return _wakeup_trials(map_, query, starts.tolist(), max_steps, params)
