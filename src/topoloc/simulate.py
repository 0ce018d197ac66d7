"""Deterministic synthetic worlds for end-to-end benchmarking.

A world is a smooth random-curvature path sampled at a fine resolution, each
sample carrying a latent unit appearance descriptor whose similarity decays
with arc-length separation.  Traverses are rendered along the path (optionally
displaced sideways by off-map detours on sub-intervals), with appearance
noise and per-meter odometry noise.  All randomness flows from one integer
seed through independent named streams (``numpy`` seed sequences), so reruns
are bit-identical and stream use in one stage cannot perturb another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._records import Record
from .errors import DataError
from .geometry import compose_poses, inverse_poses, translation_norms, wrap_angle
from .traverse import Traverse

__all__ = [
    "Detour",
    "RouteSpec",
    "ScenarioSpec",
    "World",
    "builtin_scenarios",
    "generate_world",
    "noiseless_scenario",
    "render_traverse",
    "simulate_scenario",
]

# world-generation shape constants (documented rather than configurable:
# scenarios vary noise, not the terrain generator)
_RESOLUTION_M = 0.5
_CORR_LENGTH_M = 3.0
_KAPPA_MAX = 0.04        # rad/m, turn radius >= 25 m
_KAPPA_AR = 0.98
_KAPPA_DRIVE = 0.004
_FILTER_BLOCK = 32768    # values per row block of the smoothing filter (256 KB)
_STREAM_WORLD = 0
_STREAM_RENDER = 1


@dataclass(frozen=True)
class Detour(Record):
    """An off-map excursion displacing the path between two arc positions.

    The excursion is a smooth lateral bump: the path samples strictly inside
    the interval are displaced along their normals by ``offset_m * sin(pi *
    progress)``, one for one, so the route keeps the path's sampling.
    """

    start_s: float
    end_s: float
    offset_m: float = 14.0

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise DataError("detour end_s must exceed start_s")
        if not self.offset_m > 0.0:
            raise DataError("detour offset_m must be positive")


@dataclass(frozen=True)
class RouteSpec(Record):
    """How to render one traverse of a world.

    ``sigma_app`` scales the appearance perturbation so that its expected
    norm is roughly ``sigma_app`` (descriptors are unit vectors).
    ``sigma_xy`` / ``sigma_theta`` are odometry noise standard deviations per
    meter traveled; the reported covariance is the true sampling covariance
    times ``cov_inflation`` plus a small fixed floor (``cov_floor_*`` as
    standard deviations) that keeps it positive definite in the noiseless
    limit and absorbs map discretization slack.  ``margin_m`` trims the
    route at both ends so a query stays inside the mapped region instead of
    starting and stopping exactly at the map boundary.
    """

    spacing: float = 3.0
    sigma_app: float = 0.0
    sigma_xy: float = 0.0
    sigma_theta: float = 0.0
    cov_inflation: float = 1.0
    cov_floor_xy: float = 0.05
    cov_floor_theta: float = 0.02
    margin_m: float = 0.0
    detours: tuple[Detour, ...] = ()

    def __post_init__(self):
        if not self.spacing > 0.0:
            raise DataError("spacing must be positive")
        if min(self.sigma_app, self.sigma_xy, self.sigma_theta) < 0.0:
            raise DataError("noise scales must be non-negative")
        if not self.cov_inflation > 0.0:
            raise DataError("cov_inflation must be positive")
        if not (self.cov_floor_xy > 0.0 and self.cov_floor_theta > 0.0):
            raise DataError("covariance floors must be positive")
        if self.margin_m < 0.0:
            raise DataError("margin_m must be non-negative")
        object.__setattr__(self, "detours", tuple(self.detours))


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """A named benchmark configuration: world size plus both route specs."""

    name: str
    description: str
    length_m: float
    descriptor_dim: int
    ref: RouteSpec
    query: RouteSpec


@dataclass(eq=False)
class World:
    """A path sampled every 0.5 m, with a latent appearance descriptor per sample."""

    positions: np.ndarray
    headings: np.ndarray
    latents: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.positions.shape[0]


def generate_world(seed: int, length_m: float = 2000.0, d: int = 64) -> World:
    """Generate a smooth random world of the given arc length.

    The path is a bounded-curvature random walk sampled every 0.5 m; latent
    descriptors are arc-length-correlated unit vectors (white noise smoothed
    over a 3 m scale), so nearby samples look alike and distant samples look
    unrelated.
    """
    if seed < 0:
        raise DataError("seed must be non-negative")
    if not length_m > 0.0:
        raise DataError("length_m must be positive")
    if d < 1:
        raise DataError("descriptor dimension must be positive")
    rng = np.random.default_rng([int(seed), _STREAM_WORLD])
    m = int(round(length_m / _RESOLUTION_M)) + 1

    eta = rng.standard_normal(m)
    kappa = np.empty(m)
    kappa[0] = 0.0
    for t in range(1, m):
        kappa[t] = _KAPPA_AR * kappa[t - 1] + _KAPPA_DRIVE * eta[t]
        if kappa[t] > _KAPPA_MAX:
            kappa[t] = _KAPPA_MAX
        elif kappa[t] < -_KAPPA_MAX:
            kappa[t] = -_KAPPA_MAX
    headings = np.concatenate([[0.0], np.cumsum(kappa[1:] * _RESOLUTION_M)])
    steps = _RESOLUTION_M * np.stack([np.cos(headings[1:]), np.sin(headings[1:])], axis=1)
    positions = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])

    raw = rng.standard_normal((m, d))
    # scipy's gaussian_filter1d(mode="nearest") algorithm in scipy's order: the same bits
    smooth = _gaussian_rows(raw, _CORR_LENGTH_M / _RESOLUTION_M)
    norms = np.linalg.norm(smooth, axis=1, keepdims=True)
    latents = (smooth / norms).astype(np.float32)

    return World(positions=positions, headings=headings, latents=latents)


def _gaussian_rows(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of ``x`` along its rows, edge rows repeated beyond each end.

    This is scipy's ``gaussian_filter1d(x, sigma, axis=0, mode="nearest")``
    in scipy's order of operations, so it gives the same bits: the kernel
    ``exp(-0.5 / sigma**2 * k**2)`` over ``|k| <= int(4 sigma + 0.5)``
    normalised by its sum, and for each row first the centre row times its
    weight, then ``(x[i-j] + x[i+j]) * w[j]`` added for ``j`` from the
    radius down to 1.  It accumulates in place over blocks of rows that stay
    in cache.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k**2)
    w = w / w.sum()
    m = len(x)
    padded = np.concatenate([np.repeat(x[:1], r, axis=0), x, np.repeat(x[-1:], r, axis=0)])
    out = np.empty(x.shape)
    rows = max(1, _FILTER_BLOCK // x[0].size)
    tmp = np.empty((min(rows, m),) + x.shape[1:])
    for a in range(0, m, rows):
        b = min(a + rows, m)
        acc, pair = out[a:b], tmp[: b - a]
        np.multiply(x[a:b], w[r], out=acc)
        for j in range(r, 0, -1):
            np.add(padded[a + r - j : b + r - j], padded[a + r + j : b + r + j], out=pair)
            pair *= w[r - j]
            acc += pair
    return out


def _route_points(world: World, route: RouteSpec) -> tuple[np.ndarray, np.ndarray]:
    """The path samples with each detour's interior displaced, and per-sample detour flags."""
    m = world.n_samples
    detours = sorted(route.detours, key=lambda d: d.start_s)
    for a, b in zip(detours[:-1], detours[1:]):
        if b.start_s < a.end_s:
            raise DataError("detours must not overlap")
    pts = world.positions.copy()
    flags = np.zeros(m, dtype=bool)
    for det in detours:
        i0 = int(round(det.start_s / _RESOLUTION_M))
        i1 = int(round(det.end_s / _RESOLUTION_M))
        if i0 < 0 or i1 > m - 1:
            raise DataError("detour lies outside the path extent")
        if i1 - i0 < 2:
            raise DataError("detour is too short for the path resolution")
        idx = np.arange(i0 + 1, i1)
        prof = det.offset_m * np.sin(math.pi * ((idx - i0) / (i1 - i0)))
        normals = np.stack([-np.sin(world.headings[idx]), np.cos(world.headings[idx])], axis=1)
        pts[idx] = world.positions[idx] + prof[:, None] * normals
        flags[idx] = True
    return pts, flags


def render_traverse(world: World, route: RouteSpec, seed: int) -> Traverse:
    """Render one traverse of the world along the (possibly detoured) route.

    Frames are sampled every ``route.spacing`` meters of route arc length.
    The route is the path with each detour's interior samples displaced one
    for one, so route sample ``i`` is path sample ``i``: on-map frames
    perturb the nearest route sample's latent descriptor, and detour frames
    draw fresh random unit descriptors.  Odometry is the exact relative pose
    between consecutive ground-truth poses composed with zero-mean noise
    scaled per meter; with all noise scales at zero the rendered odometry is
    exact and on-map descriptors equal the latents bit for bit.
    """
    rng = np.random.default_rng([int(seed), _STREAM_RENDER])
    pts, flags = _route_points(world, route)
    diffs = np.diff(pts, axis=0)
    seglen = np.linalg.norm(diffs, axis=1)
    if seglen.min() <= 0.0:
        raise DataError("route polyline contains a zero-length segment")
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    total = float(cum[-1])
    usable = total - 2.0 * route.margin_m
    n_frames = int(math.floor(usable / route.spacing + 1e-9)) + 1
    if usable <= 0.0 or n_frames < 2:
        raise DataError("route is shorter than one frame spacing")

    # one block of normals, consumed as the per-frame draws were: the first
    # frame's appearance noise, then appearance and odometry noise per step
    d = world.latents.shape[1]
    normals = rng.standard_normal(d + (n_frames - 1) * (d + 3))
    steps = normals[d:].reshape(n_frames - 1, d + 3)
    noise = np.vstack([normals[None, :d], steps[:, :d]])

    s = route.margin_m + np.arange(n_frames) * route.spacing
    i = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seglen) - 1)
    frac = (s - cum[i]) / seglen[i]
    gt = np.empty((n_frames, 3))
    gt[:, :2] = pts[i] + frac[:, None] * diffs[i]
    # math.atan2 per frame: np.arctan2 rounds differently on some inputs
    heading = map(math.atan2, diffs[i, 1].tolist(), diffs[i, 0].tolist())
    gt[:, 2] = wrap_angle(np.fromiter(heading, float, n_frames))
    near = np.where(frac < 0.5, i, i + 1)
    on_detour = flags[near]

    if route.sigma_app == 0.0:
        descriptors = world.latents[near]
    else:
        vec = world.latents[near].astype(np.float64)
        vec = vec + route.sigma_app * noise / math.sqrt(d)
        descriptors = (vec / _row_norms(vec)).astype(np.float32)
    fresh = noise[on_detour]
    descriptors[on_detour] = (fresh / _row_norms(fresh)).astype(np.float32)

    true_rel = compose_poses(inverse_poses(gt[:-1]), gt[1:])
    dist = translation_norms(true_rel)
    stds = np.column_stack([route.sigma_xy * dist] * 2 + [route.sigma_theta * dist])
    eps = stds * steps[:, d:]
    noisy = eps.any(axis=1)
    eps[:, 2] = wrap_angle(eps[:, 2])
    means = true_rel.copy()
    means[noisy] = compose_poses(true_rel[noisy], eps[noisy])
    floor = np.array([route.cov_floor_xy**2, route.cov_floor_xy**2, route.cov_floor_theta**2])
    covs = np.zeros((n_frames - 1, 3, 3))
    covs[:, [0, 1, 2], [0, 1, 2]] = route.cov_inflation * stds**2 + floor
    return Traverse(descriptors, means, covs, gt)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as a column.

    One dot product per row, so each norm rounds as ``np.linalg.norm(row)``
    does; a summed square does not.
    """
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def noiseless_scenario() -> ScenarioSpec:
    """Exact-odometry, exact-appearance smoke scenario.

    Every noise scale is zero, so the only residual error is map
    discretization; the covariance floors are widened to cover the
    interpolation slack that discretization leaves behind, and the query
    keeps a margin inside the mapped region so no frame starts or ends at
    the map boundary.  Run it with a sharper appearance contrast than the
    default (``rho`` around 6): descriptors are exact, so leaning on them
    hard is free, and localization then settles within a handful of frames.
    """
    ref = RouteSpec(
        spacing=0.5,
        sigma_app=0.0,
        sigma_xy=0.0,
        sigma_theta=0.0,
        cov_floor_xy=0.3,
        cov_floor_theta=0.12,
    )
    query = replace(ref, spacing=3.0, margin_m=12.0)
    return ScenarioSpec(
        name="S0",
        description="noiseless smoke scenario",
        length_m=2000.0,
        descriptor_dim=64,
        ref=ref,
        query=query,
    )


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """The three frozen benchmark scenarios.

    S1: full-length pass over a 2 km world with heavy appearance noise and
    honestly reported wheel odometry (NEES 2.4-2.6, below 3 by the
    covariance floor).  S2: the same route and appearance noise, with about
    a fifth of the query (0.20-0.21 of its frames) off the map on detours
    and odometry a fifth as noisy as S1's, reported nine-fold (NEES 0.22-0.23).
    S3: S1's query, descriptors, odometry and ground truth bit for bit, with
    the covariance reported nine-fold (NEES 0.31-0.33).  The figures are
    for seeds 0-2; ``tests/test_scenarios.py`` holds each within a band.
    """
    ref = RouteSpec(spacing=0.5, sigma_app=0.0, sigma_xy=0.005, sigma_theta=0.001)
    # sigma_app 2.5 puts descriptor matching in the hard cross-condition
    # regime (cosine similarity to the true latent around 0.37): appearance
    # alone misleads occasionally, odometry-aided filtering recovers.
    #
    # S1 reports its odometry covariance honestly (inflation 1).  The filter
    # then works with realistically soft motion rows, which is the regime
    # where backward smoothing earns its keep: the forward pass wobbles
    # under appearance noise and hindsight repairs it.
    q1 = RouteSpec(
        spacing=3.0,
        sigma_app=2.5,
        sigma_xy=0.05,
        sigma_theta=0.0125,
        cov_inflation=1.0,
    )
    s1 = ScenarioSpec(
        name="S1",
        description="full-length pass, heavy appearance noise, honest odometry",
        length_m=2000.0,
        descriptor_dim=64,
        ref=ref,
        query=q1,
    )
    # S2 and S3 report covariance conservatively (nine-fold inflation), the
    # usual practice for wheel-inertial stacks.  In S2 the three scales are
    # deliberately ordered: actual noise (0.01/m) well below the reported
    # sigma, reported sigma well below the lateral innovation a detour
    # produces, so motion rows stay sharp on-map while detours still trip
    # the off-map gate.
    detours = tuple(
        Detour(start_s=start, end_s=start + 110.0, offset_m=14.0)
        for start in (300.0, 620.0, 940.0, 1260.0, 1580.0)
    )
    q2 = RouteSpec(
        spacing=3.0,
        sigma_app=2.5,
        sigma_xy=0.01,
        sigma_theta=0.0025,
        cov_inflation=9.0,
        detours=detours,
    )
    s2 = replace(
        s1,
        name="S2",
        description="one fifth of the query replaced by off-map detours",
        query=q2,
    )
    s3 = replace(
        s1,
        name="S3",
        description="degraded odometry (five-fold noise)",
        query=replace(q2, detours=(), sigma_xy=0.05, sigma_theta=0.0125),
    )
    return {"S1": s1, "S2": s2, "S3": s3}


def simulate_scenario(spec: ScenarioSpec, seed: int):
    """World plus rendered reference and query traverses for one seed.

    The reference renders with stream ``seed`` and the query with ``seed +
    1``; both are disjoint from the world-generation stream, so the triple
    is fully determined by ``(spec, seed)``.
    """
    world = generate_world(seed, spec.length_m, spec.descriptor_dim)
    ref = render_traverse(world, spec.ref, seed=seed)
    query = render_traverse(world, spec.query, seed=seed + 1)
    return world, ref, query
