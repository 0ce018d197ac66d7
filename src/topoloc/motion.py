"""Odometry-conditioned transition model over the place graph plus off-map state.

For each node ``i`` the banded edges ``i -> j`` (``j > i``, ``j - i <
window``) are scored by how well the measured odometry step fits the
trajectory segment associated with the edge: the minimum squared Mahalanobis
distance ``d2`` between the odometry mean and the segment, weighted by the
odometry covariance.  Within-map transition probabilities are the softmax of
``-d2 / 2`` over the node's edges, scaled by the mass kept on the map; the
transition into the off-map state is the chi-squared (3 dof) CDF of the best
``d2``, i.e. the probability that even the best edge is a worse fit than
chance.

The off-map state has a constant self-transition ``off_self``; the remaining
mass re-enters the map uniformly.  The final node, which has no outgoing
edges, keeps a self-transition scored against the stay-in-place hypothesis.

:func:`build_transitions` builds the models of many consecutive steps at
once, from a traverse's odometry columns, as one checked
:class:`TransitionStack`; :func:`build_transition_model` is its one-step
case.  For segment start ``l``, direction ``u`` and step ``(mu, P)``, ``d2 =
max(q - s (2 num - s den), 0)`` at ``s = clip(num / den, 0, 1)``, where ``den
= u'Pu``, ``num = u'P(mu - l)`` and ``q = (mu - l)'P(mu - l)`` expand into
products of step coefficients with the map's ``edge_features`` rows.  Entries
with ``|mu_theta - l_theta| >= pi / 2`` (none if ``|mu_theta| + max |l_theta| <
pi / 2``), where the unwrapped expansion could err, use the exact ``geometry`` kernel.
The softmax skips ``exp`` where it rounds to 0, a slow underflow path on S2.

A stack is built, and a :class:`TransitionStack` checked, in blocks of
``_CHUNK`` steps that one thread per CPU the process may run on
(``os.sched_getaffinity``) takes in order from a shared queue; a stack of at
most ``_CHUNK`` steps, such as :func:`build_transition_model`'s, runs inline.
Step ``s``'s model comes from its own odometry rows only, through the same
per-step products in whichever block and thread it lands, so no split changes a
bit, and a failed check raises the error of the lowest failing step, as one
serial pass would.

:class:`TransitionStore` keeps the models of a query's steps per map and
:class:`MotionParams`, built by as few :func:`build_transitions` calls as its
requests allow, each over exactly the steps it does not hold yet.

:class:`BandKernel` propagates in two array operations per direction.  A stack
holds band offsets 1 to ``window - 1``; offset 0 is only the final node's
self-transition, one ``stay`` value per step.  The kernel's ``(window, N)``
products keep row 0 zero but for the final node, whose one product each step
writes; rows 1 up are multiplied from the stack.  Forward, row ``k`` holds
``within_probs[k - 1, i] alpha_i`` in a buffer after ``window - 1`` zero columns;
a view with rows one element shorter shifts row ``k`` by ``k``, and
``np.add.reduce`` over its rows gives ``alpha @ E``.  Backward, row ``k`` is the
table times the window view of ``v`` with ``window - 1`` trailing zeros, reduced
over its rows.  Both add offsets in order from ``k = 0`` and the padding adds
exact zeros, so they equal one slice product per offset summed in that order,
bit for bit, also when ``window > N``.

Modes
-----
``full``     odometry-conditioned transitions with the off-map state,
``no_off``   same transitions but all mass forced to stay on the map,
``no_odom``  odometry ignored: uniform within-edge transitions and a small
             constant off-map transition.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ._blocks import run_blocks
from .errors import DataError
from .geometry import OdometryStep, chi2_cdf_3, min_mahalanobis_on_directed_segments
from .mapping import TopometricMap

__all__ = [
    "MOTION_MODES",
    "BandKernel",
    "MotionParams",
    "OdometryStep",
    "TransitionModel",
    "TransitionStack",
    "TransitionStore",
    "build_transition_model",
    "build_transitions",
]

MOTION_MODES = ("full", "no_off", "no_odom")
_II, _JJ = np.triu_indices(3)  # the symmetric monomials of TopometricMap.edge_features


@dataclass(frozen=True, slots=True)
class MotionParams:
    """Motion-model configuration.

    ``off_self`` is the off-map self-transition probability; ``no_odom_off``
    is the constant off-map transition used when odometry is ignored.
    """

    off_self: float = 0.9
    mode: str = "full"
    no_odom_off: float = 0.01

    def __post_init__(self):
        if self.mode not in MOTION_MODES:
            raise ValueError(
                f"mode must be one of {MOTION_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.off_self < 1.0:
            raise ValueError("off_self must lie in [0, 1)")
        if not 0.0 <= self.no_odom_off < 1.0:
            raise ValueError("no_odom_off must lie in [0, 1)")


# Steps per scoring and checking pass: temporaries stay in cache; 8-32 measured best on S2.
_CHUNK = 16


def _check_shapes(within_probs, to_off, off_self, valid):
    """The whole-stack checks of :class:`TransitionStack`, made before any block runs."""
    if within_probs.ndim != 3:
        raise ValueError("within_probs must be (steps, window, N)")
    steps, w, n = within_probs.shape
    if w < 1 or n < 1:
        raise ValueError("within_probs must be non-empty")
    if to_off.shape != (steps, n) or off_self.shape != (steps,) or valid.shape != (w, n):
        raise ValueError("shape mismatch between within_probs, to_off, off_self, valid")
    if valid[0, :-1].any():
        raise ValueError("offset 0 holds only the final node's self-transition")
    if not np.all((0.0 <= off_self) & (off_self <= 1.0)):
        raise ValueError("off_self must lie in [0, 1]")


def _check_steps(within, stay, off, valid):
    """The per-entry checks of a few steps' band, offset-0 entries and ``to_off``.

    ``within`` ``(S, window - 1, N)`` holds offsets 1 up; ``stay`` ``(S, k)``
    offset 0 of the last ``k`` nodes: a full band's whole row, or a build's
    final node.
    """
    k = stay.shape[1]
    if np.any((within != 0.0) & ~valid[1:]) or np.any((stay != 0.0) & ~valid[0, -k:]):
        raise ValueError("probabilities outside the edge set must be zero")
    if min(within.min(initial=0.0), stay.min(initial=0.0), off.min(initial=0.0)) < -1e-12:
        raise ValueError("negative transition probability")
    total = within.sum(axis=1)
    total[:, -k:] += stay
    if np.abs(total + off - 1.0).max(initial=0.0) > 1e-9:
        raise ValueError("transition rows must sum to 1 within 1e-9")


class TransitionStack:
    """The transition models of ``S`` steps over one map.

    ``within_probs[s]`` ``(S, window - 1, N)``, ``stay[s]`` ``(S,)``,
    ``to_off[s]`` ``(S, N)`` and ``off_self[s]`` ``(S,)`` are step ``s``'s
    :class:`TransitionModel` arrays; ``valid`` ``(window, N)`` is the map's
    edge set, shared by every step.  Construction takes the full ``(S, window,
    N)`` band, offset 0 first, whose offset 0 may hold only the final node's
    self-transition; it checks the whole stack once, its shapes first and then
    its entries in ``_CHUNK``-step blocks across the CPUs, raising the lowest
    failing step's error, and keeps offsets 1 up and the final node's offset-0
    entry as ``stay``.  ``stack[s]`` is step ``s``'s model, a read-only view
    that is not checked again.  A stack that :meth:`TransitionStore.stack`
    hands out holds ``within_probs`` and ``to_off`` as tuples of per-step rows
    of the checked arrays its builds made, so ``[s]`` reads the same rows.
    """

    def __init__(self, within_probs, to_off, off_self, valid):
        within_probs = np.asarray(within_probs, dtype=float)
        to_off = np.asarray(to_off, dtype=float)
        off_self = np.asarray(off_self, dtype=float)
        valid = np.asarray(valid, dtype=bool)
        _check_shapes(within_probs, to_off, off_self, valid)
        run_blocks(
            lambda lo, hi: _check_steps(
                within_probs[lo:hi, 1:], within_probs[lo:hi, 0], to_off[lo:hi], valid
            ),
            len(to_off),
            _CHUNK,
        )
        self._set(within_probs[:, 1:], within_probs[:, 0, -1], to_off, off_self, valid)

    def _set(self, within_probs, stay, to_off, off_self, valid) -> "TransitionStack":
        """Holds step rows that passed ``_check_shapes`` and ``_check_steps``, read-only.

        ``within_probs`` and ``to_off`` are whole arrays, or tuples of one
        read-only row per step taken from the arrays of other stacks.
        """
        self.within_probs = within_probs
        self.stay = stay
        self.to_off = to_off
        self.off_self = off_self
        self.valid = valid
        self.window, self.n_nodes = valid.shape
        for arr in (within_probs, stay, to_off, off_self, valid):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return self

    def __len__(self) -> int:
        return len(self.off_self)

    def __getitem__(self, s: int) -> "TransitionModel":
        return TransitionModel(self, s)


class TransitionModel:
    """Step ``s`` of a :class:`TransitionStack`: banded transitions over ``N`` nodes plus off-map.

    Storage is by diagonal offset: ``within_probs[k - 1, i]`` is the
    probability of ``i -> i + k`` for ``k >= 1``, ``stay`` that of the final
    node's self-transition, the one edge at offset 0, and ``to_off[i]`` the
    probability of ``i -> off``.  The off-map row is ``off_self`` on itself
    and uniform ``(1 - off_self) / N`` into each node.  The stack checked the
    rows; this is a read-only view of them, and :meth:`propagate` is
    :class:`BandKernel`'s, never forming the dense matrix.
    """

    def __init__(self, stack: TransitionStack, s: int):
        self._stack, self._s = stack, s
        self.within_probs = stack.within_probs[s]
        self.stay = float(stack.stay[s])
        self.to_off = stack.to_off[s]
        self.off_self = float(stack.off_self[s])
        self.valid = stack.valid
        self.n_nodes = stack.n_nodes
        self.window = stack.window

    def propagate(self, alpha: np.ndarray) -> np.ndarray:
        """Row-vector product ``alpha @ E``; ``alpha`` has length ``N + 1``, off-map last."""
        if alpha.shape != (self.n_nodes + 1,):
            raise ValueError(f"alpha must have shape ({self.n_nodes + 1},)")
        return BandKernel(self.window, self.n_nodes).forward(self._stack, self._s, alpha)


class BandKernel:
    """``alpha @ E`` and ``E @ v`` for any step of a stack, on scratch a whole pass reuses."""

    def __init__(self, window: int, n: int):
        buf = np.zeros((window, n + window))  # zero columns either side of the products
        self._products = buf[:, window - 1 : window - 1 + n]
        # rows one element shorter than the buffer's: row k reads its products shifted by k
        flat = buf.reshape(-1)[window - 1 : window - 1 + window * (n + window - 1)]
        self._shifted_products = flat.reshape(window, -1)[:, :n]
        self._message = np.zeros(n + window - 1)  # window - 1 trailing zeros
        # sliding_window_view(message, n), read-only, made directly: its checks cost 20 us a call
        self._shifted_message = np.ndarray((window, n), buffer=self._message, strides=(8, 8))
        self._shifted_message.flags.writeable = False

    def forward(self, stack: TransitionStack, s: int, alpha: np.ndarray) -> np.ndarray:
        """``alpha @ E`` for step ``s`` of ``stack``: a new ``(N + 1,)`` array."""
        n, off_self = stack.n_nodes, stack.off_self[s]
        pred = np.empty(n + 1)
        np.multiply(stack.within_probs[s], alpha[:n], out=self._products[1:])
        self._products[0, n - 1] = stack.stay[s] * alpha[n - 1]  # the rest of row 0 stays 0
        np.add.reduce(self._shifted_products, axis=0, out=pred[:n])
        pred[:n] += alpha[n] * ((1.0 - off_self) / n)
        pred[n] = alpha[:n] @ stack.to_off[s] + alpha[n] * off_self
        return pred

    def backward(self, stack: TransitionStack, s: int, v: np.ndarray) -> np.ndarray:
        """``E @ v`` for step ``s`` of ``stack``: a new ``(N + 1,)`` array."""
        n, off_self = stack.n_nodes, stack.off_self[s]
        out = np.empty(n + 1)
        self._message[:n] = v[:n]
        np.multiply(stack.within_probs[s], self._shifted_message[1:], out=self._products[1:])
        self._products[0, n - 1] = stack.stay[s] * v[n - 1]
        np.add.reduce(self._products, axis=0, out=out[:n])
        out[:n] += stack.to_off[s] * v[n]
        out[n] = off_self * v[n] + ((1.0 - off_self) / n) * v[:n].sum()
        return out


def _edge_d2(map_: TopometricMap, means: np.ndarray, precs: np.ndarray) -> np.ndarray:
    """``d2`` of each step against every ``edge_geometry`` column, ``(S, K+1)``."""
    (starts, u, degenerate, _), (rows, max_heading) = map_.edge_geometry, map_.edge_features
    sym = precs[:, _II, _JJ] * np.where(_II == _JJ, 1.0, 2.0)
    pmu = np.einsum("sij,sj->si", precs, means)
    mpm = np.einsum("si,si->s", pmu, means)[:, None]
    c = np.concatenate([sym, np.ones_like(mpm), pmu, -precs.reshape(-1, 9), mpm, -2 * pmu, sym], 1)
    # per-step (1, F) @ (F, K+1) products keep one-step builds bit-equal; a GEMM rounds by row count
    den, num, d2 = (c[:, None, lo:hi] @ rows[lo:hi] for lo, hi in ((0, 7), (7, 19), (19, 29)))
    s = num / den
    np.clip(s, 0.0, 1.0, out=s)
    num *= 2.0
    den *= s
    den -= num
    den *= s
    d2 += den  # q - s (2 num - s den), in place: fresh temporaries cost more
    d2 = np.maximum(d2[:, 0], 0.0, out=d2[:, 0])
    for t in np.flatnonzero(np.abs(means[:, 2]) + max_heading >= 0.5 * np.pi):
        k = np.flatnonzero(np.abs(means[t, 2] - starts[2]) >= 0.5 * np.pi)
        d2[t, k] = min_mahalanobis_on_directed_segments(
            starts[:, k], u[:, k], degenerate[k], means[t], precs[t])[0]
    return d2


def build_transitions(
    map_: TopometricMap, odom_means: np.ndarray, odom_covs: np.ndarray, params: MotionParams
) -> TransitionStack:
    """The transition models of consecutive steps, one per odometry row.

    ``odom_means`` ``(S, 3)`` and ``odom_covs`` ``(S, 3, 3)`` are steps as a
    :class:`~topoloc.traverse.Traverse` holds them: angles wrapped,
    covariances checked.  The precisions come from one batched inverse; the
    expanded kernel (module docstring) scores ``_CHUNK`` steps per pass, as one
    same-shaped product per step, so step ``s``'s model depends on its own
    rows only and any slice of the rows builds the same models bit for bit.
    Each pass checks the steps it built, so the stack is not checked a second
    time.  A step whose ``d2`` overflows to NaN, or to +inf on every edge of
    a node (a covariance far too small for its mean), raises ``DataError``
    before its softmax.
    ``no_odom`` ignores both arrays and repeats one model ``S`` times.
    """
    n = map_.n_nodes
    valid = map_.edge_geometry[3]
    steps = len(odom_means)
    off_self = np.full(steps, params.off_self)

    if params.mode == "no_odom":
        to_off = np.full(n, params.no_odom_off)
        counts = valid.sum(axis=0)
        probs = np.where(valid[1:], (1.0 - to_off)[None, :] / counts[None, :], 0.0)
        stay = 1.0 - to_off[-1:]  # (1 - to_off) / 1 at the final node
        _check_steps(probs[None], stay[None], to_off[None], valid)  # the model of every step
        return TransitionStack.__new__(TransitionStack)._set(
            np.broadcast_to(probs, (steps,) + probs.shape),
            np.broadcast_to(stay, (steps,)),
            np.broadcast_to(to_off, (steps, n)),
            off_self,
            valid,
        )

    precs = np.linalg.inv(odom_covs)
    precs = 0.5 * (precs + precs.transpose(0, 2, 1))
    barrier = np.where(valid[1:], 0.0, np.inf)
    within = np.empty((steps,) + barrier.shape)
    stay = np.empty(steps)
    to_off = np.zeros((steps, n))
    map_.edge_features  # the per-map cache, filled before the blocks read it

    def build(lo, hi):
        part = slice(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            d2 = _edge_d2(map_, odom_means[part], precs[part])
        # d2 table by diagonal offset from 1, +inf off the edge set
        table = within[part]
        np.add(d2[:, :-1].reshape(len(d2), -1, n), barrier, out=table)
        min_d2 = table.min(axis=1)  # NaN where any entry of d2 is, +inf where a node's all are
        min_d2[:, -1] = d2[:, -1]  # the final node's one edge: the stay column
        bad = ~np.isfinite(min_d2).all(axis=1)
        if bad.any():
            mean = odom_means[lo + int(np.argmax(bad))].tolist()
            raise DataError(
                f"odometry step {mean} overflows its squared Mahalanobis distance "
                "to the map: its covariance is too small for its mean"
            )
        if params.mode == "full":
            to_off[part] = chi2_cdf_3(min_d2)

        # softmax of -d2 / 2 per node, in place; below -746 < ln(2**-1075), half the smallest
        # subnormal, exp rounds to 0 (so off the edge set, at -inf), and is skipped
        table -= min_d2[:, None]
        table *= -0.5
        zero = table <= -746.0
        with np.errstate(under="ignore"):
            np.exp(table, out=table, where=~zero)
        np.copyto(table, 0.0, where=zero)
        # each node's sum is at least its best edge's exp(0) = 1, but for the final node's
        # all-0 column: it divides by 1, not 0
        table /= np.maximum(table.sum(axis=1), 1.0)[:, None]
        table *= 1.0 - to_off[part][:, None]
        stay[part] = 1.0 - to_off[part, -1]  # the softmax over its stay column alone is 1
        _check_steps(table, stay[part, None], to_off[part], valid)

    run_blocks(build, steps, _CHUNK)
    return TransitionStack.__new__(TransitionStack)._set(within, stay, to_off, off_self, valid)


class TransitionStore:
    """The models of every step built so far over one traverse's odometry.

    A :class:`~topoloc.traverse.Traverse` holds one, so dropping the query
    frees it.  Steps are held per map, keyed weakly so that dropping the map
    frees its steps too, and per :class:`MotionParams` value.  Each
    :func:`build_transitions` call's own arrays are kept, never a whole-query
    array: 40 bytes per map node and step, 23.7 MB for the S2 seed 0 query per
    map and motion mode.  A lock serialises requests, so threads sharing a
    query never build a step twice.
    """

    def __init__(self, odom_means: np.ndarray, odom_covs: np.ndarray):
        self._odom_means, self._odom_covs = odom_means, odom_covs
        # map -> {params: (within rows, to_off rows, (stay, off_self))}, one entry per step
        self._held = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def __reduce__(self):
        # a pickled traverse carries its odometry, not the models: the maps are other objects
        return TransitionStore, (self._odom_means, self._odom_covs)

    def stack(self, map_: TopometricMap, params: MotionParams, steps) -> TransitionStack:
        """The models of odometry rows ``steps``, in that order, as one stack.

        The steps not held yet are built in one :func:`build_transitions` call
        over exactly those rows; the stack reads every step's rows from the
        arrays that built it, without copying them.  Step ``s``'s model
        depends on its own rows only, so it equals a fresh build bit for bit.
        """
        steps = np.asarray(steps, dtype=np.intp).reshape(-1).tolist()
        total = len(self._odom_means)
        if steps and not 0 <= min(steps) <= max(steps) < total:
            raise IndexError(f"steps must lie in [0, {total})")
        with self._lock:
            by_params = self._held.setdefault(map_, {})
            if params not in by_params:
                by_params[params] = ([None] * total, [None] * total, np.empty((2, total)))
            within, to_off, stay_off = by_params[params]
            missing = sorted({s for s in steps if within[s] is None})
            if missing:
                built = build_transitions(
                    map_, self._odom_means[missing], self._odom_covs[missing], params
                )
                for row, s in enumerate(missing):
                    within[s], to_off[s] = built.within_probs[row], built.to_off[row]
                stay_off[:, missing] = built.stay, built.off_self
            stay, off_self = stay_off[:, steps]
        return TransitionStack.__new__(TransitionStack)._set(
            tuple(within[s] for s in steps),
            stay,
            tuple(to_off[s] for s in steps),
            off_self,
            map_.edge_geometry[3],
        )


def build_transition_model(
    map_: TopometricMap, odom: OdometryStep | None, params: MotionParams
) -> TransitionModel:
    """One step's transition model: :func:`build_transitions` of a single step.

    ``odom`` may be ``None`` only in ``no_odom`` mode, where it is ignored.
    """
    if odom is not None:
        mean, cov = odom.mean.as_array(), odom.cov.matrix
    elif params.mode == "no_odom":
        mean, cov = np.zeros(3), np.eye(3)
    else:
        raise ValueError(f"mode {params.mode!r} requires an odometry step")
    return build_transitions(map_, mean[None], cov[None], params)[0]
