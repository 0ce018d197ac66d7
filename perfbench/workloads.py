"""The three workloads: set-up, rounds of operations, and their checks.

Every workload is a closed loop: one client in one process starts the next
operation when the previous one has completed.  A workload supplies

* ``setup()``: everything an operation needs, from scratch, ending with one
  warm-up operation (timed as a whole into ``setup_s``);
* ``make_input(i)``: the inputs of round ``i`` (untimed, never traced);
* ``operate(i, inp)``: round ``i``, timing only the program's work;
* ``check(inp, out)``: correctness checks on the round's outputs (untimed,
  never traced).

Seeds: the world and its reference traverse use ``--seed`` itself, as
``topoloc simulate --seed`` does.  Every other input takes its seed from
``numpy.random.SeedSequence([seed, stream, index])`` with the stream
numbers below, so inputs never share a random stream.
"""

from __future__ import annotations

import collections
import dataclasses
import shutil
import time
from pathlib import Path

import numpy as np

from topoloc import config, evaluate, filtering, formats, mapping, measurement, motion
from topoloc import simulate, tasks

import checks

STREAM_LCD_QUERY = 1
STREAM_WAKEUP_QUERY = 2
STREAM_WAKEUP_TRIALS = 3
STREAM_ONLINE_QUERY = 4
STREAM_WARMUP = 5
STREAM_SAMPLE = 6

# Trials per wakeup batch: about 1.4 s of work at S2 size, so a run holds
# enough batches for a steady median.
WAKEUP_BATCH = 25
# The fault probe of wakeup-s2: fixed inputs, independent of --seed.
PROBE_SEED = 0
PROBE_TRIAL_SEED = 0
PROBE_TRIALS = 4
# Frames per online-large round.
ONLINE_ROUND_FRAMES = 25
# Every this many frames, online-large recomputes the likelihood vector.
ONLINE_CHECK_EVERY = 10

SCENARIO_LARGE = Path(__file__).with_name("scenario_large.json")


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


@dataclasses.dataclass
class RoundResult:
    """What one round did: operations, failures, timed seconds, frames fed."""

    attempted: int
    failed: int
    seconds: float
    frames: int
    op_seconds: list[float]  # per-operation latency samples
    outputs: object = None


class Workload:
    """Hooks a workload may leave out: fixed inputs built once, extra diagnostics."""

    def prepare(self):
        """Build inputs that do not depend on the seed (after set-up, untimed)."""

    def diagnostics(self) -> dict:
        return {}


class _S2Workload(Workload):
    """Shared set-up of lcd-s2 and wakeup-s2: the S2 world, map and files."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cfg = config.Config()
        self.params = self.cfg.filter.pipeline_params()
        self.spec = simulate.builtin_scenarios()["S2"]

    def _build_map(self):
        """World, reference file, map file, as ``simulate`` and ``build-map`` do."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        spec = self.spec
        self.world = simulate.generate_world(self.seed, spec.length_m, spec.descriptor_dim)
        ref = simulate.render_traverse(self.world, spec.ref, self.seed)
        ref_path = self.workdir / "reference.jsonl"
        formats.write_traverse(ref_path, ref)
        del ref
        reference = formats.read_traverse(ref_path)
        built = mapping.build_map(reference, self.cfg.map.node_spacing, self.cfg.map.window)
        map_path = self.workdir / "map.json"
        formats.write_map(map_path, built)
        self.map = formats.read_map(map_path)

    @property
    def n_nodes(self) -> int:
        return self.map.n_nodes


class LcdS2(_S2Workload):
    """Offline loop-closure detection of whole S2 query traverses."""

    def setup(self):
        self._build_map()
        warm = self._render_query(derive_seed(self.seed, STREAM_WARMUP))
        self.check(warm, self.operate(-1, warm))

    def _render_query(self, query_seed: int):
        query = simulate.render_traverse(self.world, self.spec.query, query_seed)
        path = self.workdir / "query.jsonl"
        formats.write_traverse(path, query)
        return path, query

    def make_input(self, i):
        return self._render_query(derive_seed(self.seed, STREAM_LCD_QUERY, i))

    def operate(self, i, inp):
        path, _ = inp
        results_path = self.workdir / "results.jsonl"
        t0 = time.perf_counter()
        query = formats.read_traverse(path)
        result = tasks.run_lcd(self.map, query, self.params)
        formats.write_lcd_result(results_path, result)
        labels = evaluate.label_ground_truth(query, self.map, checks.TOL_M, checks.TOL_DEG)
        curve = evaluate.score_lcd(result, labels)
        recalls = {p: evaluate.recall_at_precision(curve, p) for p in checks.PRECISIONS}
        seconds = time.perf_counter() - t0
        return RoundResult(1, 0, seconds, len(query), [seconds], (result, labels, recalls))

    def check(self, inp, out):
        _, query = inp
        result, labels, recalls = out.outputs
        checks.check_lcd_result(result, len(query), self.n_nodes)
        checks.check_lcd_readback(
            result, formats.read_lcd_result(self.workdir / "results.jsonl")
        )
        ok, within, nearest = checks.own_labels(query.gt_array(), self.map.gt_poses)
        checks.check_labels(labels, ok, within, nearest)
        own = checks.own_recall_at_precision(
            result.taus(), result.proposals(), ok, within
        )
        checks.check_recalls(recalls, own)


@dataclasses.dataclass
class _WakeupQuery:
    """A map and a query traverse with what the checks need about them."""

    map: object
    query: object
    within: np.ndarray
    norms: np.ndarray


def _wakeup_query(map_, query) -> _WakeupQuery:
    labels = evaluate.label_ground_truth(query, map_, checks.TOL_M, checks.TOL_DEG)
    ok, within, nearest = checks.own_labels(query.gt_array(), map_.gt_poses)
    checks.check_labels(labels, ok, within, nearest)
    return _WakeupQuery(map_, query, within, checks.odometry_norms(query))


class WakeupS2(_S2Workload):
    """Batches of wakeup trials on one S2 query, plus a fixed fault probe.

    Each round is one batch of ``WAKEUP_BATCH`` trials with the round's own
    trial seed, then the probe batch: ``PROBE_TRIALS`` trials on the S2 world
    of seed ``PROBE_SEED`` with trial seed ``PROBE_TRIAL_SEED``, inputs that
    do not depend on ``--seed``.  A probe trial whose frames all lie on the
    map and that ends unconverged counts as failed.
    """

    def setup(self):
        self._build_map()
        spec = self.spec
        query = simulate.render_traverse(
            self.world, spec.query, derive_seed(self.seed, STREAM_WAKEUP_QUERY)
        )
        path = self.workdir / "query.jsonl"
        formats.write_traverse(path, query)
        self.main = _wakeup_query(self.map, formats.read_traverse(path))
        self._run_batch(self.main, 1, derive_seed(self.seed, STREAM_WARMUP))

    def prepare(self):
        """The probe's world, map and query (fixed, so built once, outside set-up)."""
        _, ref, query = simulate.simulate_scenario(self.spec, PROBE_SEED)
        built = mapping.build_map(ref, self.cfg.map.node_spacing, self.cfg.map.window)
        self.probe = _wakeup_query(built, query)
        self.seen = collections.Counter()

    def _run_batch(self, wq, n_trials, trial_seed):
        return tasks.run_wakeup_batch(
            wq.map, wq.query, n_trials, trial_seed, self.cfg.task.max_steps, self.params
        )

    def make_input(self, i):
        return derive_seed(self.seed, STREAM_WAKEUP_TRIALS, i)

    def operate(self, i, trial_seed):
        t0 = time.perf_counter()
        main = self._run_batch(self.main, WAKEUP_BATCH, trial_seed)
        probe = self._run_batch(self.probe, PROBE_TRIALS, PROBE_TRIAL_SEED)
        seconds = time.perf_counter() - t0
        max_steps = self.cfg.task.max_steps
        failed = sum(checks.on_map_unconverged(r, self.probe.within, max_steps) for r in probe)
        n = WAKEUP_BATCH + PROBE_TRIALS
        steps = sum(r.steps_used for r in main + probe)
        return RoundResult(n, failed, seconds, steps, [seconds / n], (trial_seed, main, probe))

    def check(self, inp, out):
        trial_seed, main, probe = out.outputs
        max_steps = self.cfg.task.max_steps
        thres = self.params.tau_thres
        for wq, results, n in ((self.main, main, WAKEUP_BATCH), (self.probe, probe, PROBE_TRIALS)):
            checks.check_wakeup_batch(results, n, len(wq.query), max_steps, thres, wq.norms)
        rng = np.random.default_rng(derive_seed(trial_seed, STREAM_SAMPLE))
        record = main[int(rng.integers(len(main)))]
        rerun = tasks.run_wakeup(
            self.map, self.main.query, record.start, max_steps, self.params, trial=record.trial
        )
        checks.check_same_trial(record, rerun)
        self.seen["main_trials"] += len(main)
        self.seen["main_converged"] += sum(r.converged for r in main)
        self.seen["main_on_map_unconverged"] += sum(
            checks.on_map_unconverged(r, self.main.within, max_steps) for r in main
        )

    def diagnostics(self) -> dict:
        """How many seed-dependent trials showed the fault; this varies with the seed."""
        return dict(self.seen)


class OnlineLarge(Workload):
    """Frame-by-frame filtering on a world ten times the size of S2, d = 256."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = config.Config()
        self.params = self.cfg.filter.pipeline_params()

    def setup(self):
        self.spec = simulate.ScenarioSpec.from_dict(formats.read_json(SCENARIO_LARGE))
        self.world = simulate.generate_world(
            self.seed, self.spec.length_m, self.spec.descriptor_dim
        )
        ref = simulate.render_traverse(self.world, self.spec.ref, self.seed)
        self.map = mapping.build_map(ref, self.cfg.map.node_spacing, self.cfg.map.window)
        del ref
        self.n_queries = 0
        self._next_query()
        m = self.params.measurement
        z0 = self.query.frames[0].descriptor
        self.meas = dataclasses.replace(
            m, lam=measurement.calibrate_lambda(z0, self.map, m.rho)
        )
        self.k = checks.off_map_rank(self.map.n_nodes, self.meas.k_frac, self.meas.k_min)
        self.half_width = int(np.floor(self.params.radius_m / self.map.node_spacing + 0.5))
        self._restart()
        self.check(None, self.operate(-1, 1))

    def _next_query(self):
        """A fresh query traverse, so no frame is ever fed twice."""
        seed = derive_seed(self.seed, STREAM_ONLINE_QUERY, self.n_queries)
        self.query = simulate.render_traverse(self.world, self.spec.query, seed)
        self.n_queries += 1

    def _restart(self):
        """Start the query over: the first frame folds into the prior."""
        prior = filtering.init_belief(self.map.n_nodes, self.params.p0_off)
        g0 = measurement.likelihood_vector(self.query.frames[0].descriptor, self.map, self.meas)
        self.alpha, _ = filtering.forward_init(prior, g0)
        self.next_frame = 1

    @property
    def n_nodes(self) -> int:
        return self.map.n_nodes

    def make_input(self, i):
        if self.next_frame + ONLINE_ROUND_FRAMES > len(self.query):
            self._next_query()
            self._restart()
        return ONLINE_ROUND_FRAMES

    def operate(self, i, n_frames):
        records = []
        latencies = []
        motion_params = self.params.motion
        for t in range(self.next_frame, self.next_frame + n_frames):
            frame = self.query.frames[t]
            alpha_prev = self.alpha
            t0 = time.perf_counter()
            model = motion.build_transition_model(self.map, frame.odom, motion_params)
            g = measurement.likelihood_vector(frame.descriptor, self.map, self.meas)
            self.alpha, _ = filtering.forward_step(alpha_prev, model, g)
            belief = filtering.Belief.from_vector(self.alpha)
            decision = filtering.decide(
                belief, self.map, self.params.radius_m, self.params.tau_thres
            )
            latencies.append(time.perf_counter() - t0)
            sampled = t % ONLINE_CHECK_EVERY == 0
            records.append(
                (t, self.alpha, decision, (alpha_prev, model, g) if sampled else None)
            )
        self.next_frame += n_frames
        return RoundResult(
            len(latencies), 0, sum(latencies), len(latencies), latencies, records
        )

    def check(self, inp, out):
        descriptors = self.map.descriptors
        for t, alpha, decision, sample in out.outputs:
            checks.check_belief(alpha)
            checks.check_tau(decision.tau, decision.mode, alpha[:-1], self.half_width)
            if decision.converged != (decision.tau > self.params.tau_thres):
                raise checks.CheckError(f"frame {t}: decision disagrees with its tau")
            if sample is not None:
                alpha_prev, model, g = sample
                checks.check_propagated_mass(model.propagate(alpha_prev))
                z = self.query.frames[t].descriptor
                checks.check_likelihood(g, z, descriptors, self.meas.lam, self.k)


WORKLOADS = {"lcd-s2": LcdS2, "wakeup-s2": WakeupS2, "online-large": OnlineLarge}
