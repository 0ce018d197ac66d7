"""Command-line entry point.

Subcommands cover the whole workflow: ``simulate`` renders benchmark
traverses, ``build-map`` turns a reference traverse into a map, ``lcd`` and
``wakeup`` run the two localization tasks, ``eval`` scores results against
ground truth, ``run`` chains all of that for one scenario and records a
manifest, ``rerun`` replays a manifest byte for byte, and ``bench`` times
the inference hot path.

File-producing commands are quiet on success; set ``TOPOLOC_VERBOSE=1`` for
progress lines on stderr.  ``eval``, ``run`` and ``bench`` print a JSON
summary on stdout.  Exit codes: 0 success, 2 configuration error, 3 malformed
or inconsistent data, 4 degenerate inference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import formats
from ._records import read_record, record_dict
from .bench import run_benchmark
from .config import Config
from .errors import ConfigError, DataError, MeasurementDegenerateError
from .evaluate import label_ground_truth, recall_at_precision, score_lcd, score_wakeup
from .mapping import build_map
from .motion import MOTION_MODES
from .simulate import (
    ScenarioSpec,
    builtin_scenarios,
    noiseless_scenario,
    simulate_scenario,
)
from .tasks import run_lcd, run_wakeup_batch

log = logging.getLogger("topoloc")

_TOL_M = 5.0
_TOL_DEG = 30.0


def _resolve_scenario(name: str) -> ScenarioSpec:
    scenarios = builtin_scenarios()
    scenarios["S0"] = noiseless_scenario()
    if name in scenarios:
        return scenarios[name]
    p = Path(name)
    if p.exists():
        try:
            raw = formats.read_json(p)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        return ScenarioSpec.from_dict(raw, where=str(p))
    raise ConfigError(
        f"unknown scenario {name!r}; builtins are {sorted(scenarios)} "
        "and anything else must be a scenario JSON file"
    )


# flags that override a config value: (section, key, flag)
_OVERRIDES = (
    ("map", "node_spacing", "node_spacing"),
    ("map", "window", "window"),
    ("filter", "mode", "mode"),
    ("filter", "forward_only", "forward_only"),
    ("task", "n_trials", "n_trials"),
    ("task", "max_steps", "max_steps"),
    ("task", "seed", "trial_seed"),
)


def _load_config(args) -> Config:
    """Defaults, overridden by ``--config``, overridden by explicit flags."""
    cfg = Config()
    if getattr(args, "config", None):
        cfg = Config.from_dict(formats.read_json(args.config), where=args.config)
    for section, key, flag in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            part = dataclasses.replace(getattr(cfg, section), **{key: value})
            cfg = dataclasses.replace(cfg, **{section: part})
    return cfg


def _cmd_simulate(args) -> int:
    spec = _resolve_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, ref, query = simulate_scenario(spec, args.seed)
    formats.write_traverse(out / "reference.jsonl", ref)
    formats.write_traverse(out / "query.jsonl", query)
    formats.write_json(
        out / "scenario.json", {"scenario": spec.to_dict(), "seed": int(args.seed)}
    )
    log.info(
        "scenario %s seed %d: %d reference frames, %d query frames -> %s",
        spec.name,
        args.seed,
        len(ref),
        len(query),
        out,
    )
    return 0


def _cmd_build_map(args) -> int:
    cfg = _load_config(args)
    reference = formats.read_traverse(args.reference)
    map_ = build_map(reference, cfg.map.node_spacing, cfg.map.window)
    formats.write_map(args.out, map_)
    log.info("built map with %d nodes -> %s", map_.n_nodes, args.out)
    return 0


def _localize(task: str, map_, query, cfg: Config):
    """Run ``lcd`` or a ``wakeup`` batch and return what its results file holds."""
    params = cfg.filter.pipeline_params()
    if task == "lcd":
        return run_lcd(map_, query, params)
    t = cfg.task
    return run_wakeup_batch(map_, query, t.n_trials, t.seed, t.max_steps, params)


def _write_results(task: str, path, results) -> None:
    if task == "lcd":
        formats.write_lcd_result(path, results)
    else:
        formats.write_wakeup_results(path, results)


def _cmd_localize(args) -> int:
    cfg = _load_config(args)
    map_ = formats.read_map(args.map)
    query = formats.read_traverse(args.query)
    _write_results(args.command, args.out, _localize(args.command, map_, query, cfg))
    log.info("%s results -> %s", args.command, args.out)
    return 0


def _summarize(task: str, results, labels):
    """Precision-recall curve and JSON summary of lcd or wakeup results."""
    if task == "lcd":
        curve, extra = score_lcd(results, labels), {}
    else:
        score = score_wakeup(results, labels)
        curve = score.curve
        extra = {
            "n_converged": int(sum(r.converged for r in results)),
            "mean_distance_at_0.95": score.mean_distance_at(0.95),
        }
    recalls = {f"{p:.2f}": recall_at_precision(curve, p) for p in (0.90, 0.95, 0.99)}
    summary = {"task": task, "n_items": int(curve.n_items), "recall_at_precision": recalls}
    return curve, {**summary, **extra}


def _cmd_eval(args) -> int:
    for flag, tol in (("--tol-m", args.tol_m), ("--tol-deg", args.tol_deg)):
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {tol}")
    map_ = formats.read_map(args.map)
    query = formats.read_traverse(args.query)
    labels = label_ground_truth(query, map_, args.tol_m, args.tol_deg)
    if args.task == "lcd":
        results = formats.read_lcd_result(args.results)
    else:
        results = formats.read_wakeup_results(args.results)
    curve, summary = _summarize(args.task, results, labels)
    formats.write_pr_curve(args.out_curve, curve)
    if args.out_labels:
        formats.write_labels(args.out_labels, labels)
    if args.out_summary:
        formats.write_json(args.out_summary, summary)
    print(json.dumps(summary, indent=2))
    return 0


@dataclasses.dataclass(frozen=True)
class _Manifest:
    """Everything ``run`` needs, recorded so ``rerun`` can replay it."""

    command: str
    task: str
    scenario: ScenarioSpec
    seed: int
    config: Config
    tol_m: float
    tol_deg: float

    def __post_init__(self):
        if self.command != "run":
            raise DataError("not a run manifest")
        if self.task not in ("lcd", "wakeup"):
            raise DataError(f"manifest names unknown task {self.task!r}")


def _execute_run(manifest: _Manifest, out: Path) -> int:
    cfg = manifest.config
    out.mkdir(parents=True, exist_ok=True)
    _, ref, query = simulate_scenario(manifest.scenario, manifest.seed)
    formats.write_traverse(out / "reference.jsonl", ref)
    formats.write_traverse(out / "query.jsonl", query)
    map_ = build_map(ref, cfg.map.node_spacing, cfg.map.window)
    formats.write_map(out / "map.json", map_)
    labels = label_ground_truth(query, map_, manifest.tol_m, manifest.tol_deg)
    formats.write_labels(out / "labels.jsonl", labels)

    results = _localize(manifest.task, map_, query, cfg)
    _write_results(manifest.task, out / "results.jsonl", results)
    curve, summary = _summarize(manifest.task, results, labels)
    formats.write_pr_curve(out / "pr.csv", curve)
    formats.write_json(out / "summary.json", summary)
    formats.write_json(out / "manifest.json", record_dict(manifest))
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_run(args) -> int:
    manifest = _Manifest(
        command="run",
        task=args.task,
        scenario=_resolve_scenario(args.scenario),
        seed=args.seed,
        config=_load_config(args),
        tol_m=_TOL_M,
        tol_deg=_TOL_DEG,
    )
    return _execute_run(manifest, Path(args.out))


def _cmd_rerun(args) -> int:
    raw = formats.read_json(args.manifest)
    manifest = read_record(_Manifest, raw, DataError, args.manifest)
    return _execute_run(manifest, Path(args.out))


def _cmd_bench(args) -> int:
    report = run_benchmark(args.n_nodes, args.dim, args.repeats, args.seed, args.window)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (defaults apply otherwise)")


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=MOTION_MODES,
        help="motion-model variant (overrides the config file)",
    )
    p.add_argument(
        "--forward-only",
        action="store_true",
        default=None,
        help="skip backward smoothing and decide on filtered beliefs",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoloc",
        description="topometric localization: simulate, map, localize, evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a benchmark scenario to disk")
    p.add_argument("--scenario", required=True, help="builtin name (S1, S2, S3) or JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-map", help="build a map from a reference traverse")
    p.add_argument("--reference", required=True, help="reference traverse (.jsonl)")
    p.add_argument("--out", required=True, help="map file to write (.json)")
    p.add_argument("--node-spacing", type=float, help="metres between nodes")
    p.add_argument("--window", type=int, help="relative-pose band width")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("lcd", help="loop-closure detection over a query traverse")
    p.add_argument("--map", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True, help="results file to write (.jsonl)")
    _add_config_flag(p)
    _add_filter_flags(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("wakeup", help="batch of global-localization trials")
    p.add_argument("--map", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True, help="results file to write (.jsonl)")
    p.add_argument("--n-trials", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--trial-seed", type=int, help="seed for the start-frame draw")
    _add_config_flag(p)
    _add_filter_flags(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--task", choices=("lcd", "wakeup"), required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out-curve", required=True, help="precision-recall CSV to write")
    p.add_argument("--out-summary", help="summary JSON to write")
    p.add_argument("--out-labels", help="ground-truth labels JSONL to write")
    p.add_argument("--tol-m", type=float, default=_TOL_M)
    p.add_argument("--tol-deg", type=float, default=_TOL_DEG)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="simulate, map, localize and score in one go")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--task", choices=("lcd", "wakeup"), default="lcd")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flag(p)
    _add_filter_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("rerun", help="replay a recorded run byte for byte")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_rerun)

    p = sub.add_parser("bench", help="time the per-step inference stages")
    p.add_argument("--n-nodes", type=int, default=3000)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        format="%(message)s",
        level=logging.INFO if os.environ.get("TOPOLOC_VERBOSE") else logging.WARNING,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"topoloc: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"topoloc: data error: {exc}", file=sys.stderr)
        return 3
    except MeasurementDegenerateError as exc:
        print(f"topoloc: inference failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
