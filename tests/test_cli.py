"""End-to-end command-line behavior: exit codes, file wiring, reruns."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topoloc
from topoloc.cli import main
from topoloc.config import Config
from topoloc.evaluate import LABEL_TOL_DEG, LABEL_TOL_M, label_ground_truth, score_lcd
from topoloc.formats import (
    read_lcd_result,
    read_map,
    read_traverse,
    read_wakeup_results,
    write_json,
    write_map,
    write_pr_curve,
    write_traverse,
)
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import build_map
from topoloc.simulate import builtin_scenarios, noiseless_scenario

from oracles import traverse_of


def test_cli_import_loads_no_scipy():
    # the runtime is numpy only; scipy is for tests
    src = str(Path(topoloc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, topoloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    """A small scenario rendered once: scenario file plus simulate outputs."""
    root = tmp_path_factory.mktemp("smoke")
    spec = dataclasses.replace(
        noiseless_scenario(), name="SMOKE", length_m=400.0, descriptor_dim=32
    )
    scen = root / "scenario.json"
    write_json(scen, spec.to_dict())
    data = root / "data"
    assert main(["simulate", "--scenario", str(scen), "--seed", "3",
                 "--out", str(data)]) == 0
    assert main(["build-map", "--reference", str(data / "reference.jsonl"),
                 "--out", str(data / "map.json")]) == 0
    return root


def test_unknown_scenario_exits_2(tmp_path):
    assert main(["simulate", "--scenario", "S9", "--out", str(tmp_path)]) == 2


def test_bad_config_key_exits_2(tmp_path, smoke_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"filter": {"lambda": 1.0}}\n')
    data = smoke_dir / "data"
    code = main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
    assert code == 2


def test_missing_input_exits_3(tmp_path):
    code = main(["build-map", "--reference", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "map.json")])
    assert code == 3


@pytest.mark.parametrize("command", ["lcd", "eval", "simulate"])
def test_directory_as_input_file_exits_cleanly(tmp_path, smoke_dir, capsys, command):
    data = smoke_dir / "data"
    inputs = ["--map", str(data / "map.json"), "--query", str(data / "query.jsonl")]
    argv, code, kind = {
        "lcd": (["lcd", "--map", str(tmp_path), *inputs[2:],
                 "--out", str(tmp_path / "r.jsonl")], 3, "data"),
        "eval": (["eval", "--task", "lcd", "--results", str(tmp_path), *inputs,
                  "--out-curve", str(tmp_path / "pr.csv")], 3, "data"),
        "simulate": (["simulate", "--scenario", str(tmp_path),
                      "--out", str(tmp_path / "sim")], 2, "config"),
    }[command]
    assert main(argv) == code
    assert str(tmp_path) in _one_error_line(capsys, kind)


def test_degenerate_likelihood_exits_4(tmp_path):
    # orthogonal descriptors and a huge decay rate underflow every node's
    # likelihood to zero on the first frame
    cov = Covariance3(np.diag([0.01, 0.01, 0.001]))
    e0 = np.zeros(8, dtype=np.float32)
    e0[0] = 1.0
    e1 = np.zeros(8, dtype=np.float32)
    e1[1] = 1.0
    ref = traverse_of(
        [
            (e1, None if i == 0 else OdometryStep(Pose2(1.0, 0, 0), cov),
             Pose2(float(i), 0.0, 0.0))
            for i in range(8)
        ]
    )
    write_map(tmp_path / "map.json", build_map(ref, 2.0, 3))
    query = traverse_of([(e0, None, None), (e0, OdometryStep(Pose2(1.0, 0, 0), cov), None)])
    write_traverse(tmp_path / "q.jsonl", query)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"filter": {"lam": 5000.0}}\n')
    code = main(["lcd", "--map", str(tmp_path / "map.json"),
                 "--query", str(tmp_path / "q.jsonl"),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
    assert code == 4


def _edited_query(tmp_path, data, edit):
    """``q.jsonl``: the smoke query's document after ``edit``, beside a copy of its sidecar."""
    doc = json.loads((data / "query.jsonl").read_text())
    edit(doc)
    doc["descriptor_file"] = "q.desc.bin"
    shutil.copy(data / "query.desc.bin", tmp_path / "q.desc.bin")
    (tmp_path / "q.jsonl").write_text(json.dumps(doc) + "\n")
    return tmp_path / "q.jsonl"


@pytest.mark.parametrize("field", [0, 2], ids=["dx", "dtheta"])
def test_nan_odometry_exits_3(tmp_path, smoke_dir, field):
    data = smoke_dir / "data"
    query = _edited_query(
        tmp_path, data, lambda doc: doc["odom_means"][4].__setitem__(field, float("nan"))
    )
    code = main(["lcd", "--map", str(data / "map.json"), "--query", str(query),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 3


def test_string_and_bool_odometry_exit_3(tmp_path, smoke_dir, capsys):
    data = smoke_dir / "data"
    query = _edited_query(
        tmp_path, data, lambda doc: doc["odom_means"].__setitem__(0, ["1.5", True, 0])
    )
    code = main(["lcd", "--map", str(data / "map.json"), "--query", str(query),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "q.jsonl: odom_means[0][0]: expected a finite number" in _one_error_line(capsys, "data")


@pytest.mark.parametrize("mode", ["full", "no_off"])
@pytest.mark.parametrize("task", ["lcd", "wakeup"])
def test_overflowing_odometry_exits_3(tmp_path, smoke_dir, capsys, task, mode):
    # a reader-valid step whose squared Mahalanobis distance to every edge overflows
    data = smoke_dir / "data"

    def edit(doc):
        doc["odom_means"][4] = [100.0, 0.0, 0.0]
        doc["odom_covs"][4] = [1e-306, 0, 0, 1e-306, 0, 1e-306]

    query = _edited_query(tmp_path, data, edit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"mode": mode}}))
    code = main([task, "--map", str(data / "map.json"), "--query", str(query),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
    assert code == 3
    assert "odometry step [100.0, 0.0, 0.0] overflows" in _one_error_line(capsys, "data")


@pytest.mark.parametrize("sidecar", ["query", "map"])
def test_nan_descriptor_exits_3(tmp_path, smoke_dir, sidecar):
    data = smoke_dir / "data"
    for name in ("query.jsonl", "query.desc.bin", "map.json", "map.desc.bin"):
        shutil.copy(data / name, tmp_path / name)
    desc = tmp_path / f"{sidecar}.desc.bin"
    raw = bytearray(desc.read_bytes())
    cols = int(np.frombuffer(raw, dtype="<u4", count=1, offset=12)[0])
    at = 16 + 4 * (5 * cols + 3)  # row 5, column 3, after the 16-byte header
    raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    desc.write_bytes(bytes(raw))
    code = main(["lcd", "--map", str(tmp_path / "map.json"),
                 "--query", str(tmp_path / "query.jsonl"),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 3


def test_lcd_then_eval_chain(tmp_path, smoke_dir, capsys):
    data = smoke_dir / "data"
    res = tmp_path / "results.jsonl"
    assert main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"), "--out", str(res)]) == 0
    parsed = read_lcd_result(res)
    assert len(parsed.frames) > 50

    curve_path = tmp_path / "pr.csv"
    summary_path = tmp_path / "summary.json"
    labels_path = tmp_path / "labels.jsonl"
    assert main(["eval", "--task", "lcd", "--results", str(res),
                 "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"),
                 "--out-curve", str(curve_path),
                 "--out-summary", str(summary_path),
                 "--out-labels", str(labels_path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["task"] == "lcd"
    assert summary["n_items"] == len(parsed.frames)
    # a noiseless query on its own map localizes essentially perfectly
    assert summary["recall_at_precision"]["0.99"] > 0.9
    labels = label_ground_truth(read_traverse(data / "query.jsonl"), read_map(data / "map.json"))
    write_pr_curve(tmp_path / "expected.csv", score_lcd(parsed, labels))
    assert curve_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert json.loads(summary_path.read_text()) == summary
    assert labels_path.exists()


def test_wakeup_cli_and_eval(tmp_path, smoke_dir, capsys):
    data = smoke_dir / "data"
    res = tmp_path / "wk.jsonl"
    assert main(["wakeup", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"), "--out", str(res),
                 "--n-trials", "12", "--max-steps", "10",
                 "--trial-seed", "4"]) == 0
    trials = read_wakeup_results(res)
    assert len(trials) == 12
    assert main(["eval", "--task", "wakeup", "--results", str(res),
                 "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"),
                 "--out-curve", str(tmp_path / "pr.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["task"] == "wakeup"
    assert summary["n_converged"] <= 12


def test_run_then_rerun_byte_identical(tmp_path, smoke_dir, capsys):
    scen = smoke_dir / "scenario.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"task": {"n_trials": 8, "max_steps": 10, "seed": 5}}\n')
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--scenario", str(scen), "--seed", "2",
                 "--task", "wakeup", "--out", str(a),
                 "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(a / "manifest.json"),
                 "--out", str(b)]) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_rerun_rejects_non_manifest(tmp_path):
    bogus = tmp_path / "m.json"
    bogus.write_text('{"command": "stroll"}\n')
    assert main(["rerun", "--manifest", str(bogus),
                 "--out", str(tmp_path / "o")]) == 3


def test_forward_only_flag_changes_results(tmp_path, smoke_dir):
    # the flag must reach the pipeline: under noise-free input the two modes
    # agree on proposals, so compare on the recorded tau stream instead
    data = smoke_dir / "data"
    sm = tmp_path / "sm.jsonl"
    fw = tmp_path / "fw.jsonl"
    assert main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"), "--out", str(sm)]) == 0
    assert main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"), "--out", str(fw),
                 "--forward-only"]) == 0
    t_sm = read_lcd_result(sm).taus()
    t_fw = read_lcd_result(fw).taus()
    assert not np.array_equal(t_sm, t_fw)


def _one_error_line(capsys, kind: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"topoloc: {kind} error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "text",
    [
        '{"filter": {"k_min": "abc"}}',
        '{"map": 5}',
        '{"filter": {"lam": "x"}}',
        '{"filter": {"forward_only": "false"}}',
        '{"map": {"window": 2.7}}',
        '{"map": {"window": 1}}',
        '{"task": {"n_trials": 0}}',
        '{"task": {"max_steps": 0}}',
        '{"filter": {',
    ],
)
def test_mistyped_config_exits_2(tmp_path, smoke_dir, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text + "\n")
    data = smoke_dir / "data"
    code = main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(data / "query.jsonl"),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
    assert code == 2
    _one_error_line(capsys, "config")


def _detour_typo(spec: dict) -> None:
    detour = spec["query"]["detours"][0]
    detour["ofset_m"] = detour.pop("offset_m")


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda spec: spec.update(colour="red"), "colour"),
        (_detour_typo, "ofset_m"),
        # a key that scenario files named before route aliasing was removed
        (lambda spec: spec["query"].update(detour_alias=False), "detour_alias"),
    ],
    ids=["top-level", "detour", "detour_alias"],
)
def test_scenario_file_with_unknown_key_exits_2(tmp_path, capsys, mutate, key):
    spec = builtin_scenarios()["S2"].to_dict()
    mutate(spec)
    scen = tmp_path / "scen.json"
    write_json(scen, spec)
    assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)]) == 2
    assert f"unknown keys ['{key}']" in _one_error_line(capsys, "config")


def test_rerun_of_manifest_with_detour_geometry_exits_3(tmp_path, smoke_dir, capsys):
    # manifests written before polyline detours were removed name "geometry": null
    spec = json.loads((smoke_dir / "scenario.json").read_text())
    spec["query"]["detours"] = [{"start_s": 150.0, "end_s": 200.0, "offset_m": 14.0}]
    scen = tmp_path / "scen.json"
    write_json(scen, spec)
    run = tmp_path / "run"
    assert main(["run", "--scenario", str(scen), "--out", str(run)]) == 0
    capsys.readouterr()
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["scenario"]["query"]["detours"][0]["geometry"] = None
    old = tmp_path / "old.json"
    write_json(old, manifest)
    assert main(["rerun", "--manifest", str(old), "--out", str(tmp_path / "again")]) == 3
    assert "unknown keys ['geometry']" in _one_error_line(capsys, "data")


def test_scenario_object_of_scenario_json_replays(tmp_path, smoke_dir):
    data = smoke_dir / "data"
    recorded = json.loads((data / "scenario.json").read_text())
    assert main(["simulate", "--scenario", str(data / "scenario.json"),
                 "--out", str(tmp_path / "wrapped")]) == 2
    scen = tmp_path / "scen.json"
    write_json(scen, recorded["scenario"])
    out = tmp_path / "again"
    assert main(["simulate", "--scenario", str(scen),
                 "--seed", str(recorded["seed"]), "--out", str(out)]) == 0
    for name in ("reference.jsonl", "query.jsonl", "scenario.json"):
        assert (out / name).read_bytes() == (data / name).read_bytes(), name


@pytest.fixture(scope="module")
def smoke_results(smoke_dir):
    """lcd and wakeup results files for the smoke scenario."""
    data = smoke_dir / "data"
    paths = {"lcd": smoke_dir / "lcd.jsonl", "wakeup": smoke_dir / "wakeup.jsonl"}
    for task, path in paths.items():
        extra = ["--n-trials", "6"] if task == "wakeup" else []
        assert main([task, "--map", str(data / "map.json"),
                     "--query", str(data / "query.jsonl"), "--out", str(path),
                     *extra]) == 0
    return paths


@pytest.mark.parametrize(
    "task,line,key,value",
    [
        ("lcd", 1, "tau", None),
        ("lcd", 0, "n_frames", "x"),
        ("wakeup", 1, "converged", "no"),
        ("wakeup", 0, "n_trials", 6.5),
    ],
)
def test_mistyped_results_exit_3(tmp_path, smoke_dir, smoke_results, capsys,
                                 task, line, key, value):
    assert _eval_edited(tmp_path, smoke_dir, smoke_results, task, line, {key: value}) == 3
    assert f"{key}: expected" in _one_error_line(capsys, "data")


def _eval_edited(tmp_path, smoke_dir, smoke_results, task, line, changes) -> int:
    """``eval``'s exit code on the smoke results with ``changes`` made to one line."""
    lines = smoke_results[task].read_text().splitlines()
    lines[line] = json.dumps({**json.loads(lines[line]), **changes})
    res = tmp_path / "r.jsonl"
    res.write_text("\n".join(lines) + "\n")
    data = smoke_dir / "data"
    return main(["eval", "--task", task, "--results", str(res),
                 "--map", str(data / "map.json"), "--query", str(data / "query.jsonl"),
                 "--out-curve", str(tmp_path / "pr.csv")])


@pytest.mark.parametrize(
    "task,changes,message",
    [
        ("lcd", {"proposal": -1}, "frame 0 proposes a negative node"),
        ("wakeup", {"start": -3, "steps_used": 1}, "trial 0 decision frame outside the labels"),
        ("wakeup", {"converged": True, "proposal": -1}, "trial 0 converged with proposal -1,"),
        ("wakeup", {"converged": True, "proposal": None}, "trial 0 converged with proposal None,"),
        ("wakeup", {"start": 10, "steps_used": -5}, "trial 0 steps_used -5 is below 1"),
        ("wakeup", {"steps_used": 0}, "trial 0 steps_used 0 is below 1"),
    ],
)
def test_negative_frames_and_proposals_exit_3(tmp_path, smoke_dir, smoke_results, capsys,
                                               task, changes, message):
    # numpy would wrap a negative frame to the end of the labels, and a negative
    # proposal's pair key would name the previous frame's last node
    assert _eval_edited(tmp_path, smoke_dir, smoke_results, task, 1, changes) == 3
    assert message in _one_error_line(capsys, "data")


def test_mistyped_map_exits_3(tmp_path, smoke_dir, smoke_results, capsys):
    data = smoke_dir / "data"
    doc = json.loads((data / "map.json").read_text())
    doc["n_nodes"] = "x"
    write_json(tmp_path / "map.json", doc)
    shutil.copy(data / "map.desc.bin", tmp_path / "map.desc.bin")
    code = main(["eval", "--task", "lcd", "--results", str(smoke_results["lcd"]),
                 "--map", str(tmp_path / "map.json"),
                 "--query", str(data / "query.jsonl"),
                 "--out-curve", str(tmp_path / "pr.csv")])
    assert code == 3
    _one_error_line(capsys, "data")


@pytest.mark.parametrize(
    "flags", [["--repeats", "0"], ["--n-nodes", "3"], ["--dim", "0"], ["--window", "1"]]
)
def test_bad_bench_arguments_exit_2(capsys, flags):
    assert main(["bench", *flags]) == 2
    _one_error_line(capsys, "config")


@pytest.mark.parametrize(
    "flag, value", [("--tol-m", "0"), ("--tol-m", "nan"), ("--tol-m", "inf"), ("--tol-deg", "-5")]
)
def test_bad_eval_tolerance_exits_2(tmp_path, smoke_dir, smoke_results, capsys, flag, value):
    data = smoke_dir / "data"
    code = main(["eval", "--task", "lcd", "--results", str(smoke_results["lcd"]),
                 "--map", str(data / "map.json"), "--query", str(data / "query.jsonl"),
                 "--out-curve", str(tmp_path / "pr.csv"),
                 "--out-labels", str(tmp_path / "labels.jsonl"), flag, value])
    assert code == 2
    assert flag in _one_error_line(capsys, "config")
    assert not (tmp_path / "labels.jsonl").exists()


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "0"])
def test_bad_node_spacing_flag_exits_2(tmp_path, smoke_dir, capsys, value):
    code = main(["build-map", "--reference", str(smoke_dir / "data" / "reference.jsonl"),
                 "--out", str(tmp_path / "map.json"), "--node-spacing", value])
    assert code == 2
    assert "node_spacing must be positive and finite" in _one_error_line(capsys, "config")
    assert not (tmp_path / "map.json").exists()


@pytest.mark.parametrize(
    "command",
    ["build-map", "lcd", "wakeup", "eval-curve", "eval-summary", "eval-labels",
     "simulate", "run", "rerun", "bench"],
)
def test_unwritable_output_exits_3(tmp_path, smoke_dir, smoke_results, capsys, command):
    (tmp_path / "file").write_text("a regular file\n")
    bad = str(tmp_path / "file" / "x")
    data = smoke_dir / "data"
    inputs = ["--map", str(data / "map.json"), "--query", str(data / "query.jsonl")]
    manifest = tmp_path / "manifest.json"
    write_json(manifest, {"command": "run", "task": "lcd",
                          "scenario": noiseless_scenario().to_dict(), "seed": 0,
                          "config": Config().to_dict(), "tol_m": LABEL_TOL_M,
                          "tol_deg": LABEL_TOL_DEG})
    evaluate = ["eval", "--task", "lcd", "--results", str(smoke_results["lcd"]), *inputs,
                "--out-curve", str(tmp_path / "pr.csv")]
    argv = {
        "build-map": ["build-map", "--reference", str(data / "reference.jsonl"), "--out", bad],
        "lcd": ["lcd", *inputs, "--out", bad],
        "wakeup": ["wakeup", *inputs, "--n-trials", "2", "--out", bad],
        "eval-curve": [*evaluate[:-1], bad],
        "eval-summary": [*evaluate, "--out-summary", bad],
        "eval-labels": [*evaluate, "--out-labels", bad],
        "simulate": ["simulate", "--scenario", "S0", "--out", bad],
        "run": ["run", "--scenario", "S0", "--out", bad],
        "rerun": ["rerun", "--manifest", str(manifest), "--out", bad],
        "bench": ["bench", "--n-nodes", "20", "--dim", "4", "--repeats", "1", "--out", bad],
    }[command]
    assert main(argv) == 3
    err = _one_error_line(capsys, "data")
    assert bad in err and ": cannot write: Not a directory" in err  # a sidecar is x.desc.bin
    if command in ("eval-summary", "eval-labels"):  # the curve written first is removed
        assert not (tmp_path / "pr.csv").exists()


def test_negative_seed_exits_3(tmp_path, capsys):
    assert main(["simulate", "--scenario", "S0", "--seed", "-1",
                 "--out", str(tmp_path)]) == 3
    _one_error_line(capsys, "data")
