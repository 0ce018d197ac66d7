"""End-to-end command-line behavior: exit codes, file wiring, reruns."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from topoloc.cli import main
from topoloc.formats import (
    read_lcd_result,
    read_pr_curve,
    read_wakeup_results,
    write_json,
    write_map,
    write_traverse,
)
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import build_map
from topoloc.simulate import noiseless_scenario
from topoloc.traverse import Frame, Traverse


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


def test_degenerate_likelihood_exits_4(tmp_path):
    # orthogonal descriptors and a huge decay rate underflow every node's
    # likelihood to zero on the first frame
    cov = Covariance3(np.diag([0.01, 0.01, 0.001]))
    e0 = np.zeros(8, dtype=np.float32)
    e0[0] = 1.0
    e1 = np.zeros(8, dtype=np.float32)
    e1[1] = 1.0
    ref = Traverse(
        [
            Frame(e1, None if i == 0 else OdometryStep(Pose2(1.0, 0, 0), cov),
                  Pose2(float(i), 0.0, 0.0))
            for i in range(8)
        ]
    )
    write_map(tmp_path / "map.json", build_map(ref, 2.0, 3))
    query = Traverse(
        [Frame(e0), Frame(e0, OdometryStep(Pose2(1.0, 0, 0), cov))]
    )
    write_traverse(tmp_path / "q.jsonl", query)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"filter": {"lam": 5000.0}}\n')
    code = main(["lcd", "--map", str(tmp_path / "map.json"),
                 "--query", str(tmp_path / "q.jsonl"),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg)])
    assert code == 4


@pytest.mark.parametrize("field", [0, 2], ids=["dx", "dtheta"])
def test_nan_odometry_exits_3(tmp_path, smoke_dir, field):
    data = smoke_dir / "data"
    lines = (data / "query.jsonl").read_text().splitlines()
    rec = json.loads(lines[5])
    rec["odom"]["mean"][field] = float("nan")
    lines[5] = json.dumps(rec)
    (tmp_path / "q.jsonl").write_text("\n".join(lines) + "\n")
    shutil.copy(data / "query.desc.bin", tmp_path / "q.desc.bin")
    code = main(["lcd", "--map", str(data / "map.json"),
                 "--query", str(tmp_path / "q.jsonl"),
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
    curve = read_pr_curve(curve_path)
    assert curve.n_items == len(parsed.frames)
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
