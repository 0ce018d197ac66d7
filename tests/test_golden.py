"""Outputs pinned on a small noisy scenario, to a stated tolerance.

``tests/data/golden_small.json`` holds the LCD and wakeup outputs of a
shortened S2 (500 m with its first detour, seed 0, default parameters).
Discrete outputs must match exactly; taus, whose floating-point sums may be
reordered by a vectorised kernel, must match within 1e-12 absolute.

Regenerate the file (only when outputs change on purpose) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topoloc
from topoloc.filtering import run_forward, smooth_pass
from topoloc.mapping import build_map
from topoloc.simulate import builtin_scenarios, simulate_scenario
from topoloc.tasks import PipelineParams, run_lcd, run_wakeup_batch

from oracles import slice_forward_backward

GOLDEN = Path(__file__).parent / "data" / "golden_small.json"
TAU_ATOL = 1e-12


def golden_problem():
    """The shortened S2 map and query the golden file was made from."""
    s2 = builtin_scenarios()["S2"]
    length = 500.0
    detours = tuple(d for d in s2.query.detours if d.end_s < length)
    spec = dataclasses.replace(
        s2, length_m=length, query=dataclasses.replace(s2.query, detours=detours)
    )
    _, ref, query = simulate_scenario(spec, 0)
    return build_map(ref, 2.0, 5), query


def golden_outputs() -> dict:
    map_, query = golden_problem()
    params = PipelineParams()
    lcd = run_lcd(map_, query, params)
    trials = run_wakeup_batch(map_, query, 40, 7, 30, params)
    return {
        "lcd": {
            "lam": lcd.lam,
            "proposals": lcd.proposals().tolist(),
            "taus": lcd.taus().tolist(),
        },
        "wakeup": [dataclasses.asdict(r) for r in trials],
    }


def test_outputs_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden_outputs()
    assert got["lcd"]["lam"] == want["lcd"]["lam"]
    assert got["lcd"]["proposals"] == want["lcd"]["proposals"]
    assert got["lcd"]["taus"] == pytest.approx(want["lcd"]["taus"], rel=0, abs=TAU_ATOL)
    assert len(got["wakeup"]) == len(want["wakeup"])
    for g, w in zip(got["wakeup"], want["wakeup"]):
        for key in ("trial", "start", "converged", "steps_used", "proposal"):
            assert g[key] == w[key], (w["trial"], key)
        assert g["distance_traveled"] == w["distance_traveled"]
        assert g["tau"] == pytest.approx(w["tau"], rel=0, abs=TAU_ATOL)


def test_lcd_passes_equal_the_slice_loops_bit_for_bit(monkeypatch):
    # run_lcd's forward and backward passes against one slice product per
    # offset and step, the form the golden file was made with, fed the same
    # likelihoods and transitions
    import topoloc.tasks as tasks_mod

    seen = {}

    def keep_trace(prior, transitions, likelihoods):
        seen["prior"] = prior
        trace = run_forward(prior, transitions, likelihoods)
        # run_lcd's smoothing writes over the forward messages: keep them
        seen["trace"] = dataclasses.replace(trace, alphas=trace.alphas.copy())
        return trace

    def keep_smoothed(trace):
        seen["smoothed"] = smooth_pass(trace)
        return seen["smoothed"]

    map_, query = golden_problem()
    monkeypatch.setattr(tasks_mod, "run_forward", keep_trace)
    monkeypatch.setattr(tasks_mod, "smooth_pass", keep_smoothed)
    run_lcd(map_, query, PipelineParams())
    trace = seen["trace"]
    alphas, scales, smoothed = slice_forward_backward(
        seen["prior"].vector, trace.transitions, trace.likelihoods
    )
    assert len(query) > 100
    assert np.array_equal(trace.alphas, alphas)
    assert np.array_equal(trace.scales, scales)
    assert np.array_equal(seen["smoothed"], smoothed)


def test_outputs_do_not_depend_on_the_blas_pool_size():
    # stacks and distances are built in row blocks whose BLAS calls run side by
    # side, with OpenBLAS's own threads or without them: the same bits either way
    path = os.pathsep.join([str(Path(topoloc.__file__).parents[1]), str(GOLDEN.parents[1])])
    script = "import json, test_golden; print(json.dumps(test_golden.golden_outputs()))"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=600, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert len(outputs[0]["wakeup"]) == 40
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n")
