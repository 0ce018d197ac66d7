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
from pathlib import Path

import pytest

from topoloc.mapping import build_map
from topoloc.simulate import builtin_scenarios, simulate_scenario
from topoloc.tasks import PipelineParams, run_lcd, run_wakeup_batch

GOLDEN = Path(__file__).parent / "data" / "golden_small.json"
TAU_ATOL = 1e-12


def golden_outputs() -> dict:
    s2 = builtin_scenarios()["S2"]
    length = 500.0
    detours = tuple(d for d in s2.query.detours if d.end_s < length)
    spec = dataclasses.replace(
        s2, length_m=length, query=dataclasses.replace(s2.query, detours=detours)
    )
    _, ref, query = simulate_scenario(spec, 0)
    map_ = build_map(ref, 2.0, 5)
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n")
