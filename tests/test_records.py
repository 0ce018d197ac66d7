"""The typed-record rule: casts, error paths, and single-field corruptions.

The property tests start from documents the package wrote (an lcd result,
a wakeup result, a config file, a scenario file, a traverse
and the band rows of a map) and change one field, or one number of a
traverse's poses and covariances or of a band row: set it to null, a
string, a bool, a non-integral number or NaN, drop it, or add a key beside
it (an item after it).  Whether a change breaks the rule is decided here
from the value the package wrote, not from the reader: NaN and an addition
always do; null does unless the field is optional or already null; a
string, a bool or a non-integral number does unless the field already held
one of that kind; dropping does unless the field has a default.  Readers
must raise ``DataError`` or ``ConfigError`` on every breach and nothing else
on any change, and the CLI must exit 2 or 3 on every breach, never 1.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topoloc import formats
from topoloc._records import read_record
from topoloc.cli import main
from topoloc.config import Config
from topoloc.errors import ConfigError, DataError
from topoloc.mapping import build_map
from topoloc.measurement import MeasurementParams
from topoloc.motion import MotionParams
from topoloc.simulate import Detour, ScenarioSpec, noiseless_scenario, simulate_scenario
from topoloc.tasks import LcdFrame, PipelineParams, WakeupResult, run_lcd, run_wakeup_batch

# ---------------------------------------------------------------------------
# the rule on single records


def test_casts_follow_annotations():
    cfg = Config.from_dict({"map": {"window": 4.0}, "filter": {"lam": 3, "rho": 2}})
    assert cfg.map.window == 4 and type(cfg.map.window) is int
    assert cfg.filter.lam == 3.0 and type(cfg.filter.lam) is float
    assert cfg.filter.rho == 2.0 and type(cfg.filter.rho) is float
    assert cfg.task == Config().task
    params = Config.from_dict({"filter": {"off_self": 0.8, "k_frac": 0.5}}).filter
    assert params.motion == MotionParams(off_self=0.8)
    assert params.measurement == MeasurementParams(k_frac=0.5)
    assert dataclasses.replace(params, mode="no_off").motion.mode == "no_off"


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"filter": {"k_min": True}}, "filter.k_min"),
        ({"filter": {"k_frac": False}}, "filter.k_frac"),
        ({"filter": {"forward_only": 0}}, "filter.forward_only"),
        ({"filter": {"rho": 10**400}}, "filter.rho"),
        ({"filter": {"rho": float("inf")}}, "filter.rho"),
        ({"filter": {"mode": 3}}, "filter.mode"),
        ({"task": {"seed": float("nan")}}, "task.seed"),
        ({"task": []}, "task"),
    ],
)
def test_type_breaches_name_the_field(doc, path):
    with pytest.raises(ConfigError, match=rf"^{path}: expected"):
        Config.from_dict(doc)


def test_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match=r"^unknown keys \['lambda'\]"):
        PipelineParams.from_dict({"lambda": 1.0})
    with pytest.raises(ConfigError, match=r"^missing keys \['end_s'\]"):
        Detour.from_dict({"start_s": 1.0})
    with pytest.raises(ConfigError, match="expected a JSON object"):
        Config.from_dict([1, 2])


def test_nested_paths_and_own_validation():
    spec = noiseless_scenario().to_dict()
    spec["query"]["detours"] = [{"start_s": 9.0, "end_s": 40.0, "offset_m": "wide"}]
    msg = r"query\.detours\[0\]\.offset_m: expected a finite number"
    with pytest.raises(ConfigError, match=msg):
        ScenarioSpec.from_dict(spec, where="scen.json")
    spec["query"]["detours"] = [{"start_s": 9.0, "end_s": 4.0}]
    with pytest.raises(ConfigError, match=r"^scen\.json: query\.detours\[0\]: detour end_s"):
        ScenarioSpec.from_dict(spec, where="scen.json")
    with pytest.raises(DataError, match=r"^m\.json: filter: lam must be positive"):
        read_record(Config, {"filter": {"lam": -1.0}}, DataError, "m.json")
    with pytest.raises(ConfigError, match=r"^filter: off_self must lie in \[0, 1\)$"):
        Config.from_dict({"filter": {"off_self": 1.0}})


def test_round_trips_keep_their_dicts():
    assert Config().to_dict() == {
        "map": {"node_spacing": 2.0, "window": 5},
        "filter": {
            "mode": "full", "off_self": 0.9, "no_odom_off": 0.01, "lam": None,
            "k_frac": 0.02, "k_min": 10, "rho": 2.718281828459045, "p0_off": 0.1,
            "radius_m": 3.0, "tau_thres": 0.95, "forward_only": False,
        },
        "task": {"max_steps": 30, "n_trials": 500, "seed": 0},
    }
    detour = Detour(5.0, 9.0)
    assert detour.to_dict() == {"start_s": 5.0, "end_s": 9.0, "offset_m": 14.0}
    assert Detour.from_dict(detour.to_dict()) == detour


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    # compared as text, so a key out of order fails too
    assert json.dumps(json.loads(block)) == json.dumps(Config().to_dict())


# ---------------------------------------------------------------------------
# single-field corruptions of documents the package wrote

_OPTIONAL = {"lam", "proposal", "gt_poses"}
_NONINTEGRAL = 2.5


def _objects(value, arrays: bool, path=()):
    """Every JSON object inside ``value``, with the keys and indices leading to it.

    With ``arrays``, every non-empty array of numbers too.
    """
    if isinstance(value, dict):
        yield path, value
        for k, v in value.items():
            yield from _objects(v, arrays, path + (k,))
    elif isinstance(value, list):
        if arrays and value and all(_kind(v) in ("int", "float") for v in value):
            yield path, value
        for i, v in enumerate(value):
            yield from _objects(v, arrays, path + (i,))


def _kind(value) -> str:
    return {bool: "bool", int: "int", float: "float", str: "str"}.get(type(value), "other")


def _breaks_rule(written, mutation, key: str, droppable: bool) -> bool | None:
    """Whether the change breaks the rule; ``None`` when that depends on more."""
    if mutation in ("nan", "add"):
        return True
    if mutation == "drop":
        return not droppable
    if mutation == "null":
        return key not in _OPTIONAL and written is not None
    if written is None:  # a null field: its type is not on the page
        return None
    wanted = {"string": "str", "bool": "bool", "number": "float"}[mutation]
    return None if _kind(written) == wanted else True


_NEW_VALUE = {
    "null": None, "string": "x", "bool": True, "number": _NONINTEGRAL, "nan": math.nan,
}


def _mutate(doc, data, arrays: bool):
    """Apply one drawn change to a copy of ``doc`` (a list of JSON lines).

    With ``arrays``, the change may hit one number of an array of numbers.
    """
    doc = json.loads(json.dumps(doc))
    line = data.draw(st.integers(0, len(doc) - 1), label="line")
    objects = list(_objects(doc[line], arrays))
    path, obj = objects[data.draw(st.integers(0, len(objects) - 1), label="object")]
    keys = sorted(obj) if isinstance(obj, dict) else range(len(obj))
    key = data.draw(st.sampled_from(keys), label="key")
    mutation = data.draw(st.sampled_from(["drop", "add", *_NEW_VALUE]), label="mutation")
    written = obj[key]
    if mutation == "drop":
        del obj[key]
    elif mutation == "add" and isinstance(obj, dict):
        obj["surplus"] = 1.0
    elif mutation == "add":
        obj.insert(key + 1, 1.0)
    else:
        obj[key] = _NEW_VALUE[mutation]
    return doc, (line, path), key, written, mutation


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Documents the package wrote, each a list of JSON lines, plus a smoke map."""
    root = tmp_path_factory.mktemp("records")
    spec = dataclasses.replace(noiseless_scenario(), length_m=300.0, descriptor_dim=8)
    spec = dataclasses.replace(
        spec,
        query=dataclasses.replace(spec.query, margin_m=0.0, detours=(Detour(120.0, 150.0),)),
    )
    _, ref, query = simulate_scenario(spec, 0)
    map_ = build_map(ref, 2.0, 5)
    formats.write_map(root / "map.json", map_)
    formats.write_traverse(root / "query.jsonl", query)
    params = Config().filter
    formats.write_lcd_result(root / "lcd.jsonl", run_lcd(map_, query, params))
    formats.write_wakeup_results(
        root / "wakeup.jsonl", run_wakeup_batch(map_, query, 3, 0, 5, params)
    )
    docs = {
        kind: [json.loads(ln) for ln in (root / f"{kind}.jsonl").read_text().splitlines()]
        for kind in ("lcd", "wakeup")
    }
    docs["config"] = [Config().to_dict()]
    docs["scenario"] = [spec.to_dict()]
    docs["traverse"] = [json.loads((root / "query.jsonl").read_text())]
    docs["map"] = json.loads((root / "map.json").read_text())["band"]
    return root, docs


_ARRAYS = {"traverse", "map"}  # kinds whose changes may hit one number of an array


def _write_mutated(root, kind, doc, name):
    """Write ``doc`` as a file of ``kind``; a traverse or map names the sidecar beside it."""
    if kind == "map":
        full = json.loads((root / "map.json").read_text())
        full["band"] = doc
        path = root / f"{name}.json"
        path.write_text(json.dumps(full))
        return path
    path = root / f"{name}.jsonl"
    _write_lines(path, doc)  # a traverse is its one document, on one line
    return path


def _droppable(kind: str, where, key: str) -> bool:
    """Whether the written record gives ``key`` a default."""
    _, path = where
    if kind == "config":
        return True
    if kind == "scenario":
        if len(path) == 1:  # a route spec
            return True
        return len(path) == 3 and key == "offset_m"  # a detour
    return False


def _write_lines(path, doc) -> None:
    path.write_text("\n".join(json.dumps(rec) for rec in doc) + "\n")


_READERS = {
    "lcd": (formats.read_lcd_result, DataError),
    "wakeup": (formats.read_wakeup_results, DataError),
    "traverse": (formats.read_traverse, DataError),
    "map": (formats.read_map, DataError),
}
_KINDS = ["lcd", "wakeup", "config", "scenario", "traverse", "map"]


_FIXTURE_OK = [HealthCheck.function_scoped_fixture]  # the fixtures are read-only


@settings(max_examples=420, deadline=None, suppress_health_check=_FIXTURE_OK)
@given(kind=st.sampled_from(_KINDS), data=st.data())
def test_readers_reject_every_single_field_breach(written, kind, data):
    root, docs = written
    doc, where, key, was, mutation = _mutate(docs[kind], data, kind in _ARRAYS)
    breach = _breaks_rule(was, mutation, key, _droppable(kind, where, key))
    if kind in _READERS:
        reader, error = _READERS[kind]
        path = _write_mutated(root, kind, doc, f"mutated-{kind}")
        call = lambda: reader(path)  # noqa: E731
    else:
        cls, error = {"config": Config, "scenario": ScenarioSpec}[kind], ConfigError
        call = lambda: cls.from_dict(doc[0])  # noqa: E731
    try:
        call()
    except (DataError, ConfigError) as exc:
        assert isinstance(exc, error), exc
    else:
        assert not breach, f"{kind} {where} {key} {mutation} was accepted"


@settings(max_examples=90, deadline=None, suppress_health_check=_FIXTURE_OK)
@given(kind=st.sampled_from(["lcd", "wakeup", "config", "scenario", "traverse", "map"]),
       data=st.data())
def test_cli_exits_2_or_3_on_every_single_field_breach(written, capsys, kind, data):
    root, docs = written
    doc, where, key, was, mutation = _mutate(docs[kind], data, kind in _ARRAYS)
    breach = _breaks_rule(was, mutation, key, _droppable(kind, where, key))
    mutated = _write_mutated(root, kind, doc, f"cli-{kind}")
    inputs = ["--map", str(root / "map.json"), "--query", str(root / "query.jsonl")]
    if kind in _ARRAYS:
        inputs[3 if kind == "traverse" else 1] = str(mutated)
        argv = ["lcd", *inputs, "--out", str(root / "r.jsonl")]
        expected = 3
    elif kind in ("lcd", "wakeup"):
        argv = ["eval", "--task", kind, "--results", str(mutated), *inputs,
                "--out-curve", str(root / "pr.csv")]
        expected = 3
    elif kind == "config":
        argv = ["lcd", *inputs, "--out", str(root / "r.jsonl"), "--config", str(mutated)]
        expected = 2
    else:
        argv = ["simulate", "--scenario", str(mutated), "--out", str(root / "sim")]
        expected = 2
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if breach:
        assert code == expected, f"{kind} {where} {key} {mutation}: exit {code}"
    if code:
        assert err.startswith("topoloc: ") and err.count("\n") == 1, err


def test_written_documents_read_back(written):
    root, docs = written
    assert len(formats.read_lcd_result(root / "lcd.jsonl").frames) == len(docs["lcd"]) - 1
    trials = formats.read_wakeup_results(root / "wakeup.jsonl")
    assert all(isinstance(t, WakeupResult) for t in trials) and len(trials) == 3
    assert isinstance(read_record(LcdFrame, docs["lcd"][1], DataError), LcdFrame)
