"""Round-trips and strict-reader behavior for every on-disk format."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topoloc.errors import DataError
from topoloc.evaluate import label_ground_truth, score_lcd
from topoloc.formats import (
    _cast_frame_columns,
    _row_frame_columns,
    descriptor_sidecar,
    read_descriptor_matrix,
    read_labels,
    read_lcd_result,
    read_map,
    read_pr_curve,
    read_traverse,
    read_wakeup_results,
    write_descriptor_matrix,
    write_labels,
    write_lcd_result,
    write_map,
    write_pr_curve,
    write_traverse,
    write_wakeup_results,
)
from topoloc.geometry import Covariance3, OdometryStep, Pose2
from topoloc.mapping import build_map
from topoloc.tasks import LcdFrame, LcdResult, WakeupResult

from oracles import traverse_of


def _small_traverse(with_gt=True):
    rng = np.random.default_rng(11)
    cov = Covariance3(np.diag([0.04, 0.04, 0.002]))
    frames = []
    for i in range(8):
        d = rng.normal(size=12).astype(np.float32)
        d /= np.linalg.norm(d)
        odom = None
        if i:
            odom = OdometryStep(Pose2(1.0, 0.01 * i, 0.002), cov)
        gt = Pose2(float(i), 0.0, 0.0) if with_gt else None
        frames.append((d, odom, gt))
    return traverse_of(frames)


# ---------------------------------------------------------------------------
# descriptor matrices


def test_descriptor_matrix_roundtrip(tmp_path):
    m = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    p = tmp_path / "d.desc.bin"
    write_descriptor_matrix(p, m)
    back = read_descriptor_matrix(p)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, m)


def test_descriptor_matrix_rejects_corruption(tmp_path):
    p = tmp_path / "d.desc.bin"
    write_descriptor_matrix(p, np.ones((2, 3), dtype=np.float32))
    raw = bytearray(p.read_bytes())

    bad_magic = tmp_path / "m.desc.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError):
        read_descriptor_matrix(bad_magic)

    truncated = tmp_path / "t.desc.bin"
    truncated.write_bytes(bytes(raw[:-4]))
    with pytest.raises(DataError):
        read_descriptor_matrix(truncated)

    vers = bytearray(raw)
    vers[4] = 9
    (tmp_path / "v.desc.bin").write_bytes(bytes(vers))
    with pytest.raises(DataError):
        read_descriptor_matrix(tmp_path / "v.desc.bin")

    with pytest.raises(DataError):
        read_descriptor_matrix(tmp_path / "missing.desc.bin")


def test_sidecar_naming():
    assert descriptor_sidecar("a/b/run.jsonl").name == "run.desc.bin"
    assert descriptor_sidecar("a/map.json").name == "map.desc.bin"
    assert str(descriptor_sidecar("a/b/run.jsonl")).endswith("a/b/run.desc.bin")


# ---------------------------------------------------------------------------
# traverses


def test_traverse_roundtrip_exact(tmp_path):
    tr = _small_traverse()
    p = tmp_path / "q.jsonl"
    write_traverse(p, tr)
    back = read_traverse(p)
    assert len(back) == len(tr)
    for name in ("descriptors", "odom_means", "odom_covs", "gt_poses"):
        a, b = getattr(tr, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


def test_traverse_without_gt_roundtrip(tmp_path):
    tr = _small_traverse(with_gt=False)
    p = tmp_path / "q.jsonl"
    write_traverse(p, tr)
    assert not read_traverse(p).has_gt


def test_traverse_write_is_deterministic(tmp_path):
    tr = _small_traverse()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_traverse(a, tr)
    write_traverse(b, read_traverse(a))
    assert a.read_bytes() == b.read_bytes()
    assert descriptor_sidecar(a).read_bytes() == descriptor_sidecar(b).read_bytes()


def test_traverse_reader_is_strict(tmp_path):
    tr = _small_traverse()
    p = tmp_path / "q.jsonl"
    write_traverse(p, tr)

    lines = p.read_text().splitlines()

    # frame count must match the sidecar row count
    (tmp_path / "short.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    descriptor_sidecar(tmp_path / "short.jsonl").write_bytes(
        descriptor_sidecar(p).read_bytes()
    )
    with pytest.raises(DataError):
        read_traverse(tmp_path / "short.jsonl")

    # unknown key
    mangled = lines[:]
    mangled[0] = mangled[0][:-1] + ',"extra":1}'
    (tmp_path / "extra.jsonl").write_text("\n".join(mangled) + "\n")
    descriptor_sidecar(tmp_path / "extra.jsonl").write_bytes(
        descriptor_sidecar(p).read_bytes()
    )
    with pytest.raises(DataError):
        read_traverse(tmp_path / "extra.jsonl")

    # out-of-order t
    swapped = [lines[1], lines[0]] + lines[2:]
    (tmp_path / "order.jsonl").write_text("\n".join(swapped) + "\n")
    descriptor_sidecar(tmp_path / "order.jsonl").write_bytes(
        descriptor_sidecar(p).read_bytes()
    )
    with pytest.raises(DataError):
        read_traverse(tmp_path / "order.jsonl")

    # non-positive-definite covariance
    broken = [ln.replace("0.04", "-0.04") for ln in lines]
    (tmp_path / "cov.jsonl").write_text("\n".join(broken) + "\n")
    descriptor_sidecar(tmp_path / "cov.jsonl").write_bytes(
        descriptor_sidecar(p).read_bytes()
    )
    with pytest.raises(DataError):
        read_traverse(tmp_path / "cov.jsonl")


def _rewrite_frames(tmp_path, name, edit):
    """A copy of a written traverse whose frame records went through ``edit``."""
    src = tmp_path / "src.jsonl"
    write_traverse(src, _small_traverse())
    recs = [json.loads(ln) for ln in src.read_text().splitlines()]
    edit(recs)
    p = tmp_path / f"{name}.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
    descriptor_sidecar(p).write_bytes(descriptor_sidecar(src).read_bytes())
    return p


def _odom_on_first(recs):
    recs[0]["odom"] = recs[1]["odom"]


def _null_odom_later(recs):
    recs[3]["odom"] = None


def _partial_gt(recs):
    recs[4]["gt_pose"] = None


@pytest.mark.parametrize(
    "edit,message",
    [
        (_odom_on_first, "frame 0: the first frame must not carry odometry"),
        (_null_odom_later, "frame 3: odom"),
        (_partial_gt, "ground truth must be present on all frames or none"),
    ],
    ids=["odom-on-frame-0", "null-odom-later", "partial-gt"],
)
def test_traverse_row_rules(tmp_path, edit, message):
    p = _rewrite_frames(tmp_path, "bad", edit)
    with pytest.raises(DataError) as info:
        read_traverse(p)
    assert str(info.value).startswith(str(p))
    assert message in str(info.value)


def test_written_traverse_is_cast_by_column(tmp_path):
    src = tmp_path / "src.jsonl"
    for with_gt in (True, False):
        write_traverse(src, _small_traverse(with_gt))
        recs = [json.loads(ln) for ln in src.read_text().splitlines()]
        fast = _cast_frame_columns(recs)
        rows = _row_frame_columns(src, recs)
        assert fast is not None
        for a, b in zip(fast, rows):
            assert (a is None and b is None) or (a.dtype == b.dtype and a.tolist() == b.tolist())


def _integral_pose(recs):
    recs[2]["gt_pose"][0] = 2  # was 2.0


def _integral_cov(recs):
    recs[1]["odom"]["cov"][1] = 0  # was 0.0


def _true_mean(recs):
    recs[2]["odom"]["mean"][0] = True


def _nan_pose(recs):
    recs[2]["gt_pose"][1] = float("nan")  # json.dumps writes the token NaN


def _short_mean(recs):
    recs[3]["odom"]["mean"] = recs[3]["odom"]["mean"][:2]


def _extra_key(recs):
    recs[5]["extra"] = 1


def _swapped_t(recs):
    recs[1], recs[2] = recs[2], recs[1]


# Files the written form does not cover take the row rule: the same values
# or the same error as a reader that checks every row.
@pytest.mark.parametrize(
    "edit,message",
    [
        (_integral_pose, None),
        (_integral_cov, None),
        (_true_mean, " frame 2: odom.mean[0]: expected a finite number, got True"),
        (_nan_pose, " frame 2: gt_pose[1]: expected a finite number, got nan"),
        (_short_mean, " frame 3: odom.mean: expected an array of 3, got [1.0, 0.03]"),
        (_extra_key, " frame 5: unknown keys ['extra']"),
        (_swapped_t, " frame 1: out-of-order t=2"),
        (_partial_gt, ": ground truth must be present on all frames or none"),
    ],
    ids=["int-pose", "int-cov", "true", "nan-token", "short-mean", "extra-key",
         "out-of-order-t", "partial-gt"],
)
def test_traverse_outside_the_written_form_reads_by_row(tmp_path, edit, message):
    p = _rewrite_frames(tmp_path, "bad", edit)
    recs = [json.loads(ln) for ln in p.read_text().splitlines()]
    assert _cast_frame_columns(recs) is None
    if message is None:
        back, tr = read_traverse(p), _small_traverse()
        for name in ("descriptors", "odom_means", "odom_covs", "gt_poses"):
            a, b = getattr(tr, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        return
    with pytest.raises(DataError) as info:
        read_traverse(p)
    assert str(info.value) == f"{p}{message}"


# ---------------------------------------------------------------------------
# maps


def test_map_roundtrip_exact(tmp_path):
    m = build_map(_small_traverse(), 2.0, 3)
    p = tmp_path / "map.json"
    write_map(p, m)
    back = read_map(p)
    assert back.n_nodes == m.n_nodes
    assert back.window == m.window
    assert back.node_spacing == m.node_spacing
    assert back.frame_indices == m.frame_indices
    np.testing.assert_array_equal(back.descriptors, m.descriptors)
    np.testing.assert_array_equal(back.gt_poses, m.gt_poses)
    for a, b in zip(m.edge_geometry, back.edge_geometry):
        np.testing.assert_array_equal(a, b)


def test_map_write_is_deterministic(tmp_path):
    # same basename in two directories: the document embeds the sidecar name
    m = build_map(_small_traverse(), 2.0, 3)
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    a, b = tmp_path / "one" / "map.json", tmp_path / "two" / "map.json"
    write_map(a, m)
    write_map(b, read_map(a))
    assert a.read_bytes() == b.read_bytes()


def test_map_reader_is_strict(tmp_path):
    import json

    m = build_map(_small_traverse(), 2.0, 3)
    p = tmp_path / "map.json"
    write_map(p, m)
    doc = json.loads(p.read_text())

    dup = dict(doc)
    dup["band"] = doc["band"] + [doc["band"][0]]
    q = tmp_path / "dup.json"
    q.write_text(json.dumps(dup))
    descriptor_sidecar(q).write_bytes(descriptor_sidecar(p).read_bytes())
    with pytest.raises(DataError):
        read_map(q)

    bad_edge = dict(doc)
    bad_edge["band"] = doc["band"] + [[0, 99, 1.0, 0.0, 0.0]]
    q = tmp_path / "edge.json"
    q.write_text(json.dumps(bad_edge))
    descriptor_sidecar(q).write_bytes(descriptor_sidecar(p).read_bytes())
    with pytest.raises(DataError):
        read_map(q)

    extra = dict(doc)
    extra["surprise"] = True
    q = tmp_path / "extra.json"
    q.write_text(json.dumps(extra))
    descriptor_sidecar(q).write_bytes(descriptor_sidecar(p).read_bytes())
    with pytest.raises(DataError):
        read_map(q)

    with pytest.raises(DataError):
        read_map(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# results, labels, curves


def test_lcd_result_roundtrip(tmp_path):
    res = LcdResult(
        frames=[LcdFrame(0, 3, 0.125, 0.0625), LcdFrame(1, 4, 0.96875, 0.5)],
        lam=0.7311,
    )
    p = tmp_path / "lcd.jsonl"
    write_lcd_result(p, res)
    back = read_lcd_result(p)
    assert back.lam == res.lam
    assert [(f.t, f.proposal, f.tau, f.mode_mass) for f in back.frames] == [
        (f.t, f.proposal, f.tau, f.mode_mass) for f in res.frames
    ]


def test_lcd_reader_rejects_bad_headers(tmp_path):
    res = LcdResult(frames=[LcdFrame(0, 0, 0.5, 0.5)], lam=1.0)
    p = tmp_path / "lcd.jsonl"
    write_lcd_result(p, res)
    lines = p.read_text().splitlines()

    (tmp_path / "kind.jsonl").write_text(
        lines[0].replace("lcd", "wakeup") + "\n" + "\n".join(lines[1:]) + "\n"
    )
    with pytest.raises(DataError):
        read_lcd_result(tmp_path / "kind.jsonl")

    (tmp_path / "count.jsonl").write_text(lines[0] + "\n")
    with pytest.raises(DataError):
        read_lcd_result(tmp_path / "count.jsonl")

    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(DataError):
        read_lcd_result(tmp_path / "empty.jsonl")

    mangled = lines[1][:-1] + ',"debug":true}'
    (tmp_path / "field.jsonl").write_text(lines[0] + "\n" + mangled + "\n")
    with pytest.raises(DataError):
        read_lcd_result(tmp_path / "field.jsonl")


def test_wakeup_results_roundtrip(tmp_path):
    results = [
        WakeupResult(0, 10, True, 4, 7, 0.97, 12.0),
        WakeupResult(1, 55, False, 30, None, 0.42, 90.0),
    ]
    p = tmp_path / "wk.jsonl"
    write_wakeup_results(p, results)
    back = read_wakeup_results(p)
    assert back == results


def test_labels_roundtrip(tmp_path):
    m = build_map(_small_traverse(), 2.0, 3)
    q = _small_traverse()
    labels = label_ground_truth(q, m, tol_m=2.5, tol_deg=20.0)
    p = tmp_path / "labels.jsonl"
    write_labels(p, labels)
    back = read_labels(p)
    assert back.tol_m == 2.5 and back.tol_deg == 20.0
    np.testing.assert_array_equal(back.within_map, labels.within_map)
    np.testing.assert_array_equal(back.true_node, labels.true_node)
    for a, b in zip(labels.ok_nodes, back.ok_nodes):
        assert a.tolist() == b.tolist()


def test_labels_reader_rejects_mistyped_fields(tmp_path):
    import json

    labels = label_ground_truth(_small_traverse(), build_map(_small_traverse(), 2.0, 3))
    p = tmp_path / "labels.jsonl"
    write_labels(p, labels)
    lines = p.read_text().splitlines()
    for line, key, value in [(1, "ok_nodes", None), (1, "within_map", 1),
                             (1, "true_node", 1.5), (0, "tol_m", "5")]:
        rec = json.loads(lines[line])
        rec[key] = value
        bad = list(lines)
        bad[line] = json.dumps(rec)
        q = tmp_path / "bad.jsonl"
        q.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataError, match=key):
            read_labels(q)


def _small_curve():
    m = build_map(_small_traverse(), 2.0, 3)
    q = _small_traverse()
    labels = label_ground_truth(q, m)
    res = LcdResult(
        frames=[LcdFrame(t, 0, 0.1 + 0.07 * t, 0.5) for t in range(len(q))],
        lam=1.0,
    )
    return score_lcd(res, labels)


def _assert_same_curve(back, curve):
    for name in ("thresholds", "precision", "recall", "tp", "fp", "fn", "tn"):
        a, b = getattr(curve, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


def test_pr_curve_roundtrip_exact(tmp_path):
    curve = _small_curve()
    p = tmp_path / "pr.csv"
    write_pr_curve(p, curve)
    _assert_same_curve(read_pr_curve(p), curve)


def test_pr_curve_reader_is_strict(tmp_path):
    p = tmp_path / "pr.csv"
    p.write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError):
        read_pr_curve(p)

    p.write_text("threshold,precision,recall,tp,fp,fn,tn\n")
    with pytest.raises(DataError):
        read_pr_curve(p)

    p.write_text("threshold,precision,recall,tp,fp,fn,tn\n0.5,1.0,1.0,1,0\n")
    with pytest.raises(DataError):
        read_pr_curve(p)

    # a NaN threshold, an infinite recall, an underscored count
    for row in ("nan,1.0,0.0,0,0,1,0", "-1.0,1.0,inf,0,0,1,0", "-1.0,1.0,0.0,0,0,1_0,0"):
        p.write_text(f"threshold,precision,recall,tp,fp,fn,tn\n{row}\n")
        with pytest.raises(DataError):
            read_pr_curve(p)

    # counts that do not partition a fixed item set
    p.write_text(
        "threshold,precision,recall,tp,fp,fn,tn\n"
        "-1.0,1.0,1.0,2,0,0,0\n"
        "0.5,1.0,0.5,1,0,0,0\n"
    )
    with pytest.raises(DataError):
        read_pr_curve(p)


@pytest.fixture(scope="module")
def written_curve(tmp_path_factory):
    root = tmp_path_factory.mktemp("curve")
    curve = _small_curve()
    write_pr_curve(root / "pr.csv", curve)
    return root, curve


# single-field changes, each of which breaks a row of seven JSON numbers
_CURVE_CHANGES = ["nan", "inf", "NaN", "Infinity", "1e999", "x", "1_0", "", "drop", "extra"]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pr_curve_reader_rejects_every_single_field_change(written_curve, data):
    root, curve = written_curve
    _assert_same_curve(read_pr_curve(root / "pr.csv"), curve)
    lines = (root / "pr.csv").read_text().splitlines()
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    col = data.draw(st.integers(0, 6), label="column")
    change = data.draw(st.sampled_from(_CURVE_CHANGES), label="change")
    fields = lines[row].split(",")
    if change == "drop":
        del fields[col]
    elif change == "extra":
        fields.insert(col + 1, fields[col])
    else:
        fields[col] = change
    lines[row] = ",".join(fields)
    mutated = root / "mutated.csv"
    mutated.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_pr_curve(mutated)
