"""Round-trips and strict-reader behavior for every on-disk format."""

import json
import shutil

import numpy as np
import pytest

from topoloc.errors import DataError
from topoloc.evaluate import label_ground_truth, score_lcd
from topoloc.formats import (
    descriptor_sidecar,
    read_descriptor_matrix,
    read_lcd_result,
    read_map,
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
    # same basename in two directories: the document embeds the sidecar name
    tr = _small_traverse()
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    a, b = tmp_path / "one" / "q.jsonl", tmp_path / "two" / "q.jsonl"
    write_traverse(a, tr)
    write_traverse(b, read_traverse(a))
    assert a.read_bytes() == b.read_bytes()
    assert descriptor_sidecar(a).read_bytes() == descriptor_sidecar(b).read_bytes()


def _rewrite_document(tmp_path, name, edit):
    """A copy of a written traverse whose document went through ``edit``.

    The copy names the written sidecar, ``src.desc.bin``, which sits beside it.
    """
    src = tmp_path / "src.jsonl"
    write_traverse(src, _small_traverse())
    doc = json.loads(src.read_text())
    edit(doc)
    p = tmp_path / f"{name}.jsonl"
    p.write_text(json.dumps(doc) + "\n")
    return p


def _old_frame_lines(doc):
    """The traverse as one object per frame, the form this package once wrote."""
    odoms = [None] + [{"mean": m, "cov": c} for m, c in zip(doc["odom_means"], doc["odom_covs"])]
    return "\n".join(
        json.dumps({"t": t, "gt_pose": gt, "odom": odom})
        for t, (gt, odom) in enumerate(zip(doc["gt_poses"], odoms))
    )


def _set(name, row, col, value):
    """An edit that sets row ``row`` of ``name``, or its entry ``col``, to ``value``."""
    def edit(doc):
        if col is None:
            doc[name][row] = value
        else:
            doc[name][row][col] = value

    return edit


def test_traverse_reader_is_strict(tmp_path):
    cases = [
        (lambda doc: doc["gt_poses"].pop(),
         "gt_poses: 7 rows, expected 8 for the 8 frames of src.desc.bin"),
        (lambda doc: doc["odom_covs"].pop(),
         "odom_covs: 6 rows, expected 7 for the 8 frames of src.desc.bin"),
        (lambda doc: doc["odom_means"].pop(),
         "odom_means: 6 rows, expected 7 for the 8 frames of src.desc.bin"),
        (_set("odom_covs", 3, 0, -0.04), "odometry covariance of frame 4 must be positive definite"),
        (_set("odom_means", 2, 1, "0.02"), "odom_means[2][1]: expected a finite number"),
    ]
    for i, (edit, message) in enumerate(cases):
        p = _rewrite_document(tmp_path, f"bad{i}", edit)
        with pytest.raises(DataError) as info:
            read_traverse(p)
        assert str(info.value).startswith(f"{p}: {message}"), info.value

    # the sidecar the document names must exist
    p = _rewrite_document(tmp_path, "gone", lambda doc: doc.update(descriptor_file="gone.desc.bin"))
    with pytest.raises(DataError, match="gone.desc.bin: cannot read: No such file"):
        read_traverse(p)

    # one object per frame, the old form, is no traverse document
    old = tmp_path / "old.jsonl"
    old.write_text(_old_frame_lines(json.loads((tmp_path / "src.jsonl").read_text())) + "\n")
    shutil.copy(tmp_path / "src.desc.bin", tmp_path / "old.desc.bin")
    with pytest.raises(DataError) as info:
        read_traverse(old)
    assert str(info.value).startswith(f"{old}: invalid JSON: Extra data")
    one_frame = tmp_path / "one.jsonl"
    one_frame.write_text(old.read_text().splitlines()[0] + "\n")
    with pytest.raises(DataError) as info:
        read_traverse(one_frame)
    assert str(info.value).startswith(f"{one_frame}: unknown keys ['gt_pose', 'odom', 't']")


# A cast by the record rule: ints read as the same floats, anything else
# that is not an array of finite numbers of the declared width fails.
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc["odom_means"].insert(0, doc["odom_means"][0]),
         ": odom_means: 8 rows, expected 7 for the 8 frames of src.desc.bin"),
        (_set("odom_means", 2, None, None), ": odom_means[2]: expected an array of 3, got None"),
        (_set("gt_poses", 4, None, None), ": gt_poses[4]: expected an array of 3, got None"),
        (_set("gt_poses", 2, 0, 2), None),  # was 2.0
        (_set("odom_covs", 0, 1, 0), None),  # was 0.0
        (_set("odom_means", 1, 0, True), ": odom_means[1][0]: expected a finite number, got True"),
        (_set("gt_poses", 2, 1, float("nan")),  # json.dumps writes the token NaN
         ": gt_poses[2][1]: expected a finite number, got nan"),
        (lambda doc: doc["odom_means"][2].pop(),
         ": odom_means[2]: expected an array of 3, got [1.0, 0.03]"),
        (lambda doc: doc.update(extra=1), ": unknown keys ['extra']"),
    ],
    ids=["odom-on-frame-0", "null-odom-later", "partial-gt", "int-pose", "int-cov", "true",
         "nan-token", "short-mean", "extra-key"],
)
def test_traverse_row_rules(tmp_path, edit, message):
    p = _rewrite_document(tmp_path, "bad", edit)
    if message is None:
        back, tr = read_traverse(p), _small_traverse()
        for name in ("descriptors", "odom_means", "odom_covs", "gt_poses"):
            a, b = getattr(tr, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        return
    with pytest.raises(DataError) as info:
        read_traverse(p)
    assert str(info.value) == f"{p}{message}"


def _gt_on_some_frames(doc):
    for row in (3, 6, 7):
        doc["gt_poses"][row] = None


# The writer puts ground truth on every frame or on none; a document with it
# on some frames only is read row by row, and the first bad row is named.
@pytest.mark.parametrize(
    "edit,message",
    [(_gt_on_some_frames, ": gt_poses[3]: expected an array of 3, got None")],
    ids=["partial-gt"],
)
def test_traverse_outside_the_written_form_reads_by_row(tmp_path, edit, message):
    p = _rewrite_document(tmp_path, "bad", edit)
    with pytest.raises(DataError) as info:
        read_traverse(p)
    assert str(info.value) == f"{p}{message}"


@pytest.mark.parametrize("kind", ["traverse", "map"])
def test_unwritable_document_leaves_no_sidecar(tmp_path, kind):
    tr = _small_traverse()
    doc = tmp_path / ("t.jsonl" if kind == "traverse" else "m.json")
    doc.mkdir()
    with pytest.raises(DataError, match=f"^{doc}: cannot write: Is a directory"):
        if kind == "traverse":
            write_traverse(doc, tr)
        else:
            write_map(doc, build_map(tr, 2.0, 3))
    assert not descriptor_sidecar(doc).exists()


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


def test_labels_file_holds_each_label(tmp_path):
    m = build_map(_small_traverse(), 2.0, 3)
    labels = label_ground_truth(_small_traverse(), m, tol_m=2.5, tol_deg=20.0)
    p = tmp_path / "labels.jsonl"
    write_labels(p, labels)
    head, *rows = [json.loads(ln) for ln in p.read_text().splitlines()]
    assert head == {"kind": "labels", "tol_m": 2.5, "tol_deg": 20.0, "n_frames": len(labels)}
    assert len(rows) == len(labels)
    for t, row in enumerate(rows):
        assert row == {
            "t": t,
            "within_map": bool(labels.within_map[t]),
            "true_node": int(labels.true_node[t]),
            "ok_nodes": labels.ok_nodes[t].tolist(),
        }
        assert type(row["within_map"]) is bool and type(row["true_node"]) is int


def test_pr_curve_file_holds_each_operating_point(tmp_path):
    m = build_map(_small_traverse(), 2.0, 3)
    q = _small_traverse()
    res = LcdResult(
        frames=[LcdFrame(t, 0, 0.1 + 0.07 * t, 0.5) for t in range(len(q))],
        lam=1.0,
    )
    curve = score_lcd(res, label_ground_truth(q, m))
    p = tmp_path / "pr.csv"
    write_pr_curve(p, curve)
    header, *rows = p.read_text().splitlines()
    assert header == "threshold,precision,recall,tp,fp,fn,tn"
    assert len(rows) == len(curve.thresholds)
    columns = zip(*([json.loads(v) for v in row.split(",")] for row in rows))
    for name, kind, col in zip(
        ("thresholds", "precision", "recall", "tp", "fp", "fn", "tn"),
        (float, float, float, int, int, int, int),
        columns,
    ):
        assert {type(v) for v in col} == {kind}, name
        assert list(col) == getattr(curve, name).tolist(), name
