"""On-disk formats: every byte this package reads or writes goes through here.

Formats
-------
Descriptor matrix (``.desc.bin``)
    Binary: magic ``TLDM``, then three little-endian u32 (version, rows,
    cols), then ``rows * cols`` little-endian float32 values, row major.
Traverse (``.jsonl`` plus sidecar ``.desc.bin``)
    One JSON object per frame with keys ``t``, ``gt_pose`` (``[x, y, theta]``
    or null) and ``odom`` (null on the first frame, else ``{"mean": [dx, dy,
    dtheta], "cov": [xx, xy, xt, yy, yt, tt]}``).  Descriptor row ``t`` of
    the sidecar belongs to frame ``t``.
Map (``.json`` plus sidecar ``.desc.bin``)
    Single JSON document; the relative-pose band is stored as rows
    ``[i, j, dx, dy, dtheta]`` for every edge ``i -> j`` the band covers.
Results, labels (``.jsonl``)
    A header object naming the kind, then one object per record whose keys
    are exactly the result dataclass fields.
Precision-recall curve (``.csv``)
    Header ``threshold,precision,recall,tp,fp,fn,tn`` and one row per
    operating point.

Writers are deterministic: fixed key order, compact separators, and
shortest-roundtrip float text, so identical inputs produce identical bytes.
Readers validate strictly and raise ``DataError`` on any malformed input.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .evaluate import GroundTruthLabel, PrCurve
from .geometry import Covariance3, OdometryStep, Pose2
from .mapping import TopometricMap
from .tasks import LcdFrame, LcdResult, WakeupResult
from .traverse import Frame, Traverse

__all__ = [
    "descriptor_sidecar",
    "read_descriptor_matrix",
    "read_json",
    "read_labels",
    "read_lcd_result",
    "read_map",
    "read_pr_curve",
    "read_traverse",
    "read_wakeup_results",
    "write_descriptor_matrix",
    "write_json",
    "write_labels",
    "write_lcd_result",
    "write_map",
    "write_pr_curve",
    "write_traverse",
    "write_wakeup_results",
]

_MAGIC = b"TLDM"
_VERSION = 1


# ---------------------------------------------------------------------------
# low-level helpers


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    """Write a JSON document with a stable layout (2-space indent)."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def _parse_jsonl(path) -> list:
    records = []
    for ln, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{ln}: invalid JSON: {exc}") from exc
    return records


def _require_keys(rec, keys: set, where: str) -> None:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: expected a JSON object")
    if set(rec) != keys:
        missing = keys - set(rec)
        extra = set(rec) - keys
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unexpected {sorted(extra)}")
        raise DataError(f"{where}: {', '.join(parts)}")


def _floats(values, n: int, where: str) -> list[float]:
    if not isinstance(values, list) or len(values) != n:
        raise DataError(f"{where}: expected a list of {n} numbers")
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: expected a list of {n} numbers") from exc
    if not all(math.isfinite(v) for v in out):
        raise DataError(f"{where}: expected finite numbers, got {out}")
    return out


# ---------------------------------------------------------------------------
# descriptor matrices


def write_descriptor_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise DataError("descriptor matrix must be 2-D")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_descriptor_matrix(path) -> np.ndarray:
    data = _read_bytes(path)
    if len(data) < 16 or data[:4] != _MAGIC:
        raise DataError(f"{path}: not a descriptor-matrix file")
    version, rows, cols = struct.unpack("<III", data[4:16])
    if version != _VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    expected = 16 + 4 * rows * cols
    if len(data) != expected:
        raise DataError(
            f"{path}: size mismatch, header says {rows}x{cols} "
            f"({expected} bytes) but file has {len(data)}"
        )
    out = np.frombuffer(data, dtype="<f4", offset=16).reshape(rows, cols).astype(
        np.float32
    )
    if not np.isfinite(out).all():
        raise DataError(f"{path}: descriptor matrix holds a non-finite value")
    return out


def descriptor_sidecar(path) -> Path:
    """Path of the descriptor file that accompanies a traverse or map file."""
    p = Path(path)
    stem = p.name
    for suffix in (".jsonl", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return p.with_name(stem + ".desc.bin")


# ---------------------------------------------------------------------------
# traverses


def _pose_to_list(p: Pose2) -> list[float]:
    return [p.dx, p.dy, p.dtheta]


def _pose_from_list(values, where: str) -> Pose2:
    return Pose2(*_floats(values, 3, where))


def write_traverse(path, traverse: Traverse) -> None:
    """Write frames to ``path`` (JSONL) and descriptors to the sidecar file."""
    p = Path(path)
    write_descriptor_matrix(descriptor_sidecar(p), traverse.descriptor_matrix())
    lines = []
    for t, fr in enumerate(traverse.frames):
        odom = None
        if fr.odom is not None:
            odom = {
                "mean": _pose_to_list(fr.odom.mean),
                "cov": [float(v) for v in fr.odom.cov.to_upper()],
            }
        rec = {
            "t": t,
            "gt_pose": None if fr.gt_pose is None else _pose_to_list(fr.gt_pose),
            "odom": odom,
        }
        lines.append(_dumps(rec))
    p.write_text("\n".join(lines) + "\n")


def read_traverse(path) -> Traverse:
    p = Path(path)
    matrix = read_descriptor_matrix(descriptor_sidecar(p))
    records = _parse_jsonl(p)
    if len(records) != matrix.shape[0]:
        raise DataError(
            f"{p}: {len(records)} frames but descriptor file has "
            f"{matrix.shape[0]} rows"
        )
    frames = []
    for t, rec in enumerate(records):
        where = f"{p} frame {t}"
        _require_keys(rec, {"t", "gt_pose", "odom"}, where)
        if rec["t"] != t:
            raise DataError(f"{where}: out-of-order t={rec['t']}")
        gt = rec["gt_pose"]
        odom = rec["odom"]
        step = None
        if odom is not None:
            _require_keys(odom, {"mean", "cov"}, f"{where} odom")
            try:
                cov = Covariance3.from_upper(_floats(odom["cov"], 6, f"{where} cov"))
            except ValueError as exc:
                raise DataError(f"{where}: invalid covariance: {exc}") from exc
            step = OdometryStep(
                mean=_pose_from_list(odom["mean"], f"{where} mean"), cov=cov
            )
        frames.append(
            Frame(
                descriptor=matrix[t],
                odom=step,
                gt_pose=None if gt is None else _pose_from_list(gt, where),
            )
        )
    return Traverse(frames)


# ---------------------------------------------------------------------------
# maps


def write_map(path, map_: TopometricMap) -> None:
    """Write a map document to ``path`` and its descriptors to the sidecar."""
    p = Path(path)
    sidecar = descriptor_sidecar(p)
    write_descriptor_matrix(sidecar, map_.descriptors)
    n = map_.n_nodes
    band_rows = []
    for i in range(n):
        for k in range(1, map_.window):
            j = i + k
            if j > n - 1:
                break
            row = map_.band[i, k]
            band_rows.append([i, j, float(row[0]), float(row[1]), float(row[2])])
    gt = None
    if map_.gt_poses is not None:
        gt = [[float(v) for v in row] for row in map_.gt_poses]
    doc = {
        "n_nodes": n,
        "window": map_.window,
        "node_spacing": map_.node_spacing,
        "descriptor_dim": map_.descriptor_dim,
        "descriptor_file": sidecar.name,
        "band": band_rows,
        "gt_poses": gt,
        "frame_indices": map_.frame_indices,
    }
    write_json(p, doc)


def read_map(path) -> TopometricMap:
    p = Path(path)
    doc = read_json(p)
    keys = {
        "n_nodes",
        "window",
        "node_spacing",
        "descriptor_dim",
        "descriptor_file",
        "band",
        "gt_poses",
        "frame_indices",
    }
    _require_keys(doc, keys, str(p))
    n = int(doc["n_nodes"])
    window = int(doc["window"])
    if n < 1 or window < 2:
        raise DataError(f"{p}: invalid n_nodes/window")
    matrix = read_descriptor_matrix(p.parent / doc["descriptor_file"])
    if matrix.shape != (n, int(doc["descriptor_dim"])):
        raise DataError(
            f"{p}: descriptor file shape {matrix.shape} does not match "
            f"({n}, {doc['descriptor_dim']})"
        )
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    if not isinstance(doc["band"], list):
        raise DataError(f"{p}: band must be a list")
    for row in doc["band"]:
        vals = _floats(row, 5, f"{p} band row")
        i, j = int(vals[0]), int(vals[1])
        k = j - i
        if not (0 <= i < n and 1 <= k < window and j <= n - 1):
            raise DataError(f"{p}: band row has invalid edge {i} -> {j}")
        if not np.isnan(band[i, k, 0]):
            raise DataError(f"{p}: duplicate band entry for edge {i} -> {j}")
        band[i, k] = vals[2:]
    gt = doc["gt_poses"]
    if gt is not None:
        gt = np.array([_floats(row, 3, f"{p} gt_poses row") for row in gt])
    fi = doc["frame_indices"]
    if fi is not None:
        fi = [int(v) for v in fi]
    try:
        return TopometricMap(
            matrix,
            band,
            node_spacing=float(doc["node_spacing"]),
            gt_poses=gt,
            frame_indices=fi,
        )
    except DataError as exc:
        raise DataError(f"{p}: {exc}") from exc


# ---------------------------------------------------------------------------
# task results


def write_lcd_result(path, result: LcdResult) -> None:
    lines = [
        _dumps(
            {"kind": "lcd", "lam": float(result.lam), "n_frames": len(result.frames)}
        )
    ]
    for fr in result.frames:
        lines.append(
            _dumps(
                {
                    "t": int(fr.t),
                    "proposal": int(fr.proposal),
                    "tau": float(fr.tau),
                    "mode_mass": float(fr.mode_mass),
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _read_header(records, kind: str, path) -> dict:
    if not records:
        raise DataError(f"{path}: empty results file")
    head = records[0]
    if not isinstance(head, dict) or head.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind!r} header line")
    return head


def read_lcd_result(path) -> LcdResult:
    records = _parse_jsonl(path)
    head = _read_header(records, "lcd", path)
    _require_keys(head, {"kind", "lam", "n_frames"}, f"{path} header")
    body = records[1:]
    if len(body) != int(head["n_frames"]):
        raise DataError(f"{path}: frame count does not match header")
    frames = []
    for t, rec in enumerate(body):
        where = f"{path} frame {t}"
        _require_keys(rec, {"t", "proposal", "tau", "mode_mass"}, where)
        if rec["t"] != t:
            raise DataError(f"{where}: out-of-order t={rec['t']}")
        frames.append(
            LcdFrame(
                t=t,
                proposal=int(rec["proposal"]),
                tau=float(rec["tau"]),
                mode_mass=float(rec["mode_mass"]),
            )
        )
    return LcdResult(frames=frames, lam=float(head["lam"]))


def write_wakeup_results(path, results: list[WakeupResult]) -> None:
    lines = [_dumps({"kind": "wakeup", "n_trials": len(results)})]
    for r in results:
        lines.append(
            _dumps(
                {
                    "trial": int(r.trial),
                    "start": int(r.start),
                    "converged": bool(r.converged),
                    "steps_used": int(r.steps_used),
                    "proposal": None if r.proposal is None else int(r.proposal),
                    "tau": float(r.tau),
                    "distance_traveled": float(r.distance_traveled),
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_wakeup_results(path) -> list[WakeupResult]:
    records = _parse_jsonl(path)
    head = _read_header(records, "wakeup", path)
    _require_keys(head, {"kind", "n_trials"}, f"{path} header")
    body = records[1:]
    if len(body) != int(head["n_trials"]):
        raise DataError(f"{path}: trial count does not match header")
    out = []
    fields = {
        "trial",
        "start",
        "converged",
        "steps_used",
        "proposal",
        "tau",
        "distance_traveled",
    }
    for idx, rec in enumerate(body):
        where = f"{path} trial {idx}"
        _require_keys(rec, fields, where)
        prop = rec["proposal"]
        out.append(
            WakeupResult(
                trial=int(rec["trial"]),
                start=int(rec["start"]),
                converged=bool(rec["converged"]),
                steps_used=int(rec["steps_used"]),
                proposal=None if prop is None else int(prop),
                tau=float(rec["tau"]),
                distance_traveled=float(rec["distance_traveled"]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# ground-truth labels


def write_labels(path, labels: GroundTruthLabel) -> None:
    lines = [
        _dumps(
            {
                "kind": "labels",
                "tol_m": float(labels.tol_m),
                "tol_deg": float(labels.tol_deg),
                "n_frames": len(labels),
            }
        )
    ]
    for t in range(len(labels)):
        lines.append(
            _dumps(
                {
                    "t": t,
                    "within_map": bool(labels.within_map[t]),
                    "true_node": int(labels.true_node[t]),
                    "ok_nodes": [int(v) for v in labels.ok_nodes[t]],
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_labels(path) -> GroundTruthLabel:
    records = _parse_jsonl(path)
    head = _read_header(records, "labels", path)
    _require_keys(head, {"kind", "tol_m", "tol_deg", "n_frames"}, f"{path} header")
    body = records[1:]
    if len(body) != int(head["n_frames"]):
        raise DataError(f"{path}: frame count does not match header")
    within = np.zeros(len(body), dtype=bool)
    true_node = np.zeros(len(body), dtype=int)
    ok_nodes = []
    for t, rec in enumerate(body):
        where = f"{path} frame {t}"
        _require_keys(rec, {"t", "within_map", "true_node", "ok_nodes"}, where)
        if rec["t"] != t:
            raise DataError(f"{where}: out-of-order t={rec['t']}")
        within[t] = bool(rec["within_map"])
        true_node[t] = int(rec["true_node"])
        ok_nodes.append(np.array([int(v) for v in rec["ok_nodes"]], dtype=int))
    return GroundTruthLabel(
        within_map=within,
        true_node=true_node,
        ok_nodes=ok_nodes,
        tol_m=float(head["tol_m"]),
        tol_deg=float(head["tol_deg"]),
    )


# ---------------------------------------------------------------------------
# precision-recall curves


_PR_HEADER = "threshold,precision,recall,tp,fp,fn,tn"


def write_pr_curve(path, curve: PrCurve) -> None:
    lines = [_PR_HEADER]
    for i in range(curve.thresholds.size):
        lines.append(
            ",".join(
                [
                    repr(float(curve.thresholds[i])),
                    repr(float(curve.precision[i])),
                    repr(float(curve.recall[i])),
                    str(int(curve.tp[i])),
                    str(int(curve.fp[i])),
                    str(int(curve.fn[i])),
                    str(int(curve.tn[i])),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_pr_curve(path) -> PrCurve:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != _PR_HEADER:
        raise DataError(f"{path}: expected header {_PR_HEADER!r}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise DataError(f"{path}: curve has no operating points")
    cols = []
    for ln_no, ln in enumerate(rows, 2):
        parts = ln.split(",")
        if len(parts) != 7:
            raise DataError(f"{path}:{ln_no}: expected 7 comma-separated fields")
        try:
            cols.append(
                [float(parts[0]), float(parts[1]), float(parts[2])]
                + [int(v) for v in parts[3:]]
            )
        except ValueError as exc:
            raise DataError(f"{path}:{ln_no}: {exc}") from exc
    arr = np.array(cols)
    try:
        return PrCurve(
            thresholds=arr[:, 0],
            precision=arr[:, 1],
            recall=arr[:, 2],
            tp=arr[:, 3].astype(int),
            fp=arr[:, 4].astype(int),
            fn=arr[:, 5].astype(int),
            tn=arr[:, 6].astype(int),
        )
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: inconsistent curve: {exc}") from exc
