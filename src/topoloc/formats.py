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
    the sidecar belongs to frame ``t``.  The rows are read straight into the
    columns of one :class:`Traverse` and written from them; no per-frame
    object is built either way.
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
Readers validate strictly and raise ``DataError`` on any malformed input;
every JSON value, traverse rows and band rows included, is cast by the
record rule of ``_records`` (a number must be a JSON number, not a string
or a boolean).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, make_dataclass
from pathlib import Path

import numpy as np

from ._records import read_record, record_dict
from .errors import DataError
from .evaluate import GroundTruthLabel, PrCurve
from .mapping import TopometricMap
from .tasks import LcdFrame, LcdResult, WakeupResult
from .traverse import Traverse

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
        return _read_bytes(path).decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


# one compact encoder for every JSONL line (``json.dumps`` builds one per call)
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


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
    if not isinstance(rec, dict) or rec.keys() != keys:
        raise DataError(f"{where}: expected a JSON object with keys {sorted(keys)}")


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


_POSE = tuple[float, float, float]
_UPPER = tuple[float, float, float, float, float, float]
# a frame record lists covariance entries xx, xy, xt, yy, yt, tt
_UPPER_ROWS, _UPPER_COLS = np.triu_indices(3)
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]  # the 3x3 matrix, row major, from those six


def write_traverse(path, traverse: Traverse) -> None:
    """Write frames to ``path`` (JSONL) and descriptors to the sidecar file."""
    p = Path(path)
    write_descriptor_matrix(descriptor_sidecar(p), traverse.descriptors)
    gts = traverse.gt_poses.tolist() if traverse.has_gt else [None] * len(traverse)
    uppers = traverse.odom_covs[:, _UPPER_ROWS, _UPPER_COLS].tolist()
    odoms = [None] + [
        {"mean": mean, "cov": cov}
        for mean, cov in zip(traverse.odom_means.tolist(), uppers)
    ]
    lines = [
        _dumps({"t": t, "gt_pose": gt, "odom": odom})
        for t, (gt, odom) in enumerate(zip(gts, odoms))
    ]
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
    gts, means, uppers = [], [], []
    for t, rec in enumerate(records):
        where = f"{p} frame {t}"
        _require_keys(rec, {"t", "gt_pose", "odom"}, where)
        if read_record(int, rec["t"], DataError, f"{where}: t") != t:
            raise DataError(f"{where}: out-of-order t={rec['t']}")
        if rec["gt_pose"] is not None:
            gts.append(read_record(_POSE, rec["gt_pose"], DataError, f"{where}: gt_pose"))
        odom = rec["odom"]
        if t == 0:
            if odom is not None:
                raise DataError(f"{where}: the first frame must not carry odometry")
            continue
        _require_keys(odom, {"mean", "cov"}, f"{where}: odom")
        means.append(read_record(_POSE, odom["mean"], DataError, f"{where}: odom.mean"))
        uppers.append(read_record(_UPPER, odom["cov"], DataError, f"{where}: odom.cov"))
    if len(gts) not in (0, len(records)):
        raise DataError(f"{p}: ground truth must be present on all frames or none")
    covs = np.array(uppers).reshape(-1, 6)[:, _FULL].reshape(-1, 3, 3)
    means = np.array(means).reshape(-1, 3)
    try:
        return Traverse(matrix, means, covs, np.array(gts) if gts else None)
    except DataError as exc:
        raise DataError(f"{p}: {exc}") from None


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class _MapDoc:
    """A map document; ``band`` holds one ``[i, j, dx, dy, dtheta]`` row per edge."""

    n_nodes: int
    window: int
    node_spacing: float
    descriptor_dim: int
    descriptor_file: str
    band: tuple[tuple[int, int, float, float, float], ...]
    gt_poses: tuple[tuple[float, float, float], ...] | None
    frame_indices: tuple[int, ...] | None


def write_map(path, map_: TopometricMap) -> None:
    """Write a map document to ``path`` and its descriptors to the sidecar."""
    p = Path(path)
    sidecar = descriptor_sidecar(p)
    write_descriptor_matrix(sidecar, map_.descriptors)
    i, k = np.nonzero(~np.isnan(map_.band[:, 1:, 0]))
    band_rows = [
        [a, a + b + 1, *pose]
        for a, b, pose in zip(i.tolist(), k.tolist(), map_.band[i, k + 1].tolist())
    ]
    doc = _MapDoc(
        n_nodes=map_.n_nodes,
        window=map_.window,
        node_spacing=map_.node_spacing,
        descriptor_dim=map_.descriptor_dim,
        descriptor_file=sidecar.name,
        band=band_rows,
        gt_poses=None if map_.gt_poses is None else map_.gt_poses.tolist(),
        frame_indices=map_.frame_indices,
    )
    write_json(p, record_dict(doc))


def read_map(path) -> TopometricMap:
    p = Path(path)
    doc = read_record(_MapDoc, read_json(p), DataError, str(p))
    n, window = doc.n_nodes, doc.window
    if n < 1 or window < 2:
        raise DataError(f"{p}: invalid n_nodes/window")
    matrix = read_descriptor_matrix(p.parent / doc.descriptor_file)
    if matrix.shape != (n, doc.descriptor_dim):
        raise DataError(
            f"{p}: descriptor file shape {matrix.shape} does not match "
            f"({n}, {doc.descriptor_dim})"
        )
    band = np.full((n, window, 3), np.nan)
    band[:, 0, :] = 0.0
    for i, j, *pose in doc.band:
        k = j - i
        if not (0 <= i < n and 1 <= k < window and j <= n - 1):
            raise DataError(f"{p}: band row has invalid edge {i} -> {j}")
        if not np.isnan(band[i, k, 0]):
            raise DataError(f"{p}: duplicate band entry for edge {i} -> {j}")
        band[i, k] = pose
    gt, fi = doc.gt_poses, doc.frame_indices
    try:
        return TopometricMap(
            matrix,
            band,
            node_spacing=doc.node_spacing,
            gt_poses=None if gt is None else np.array(gt),
            frame_indices=None if fi is None else list(fi),
        )
    except DataError as exc:
        raise DataError(f"{p}: {exc}") from exc


# ---------------------------------------------------------------------------
# task results and ground-truth labels


_LcdHeader = make_dataclass("_LcdHeader", [("lam", float), ("n_frames", int)])
_WakeupHeader = make_dataclass("_WakeupHeader", [("n_trials", int)])
_LabelsHeader = make_dataclass(
    "_LabelsHeader", [("tol_m", float), ("tol_deg", float), ("n_frames", int)]
)
_LabelRow = make_dataclass(
    "_LabelRow",
    [("t", int), ("within_map", bool), ("true_node", int), ("ok_nodes", tuple[int, ...])],
)


def _write_records(path, kind: str, header, rows) -> None:
    """A header line naming ``kind``, then one line per record."""
    lines = [_dumps({"kind": kind, **record_dict(header)})]
    lines.extend(_dumps(record_dict(row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_records(path, kind: str, header_cls, row_cls, count: str):
    """Header and rows of a file :func:`_write_records` wrote.

    ``count`` names the header field holding the number of rows.  Rows with
    a ``t`` field must hold ``0, 1, 2, ...`` in order.
    """
    records = _parse_jsonl(path)
    head = records[0] if records else None
    if not isinstance(head, dict) or head.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind!r} header line")
    head = {k: v for k, v in head.items() if k != "kind"}
    header = read_record(header_cls, head, DataError, f"{path} header")
    if len(records) - 1 != getattr(header, count):
        raise DataError(f"{path}: record count does not match header {count}")
    rows = [
        read_record(row_cls, rec, DataError, f"{path} record {i}")
        for i, rec in enumerate(records[1:])
    ]
    for i, row in enumerate(rows):
        if getattr(row, "t", i) != i:
            raise DataError(f"{path} record {i}: out-of-order t={row.t}")
    return header, rows


def write_lcd_result(path, result: LcdResult) -> None:
    header = _LcdHeader(lam=result.lam, n_frames=len(result.frames))
    _write_records(path, "lcd", header, result.frames)


def read_lcd_result(path) -> LcdResult:
    header, frames = _read_records(path, "lcd", _LcdHeader, LcdFrame, "n_frames")
    return LcdResult(frames=frames, lam=header.lam)


def write_wakeup_results(path, results: list[WakeupResult]) -> None:
    _write_records(path, "wakeup", _WakeupHeader(n_trials=len(results)), results)


def read_wakeup_results(path) -> list[WakeupResult]:
    return _read_records(path, "wakeup", _WakeupHeader, WakeupResult, "n_trials")[1]


def write_labels(path, labels: GroundTruthLabel) -> None:
    header = _LabelsHeader(labels.tol_m, labels.tol_deg, n_frames=len(labels))
    cols = zip(labels.within_map.tolist(), labels.true_node.tolist(), labels.ok_nodes)
    rows = (_LabelRow(t, w, n, ok.tolist()) for t, (w, n, ok) in enumerate(cols))
    _write_records(path, "labels", header, rows)


def read_labels(path) -> GroundTruthLabel:
    header, rows = _read_records(path, "labels", _LabelsHeader, _LabelRow, "n_frames")
    return GroundTruthLabel(
        within_map=np.array([r.within_map for r in rows], dtype=bool),
        true_node=np.array([r.true_node for r in rows], dtype=int),
        ok_nodes=[np.array(r.ok_nodes, dtype=int) for r in rows],
        tol_m=header.tol_m,
        tol_deg=header.tol_deg,
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
