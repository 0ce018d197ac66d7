"""On-disk formats: every byte this package reads or writes goes through here.

Formats
-------
Descriptor matrix (``.desc.bin``)
    Binary: magic ``TLDM``, then three little-endian u32 (version, rows,
    cols), then ``rows * cols`` little-endian float32 values, row major.
Traverse (``.jsonl`` plus sidecar ``.desc.bin``)
    Single JSON document on one line, with keys ``descriptor_file`` (the
    sidecar's name), ``odom_means`` (rows ``[dx, dy, dtheta]``),
    ``odom_covs`` (rows ``[xx, xy, xt, yy, yt, tt]``, the upper triangle)
    and ``gt_poses`` (rows ``[x, y, theta]``, or null).  Descriptor row
    ``t`` of the sidecar and ground-truth row ``t`` belong to frame ``t``;
    odometry row ``k`` is the step into frame ``k + 1``.
Map (``.json`` plus sidecar ``.desc.bin``)
    Single JSON document; the relative-pose band is stored as rows
    ``[i, j, dx, dy, dtheta]`` for every edge ``i -> j`` the band covers.
Results, labels (``.jsonl``)
    A header object naming the kind, then one object per record whose keys
    are exactly the result dataclass fields.
Precision-recall curve (``.csv``)
    Header ``threshold,precision,recall,tp,fp,fn,tn`` and one row per
    operating point; each field is a JSON number.

Writers are deterministic: fixed key order, compact separators, and
shortest-roundtrip float text, so identical inputs produce identical bytes.
A path that cannot be written raises ``DataError``; a traverse or map
document that cannot be written leaves no sidecar behind.  Labels and
curves are written for the user; nothing reads them back.  Readers validate
strictly and raise ``DataError`` on any malformed input, or on an input
path that cannot be read, such as a directory.  Every row of every file a
command reads (results, traverse odometry and band rows included) is a
declared record, cast by the rule of ``_records``: a number must be a JSON
number, not a string or a boolean, a float must be finite and a count
integral.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields, make_dataclass
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
    "read_lcd_result",
    "read_map",
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
    except OSError as exc:  # missing, a directory, or not ours to read
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc


def _read_text(path) -> str:
    try:
        return _read_bytes(path).decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_bytes(path, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:  # a missing directory, a directory, or not ours to write
        raise DataError(f"{path}: cannot write: {exc.strerror}") from exc


# one compact encoder for every JSONL line (``json.dumps`` builds one per call)
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _indented(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    """Write a JSON document with a stable layout (2-space indent)."""
    _write_bytes(path, _indented(obj).encode())


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


# ---------------------------------------------------------------------------
# descriptor matrices


def write_descriptor_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise DataError("descriptor matrix must be 2-D")
    header = _MAGIC + struct.pack("<III", _VERSION, *matrix.shape)
    _write_bytes(path, header + np.ascontiguousarray(matrix, dtype="<f4").tobytes())


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


def _write_with_sidecar(path, descriptors: np.ndarray, document: str) -> None:
    """Write ``descriptors`` to the sidecar of ``path``, then ``document`` to ``path``.

    A document that cannot be written takes its sidecar with it.
    """
    sidecar = descriptor_sidecar(path)
    write_descriptor_matrix(sidecar, descriptors)
    try:
        _write_bytes(path, document.encode())
    except DataError:
        sidecar.unlink()
        raise


# ---------------------------------------------------------------------------
# traverses


@dataclass(frozen=True)
class _TraverseDoc:
    """A traverse document; row ``k`` of the odometry is the step into frame ``k + 1``.

    A covariance is stored as its upper-triangular entries xx, xy, xt, yy,
    yt, tt; ``gt_poses`` holds one ``[x, y, theta]`` row per frame, or is null.
    """

    descriptor_file: str
    odom_means: tuple[tuple[float, float, float], ...]
    odom_covs: tuple[tuple[float, float, float, float, float, float], ...]
    gt_poses: tuple[tuple[float, float, float], ...] | None


_UPPER_ROWS, _UPPER_COLS = np.triu_indices(3)
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]  # the 3x3 matrix, row major, from the six stored


def write_traverse(path, traverse: Traverse) -> None:
    """Write a traverse document to ``path`` and its descriptors to the sidecar."""
    doc = {  # the fields of ``_TraverseDoc``, straight from the columns
        "descriptor_file": descriptor_sidecar(path).name,
        "odom_means": traverse.odom_means.tolist(),
        "odom_covs": traverse.odom_covs[:, _UPPER_ROWS, _UPPER_COLS].tolist(),
        "gt_poses": traverse.gt_poses.tolist() if traverse.has_gt else None,
    }
    _write_with_sidecar(path, traverse.descriptors, _dumps(doc) + "\n")


def read_traverse(path) -> Traverse:
    """Read a traverse document and the descriptor file it names."""
    p = Path(path)
    doc = read_record(_TraverseDoc, read_json(p), DataError, str(p))
    matrix = read_descriptor_matrix(p.parent / doc.descriptor_file)
    n = matrix.shape[0]
    for name, rows in (("odom_means", n - 1), ("odom_covs", n - 1), ("gt_poses", n)):
        got = getattr(doc, name)
        if got is not None and len(got) != rows:
            raise DataError(
                f"{p}: {name}: {len(got)} rows, expected {rows} "
                f"for the {n} frames of {doc.descriptor_file}"
            )
    covs = np.array(doc.odom_covs).reshape(-1, 6)[:, _FULL].reshape(-1, 3, 3)
    gts = None if doc.gt_poses is None else np.array(doc.gt_poses)
    try:
        return Traverse(matrix, np.array(doc.odom_means).reshape(-1, 3), covs, gts)
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
        descriptor_file=descriptor_sidecar(path).name,
        band=band_rows,
        gt_poses=None if map_.gt_poses is None else map_.gt_poses.tolist(),
        frame_indices=map_.frame_indices,
    )
    _write_with_sidecar(path, map_.descriptors, _indented(record_dict(doc)))


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
    _write_bytes(path, ("\n".join(lines) + "\n").encode())


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


# ---------------------------------------------------------------------------
# precision-recall curves


# one column per ``PrCurve`` field, in order, and the type it is written as
_PR_COLUMNS = (("threshold", float), ("precision", float), ("recall", float),
               ("tp", int), ("fp", int), ("fn", int), ("tn", int))


def write_pr_curve(path, curve: PrCurve) -> None:
    cols = [
        np.asarray(getattr(curve, f.name), dtype=kind).tolist()
        for f, (_, kind) in zip(fields(curve), _PR_COLUMNS)
    ]
    header = ",".join(name for name, _ in _PR_COLUMNS)
    lines = [header, *(",".join(map(repr, row)) for row in zip(*cols))]
    _write_bytes(path, ("\n".join(lines) + "\n").encode())
