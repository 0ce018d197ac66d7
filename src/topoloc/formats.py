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
    the sidecar belongs to frame ``t``.  The rows are written straight from
    the columns of one :class:`Traverse`; a file in that form is read back a
    column at a time, any other row by row as records, to the same values.
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
Readers validate strictly and raise ``DataError`` on any malformed input,
or on an input path that cannot be read, such as a directory.  Every row of
every file (traverse frames, band rows and PR-curve rows included) is a
declared record, cast by the rule of ``_records``: a number must be a JSON
number, not a string or a boolean, a float must be finite and a count
integral.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import astuple, dataclass, fields, make_dataclass
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
    except OSError as exc:  # missing, a directory, or not ours to read
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc


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


def _read_rows(records, row_cls, where: str) -> list:
    """One ``row_cls`` per parsed line, named ``where`` and its index.

    Rows with a ``t`` field must hold ``0, 1, 2, ...`` in order.
    """
    rows = [
        read_record(row_cls, rec, DataError, f"{where} {i}")
        for i, rec in enumerate(records)
    ]
    for i, row in enumerate(rows):
        if getattr(row, "t", i) != i:
            raise DataError(f"{where} {i}: out-of-order t={row.t}")
    return rows


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
# a frame record lists covariance entries xx, xy, xt, yy, yt, tt
_UPPER_ROWS, _UPPER_COLS = np.triu_indices(3)
_FULL = [0, 1, 2, 1, 3, 4, 2, 4, 5]  # the 3x3 matrix, row major, from those six
_Odom = make_dataclass(
    "_Odom", [("mean", _POSE), ("cov", tuple[float, float, float, float, float, float])]
)
_FrameRow = make_dataclass(
    "_FrameRow", [("t", int), ("gt_pose", _POSE | None), ("odom", _Odom | None)]
)
_FRAME_KEYS = {f.name for f in fields(_FrameRow)}
_ODOM_KEYS = {f.name for f in fields(_Odom)}


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


def _float_rows(rows: list, width: int):
    """``rows`` as a ``(len(rows), width)`` float array, or ``None``.

    ``None`` unless every row is a list of ``width`` finite JSON floats.
    """
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
        return None
    if set(map(type, itertools.chain.from_iterable(rows))) - {float}:
        return None
    a = np.array(rows, dtype=float).reshape(-1, width)
    return a if np.isfinite(a).all() else None


def _cast_frame_columns(records: list):
    """Odometry means, covariance entries and ground truth of ``records``, cast at once.

    The columns ``_row_frame_columns`` reads, for a file in the form
    :func:`write_traverse` writes: every frame has exactly the declared keys,
    ``t`` is ``0..T-1`` as ints, only the first frame lacks odometry, ground
    truth is on every frame or none, and every number is a finite float.
    Any other file returns ``None``, to go through the row rule.
    """
    if any(type(r) is not dict or r.keys() != _FRAME_KEYS for r in records):
        return None
    ts = [r["t"] for r in records]
    if {type(t) for t in ts} - {int} or ts != list(range(len(ts))):
        return None
    odoms = [r["odom"] for r in records]
    if odoms[:1] != [None] or any(
        type(o) is not dict or o.keys() != _ODOM_KEYS for o in odoms[1:]
    ):
        return None
    gts = [r["gt_pose"] for r in records]
    no_gt = gts.count(None) == len(gts)
    gt = None if no_gt else _float_rows(gts, 3)
    means = _float_rows([o["mean"] for o in odoms[1:]], 3)
    covs = _float_rows([o["cov"] for o in odoms[1:]], 6)
    if means is None or covs is None or (gt is None and not no_gt):
        return None
    return means, covs, gt


def _row_frame_columns(p: Path, records: list):
    """The frame columns of ``records`` read row by row, by the record rule."""
    rows = _read_rows(records, _FrameRow, f"{p} frame")
    if rows and rows[0].odom is not None:
        raise DataError(f"{p} frame 0: the first frame must not carry odometry")
    odoms = [row.odom for row in rows[1:]]
    if None in odoms:
        raise DataError(f"{p} frame {odoms.index(None) + 1}: odom: must not be null")
    gts = [row.gt_pose for row in rows if row.gt_pose is not None]
    if len(gts) not in (0, len(rows)):
        raise DataError(f"{p}: ground truth must be present on all frames or none")
    means = np.array([o.mean for o in odoms]).reshape(-1, 3)
    covs = np.array([o.cov for o in odoms]).reshape(-1, 6)
    return means, covs, np.array(gts) if gts else None


def read_traverse(path) -> Traverse:
    """Read a traverse; a file in the written form is cast a column at a time.

    Every other file is read row by row by the record rule, which raises
    the error that names the first bad frame.  Both give the same values.
    """
    p = Path(path)
    matrix = read_descriptor_matrix(descriptor_sidecar(p))
    records = _parse_jsonl(p)
    if len(records) != matrix.shape[0]:
        raise DataError(
            f"{p}: {len(records)} frames but descriptor file has "
            f"{matrix.shape[0]} rows"
        )
    means, covs, gts = _cast_frame_columns(records) or _row_frame_columns(p, records)
    covs = covs[:, _FULL].reshape(-1, 3, 3)
    try:
        return Traverse(matrix, means, covs, gts)
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
    return header, _read_rows(records[1:], row_cls, f"{path} record")


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


# one row per operating point; the columns are the ``PrCurve`` fields, in order
_CurveRow = make_dataclass(
    "_CurveRow",
    [("threshold", float), ("precision", float), ("recall", float)]
    + [(name, int) for name in ("tp", "fp", "fn", "tn")],
)
_PR_FIELDS = fields(_CurveRow)
_PR_HEADER = ",".join(f.name for f in _PR_FIELDS)


def write_pr_curve(path, curve: PrCurve) -> None:
    cols = [
        np.asarray(getattr(curve, c.name), dtype=f.type).tolist()
        for c, f in zip(fields(curve), _PR_FIELDS)
    ]
    lines = [_PR_HEADER, *(",".join(map(repr, row)) for row in zip(*cols))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_pr_curve(path) -> PrCurve:
    """Read a curve; each field must be a JSON number its column's type accepts."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != _PR_HEADER:
        raise DataError(f"{path}: expected header {_PR_HEADER!r}")
    rows = []
    for ln_no, ln in enumerate(lines[1:], 2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != len(_PR_FIELDS):
            raise DataError(f"{path}:{ln_no}: expected 7 comma-separated fields")
        try:
            rec = {f.name: json.loads(v) for f, v in zip(_PR_FIELDS, parts)}
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{ln_no}: not a JSON number: {exc}") from exc
        rows.append(read_record(_CurveRow, rec, DataError, f"{path}:{ln_no}"))
    if not rows:
        raise DataError(f"{path}: curve has no operating points")
    cols = zip(*(astuple(row) for row in rows))
    try:
        return PrCurve(*(np.array(c, dtype=f.type) for c, f in zip(cols, _PR_FIELDS)))
    except ValueError as exc:
        raise DataError(f"{path}: inconsistent curve: {exc}") from exc
