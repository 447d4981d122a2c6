"""File formats: point-cloud CSV and dataset manifests.

Cloud files are plain CSV, one point per row (d columns), header row
optional. A manifest is JSON Lines: one {"path": ..., "label": ...}
object per cloud, with an optional {"normalization": {...}} line that
applies a shared preprocessing recipe (subsample / shift / scale) to
every file at load time. Paths are resolved relative to the manifest.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

from .data import Dataset, PointCloud, normalize_cloud

__all__ = [
    "read_cloud",
    "write_cloud",
    "read_manifest",
    "write_manifest",
    "format_number",
]


def format_number(v: float) -> str:
    """Decimal rendering at 12 significant digits."""
    return f"{float(v):.12g}"


# ASCII separators: whitespace to str.strip() and np.loadtxt, not to float().
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _parse_row(line: str) -> list[float] | None:
    try:
        return [float(tok) for tok in line.split(",")]
    except ValueError:
        return None


def _finite(path, coords: np.ndarray) -> np.ndarray:
    if not np.isfinite(coords).all():
        raise ValueError(f"{path}: non-finite value (nan or inf) in cloud")
    return coords


def _parse_lines(path, lines) -> np.ndarray:
    """Parse cloud CSV lines one at a time into a d x n matrix.

    This is the reference for `read_cloud` and the one source of its
    error messages. Lines are stripped, blank ones skipped, and each cell
    goes through `float()`. A first line that does not parse is a header.
    """
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        row = _parse_row(line)
        if row is None:
            if lineno == 1:  # header row
                continue
            raise ValueError(f"{path}:{lineno}: unparseable row {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have mixed column counts {sorted(widths)}")
    return _finite(path, np.array(rows, dtype=float).T)


def _line(data: bytes, start: int) -> tuple[str, int]:
    """The line of `data` that starts at byte `start`, decoded, and the
    start of the next one. Past the end, the line is empty."""
    end = data.find(b"\n", start) + 1 or len(data)
    return data[start:end].decode("utf-8"), end


def read_cloud(path) -> np.ndarray:
    """Load a CSV cloud file into a d x n matrix (columns are points).

    One point per row, cells separated by commas; whitespace around a cell
    is allowed. Only the first line may be a header (any line that does not
    parse as numbers); blank lines are skipped, and `#` comments are not
    accepted. Every row must have the same width and every value must be
    finite, or ValueError names the file (and the line, for a bad row).
    A file that is not UTF-8 raises ValueError naming the file and the
    byte offset, from the start of the file, of the first bad byte.
    The result is Fortran-ordered: each point's coordinates are adjacent.

    The file is read once, as bytes, and one `np.loadtxt` call parses that
    buffer, with no list of per-line strings. Files it rejects (bad or ragged
    rows, whitespace-only lines, `float()` spellings such as `1_0` that it
    does not take) and files with a bare CR line end go through the line
    parser, which accepts or rejects them as the reference does and words
    the error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    # A bare CR ends a line in text mode but not for loadtxt, and loadtxt
    # takes \x1c-\x1f around a cell for whitespace, which float() does not.
    bare_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if not bare_cr and not any(c in data for c in _SEPARATORS):
        # A first line that does not parse is a header, or blank: skip it.
        line, end = _line(data, 0)
        skip = int(_parse_row(line.strip()) is None)
        if skip:
            line, end = _line(data, end)
        # loadtxt warns on input with no rows, so it only sees files whose
        # first line after the header holds data.
        if line.strip():
            try:
                coords = np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2,
                                    comments=None, skiprows=skip, dtype=float,
                                    encoding="utf-8").T
            except ValueError:
                pass
            else:
                return _finite(path, coords)
    return _parse_lines(path, io.StringIO(data.decode("utf-8"), newline=None))


# Rows per %-format call in `write_cloud`.
_WRITE_ROWS = 2048


def write_cloud(path, coords: np.ndarray) -> None:
    """Write a d x n matrix as CSV, one point per row.

    Each value is written as `format_number` writes it, at 12 significant
    digits, so a file read back may differ from `coords` in the last
    digits. Rows are formatted and written in blocks of `_WRITE_ROWS`, one
    %-format call each, so the text in memory at once stays that small.
    """
    coords = np.asarray(coords, dtype=float)
    row = ",".join(["%.12g"] * coords.shape[0]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, coords.shape[1], _WRITE_ROWS):
            rows = coords[:, start:start + _WRITE_ROWS]
            fh.write((row * rows.shape[1]) % tuple(rows.T.ravel().tolist()))


_NORMALIZATION_KEYS = ("sample_n", "shift_positive", "divide_max_axis")
_ENTRY_KEYS = ("path", "label")


def _normalization(where: str, options) -> dict:
    """`normalize_cloud`'s keyword arguments from a manifest's
    normalization object; ValueError names `where` for a bad value or an
    unknown key."""
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ValueError(f"{where}: normalization must be a JSON object, "
                         f"got {type(options).__name__}")
    for key in options:
        if key not in _NORMALIZATION_KEYS:
            raise ValueError(f"{where}: unknown normalization key {key!r}; "
                             f"allowed: {', '.join(_NORMALIZATION_KEYS)}")
    sample_n = options.get("sample_n")
    if sample_n is not None and (isinstance(sample_n, bool)
                                 or not isinstance(sample_n, int) or sample_n < 1):
        raise ValueError(f"{where}: sample_n must be a positive integer, got {sample_n!r}")
    kwargs = {"sample_n": sample_n}
    for flag in ("shift_positive", "divide_max_axis"):
        value = options.get(flag, True)
        if not isinstance(value, bool):
            raise ValueError(f"{where}: {flag} must be true or false, got {value!r}")
        kwargs[flag] = value
    return kwargs


def read_manifest(path, rng=None) -> Dataset:
    """Load a JSON Lines manifest into a Dataset, applying any
    normalization options it declares.

    Every line is checked as it is read: each must be a JSON object, an
    entry may hold only "path", a string, and "label", absent, null or a
    non-negative integer, and a normalization line may hold only
    "sample_n", a positive integer, and its two flags, true or false. A manifest holds at most
    one normalization line. ValueError names the manifest and line; an
    error from normalizing a cloud (a "sample_n" above its point count)
    also names the cloud file.
    """
    entries = []
    normalization = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
            if "normalization" in obj and "path" not in obj:
                if normalization is not None:
                    raise ValueError(f"{where}: a second normalization line; "
                                     f"the first is line {normalization_line}")
                normalization = _normalization(where, obj["normalization"])
                normalization_line = lineno
                continue
            if "path" not in obj:
                raise ValueError(f"{where}: entry missing 'path'")
            if obj.keys() - _ENTRY_KEYS:
                key = next(k for k in obj if k not in _ENTRY_KEYS)
                raise ValueError(f"{where}: unknown entry key {key!r}; "
                                 f"allowed: {', '.join(_ENTRY_KEYS)}")
            if not isinstance(obj["path"], str):
                raise ValueError(f"{where}: 'path' must be a string, got {obj['path']!r}")
            label = obj.get("label")
            if label is not None and (isinstance(label, bool) or not isinstance(label, int)
                                      or label < 0):
                raise ValueError(f"{where}: label must be a non-negative integer or null, "
                                 f"got {label!r}")
            entries.append((where, obj))
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for where, obj in entries:
        cloud_path = obj["path"]
        if not os.path.isabs(cloud_path):
            cloud_path = os.path.join(base, cloud_path)
        coords = read_cloud(cloud_path)
        if normalization is not None:
            try:
                coords = normalize_cloud(coords, rng=rng, **normalization)
            except ValueError as exc:
                raise ValueError(f"{where}: {cloud_path}: {exc}") from exc
        items.append(PointCloud(coords=coords, label=obj.get("label")))
    return Dataset(items=items, name=os.path.basename(path))


def write_manifest(path, entries, normalization: dict | None = None) -> None:
    """Write manifest lines; `entries` is a list of (path, label) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        if normalization is not None:
            fh.write(json.dumps({"normalization": normalization}, sort_keys=True) + "\n")
        for cloud_path, label in entries:
            fh.write(json.dumps({"path": cloud_path, "label": label}, sort_keys=True) + "\n")
