"""File formats: point-cloud CSV and dataset manifests.

Cloud files are plain CSV, one point per row (d columns), header row
optional. A manifest is JSON Lines: one {"path": ..., "label": ...}
object per cloud, with an optional {"normalization": {...}} line that
applies a shared preprocessing recipe (subsample / shift / scale) to
every file at load time. Paths are resolved relative to the manifest.
"""

from __future__ import annotations

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
_SEPARATORS = "\x1c\x1d\x1e\x1f"


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


def read_cloud(path) -> np.ndarray:
    """Load a CSV cloud file into a d x n matrix (columns are points).

    One point per row, cells separated by commas; whitespace around a cell
    is allowed. Only the first line may be a header (any line that does not
    parse as numbers); blank lines are skipped, and `#` comments are not
    accepted. Every row must have the same width and every value must be
    finite, or ValueError names the file (and the line, for a bad row).
    The result is Fortran-ordered: each point's coordinates are adjacent.

    The whole file is parsed by one `np.loadtxt` call. Files it rejects
    (bad or ragged rows, whitespace-only lines, `float()` spellings such as
    `1_0` that it does not take) go through the line parser, which accepts
    or rejects them as the reference does and words the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    text = "".join(lines)
    # A first line that does not parse is a header, or blank: skip it.
    skip = int(not lines or _parse_row(lines[0].strip()) is None)
    # loadtxt warns on input with no rows, so it only sees files whose first
    # line after the header holds data. It also takes \x1c-\x1f around a
    # cell for whitespace, which float() does not.
    if skip < len(lines) and lines[skip].strip() and not any(c in text for c in _SEPARATORS):
        try:
            coords = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None,
                                skiprows=skip, dtype=float).T
        except ValueError:
            pass
        else:
            return _finite(path, coords)
    return _parse_lines(path, lines)


def write_cloud(path, coords: np.ndarray) -> None:
    """Write a d x n matrix as CSV, one point per row.

    Each value is written as `format_number` writes it, at 12 significant
    digits, so a file read back may differ from `coords` in the last
    digits. The whole file is built by one %-format call.
    """
    coords = np.asarray(coords, dtype=float)
    row = ",".join(["%.12g"] * coords.shape[0]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((row * coords.shape[1]) % tuple(coords.T.ravel().tolist()))


def read_manifest(path, rng=None) -> Dataset:
    """Load a JSON Lines manifest into a Dataset, applying any
    normalization options it declares."""
    entries = []
    normalization = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if "normalization" in obj and "path" not in obj:
                normalization = obj["normalization"] or {}
                continue
            if "path" not in obj:
                raise ValueError(f"{path}:{lineno}: entry missing 'path'")
            entries.append(obj)
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for obj in entries:
        cloud_path = obj["path"]
        if not os.path.isabs(cloud_path):
            cloud_path = os.path.join(base, cloud_path)
        coords = read_cloud(cloud_path)
        if normalization is not None:
            coords = normalize_cloud(
                coords,
                sample_n=normalization.get("sample_n"),
                shift_positive=normalization.get("shift_positive", True),
                divide_max_axis=normalization.get("divide_max_axis", True),
                rng=rng,
            )
        items.append(PointCloud(coords=coords, label=obj.get("label")))
    return Dataset(items=items, name=os.path.basename(path))


def write_manifest(path, entries, normalization: dict | None = None) -> None:
    """Write manifest lines; `entries` is a list of (path, label) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        if normalization is not None:
            fh.write(json.dumps({"normalization": normalization}, sort_keys=True) + "\n")
        for cloud_path, label in entries:
            fh.write(json.dumps({"path": cloud_path, "label": label}, sort_keys=True) + "\n")
