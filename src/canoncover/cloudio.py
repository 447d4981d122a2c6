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


def _parse_row(line: str) -> list[float] | None:
    try:
        return [float(tok) for tok in line.split(",")]
    except ValueError:
        return None


def read_cloud(path) -> np.ndarray:
    """Load a CSV cloud file into a d x n matrix (columns are points)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    coords = np.array(rows, dtype=float).T
    if not np.isfinite(coords).all():
        raise ValueError(f"{path}: non-finite value (nan or inf) in cloud")
    return coords


def write_cloud(path, coords: np.ndarray) -> None:
    """Write a d x n matrix as CSV, one point per row, 12 significant digits."""
    coords = np.asarray(coords, dtype=float)
    # One format call over every value writes the same text as format_number
    # applied per value, about three times faster.
    row = ",".join(["{:.12g}"] * coords.shape[0]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((row * coords.shape[1]).format(*coords.T.ravel().tolist()))


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
