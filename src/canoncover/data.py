"""Point-cloud containers, normalization, synthetic data, and canonization plumbing.

A PointCloud is a d x n matrix whose columns are points, with an optional
integer class label. Normalization mirrors a common preprocessing recipe
for raw point-cloud files: subsample to a fixed point count, shift each
axis to start at zero, and divide by the largest coordinate so everything
lands in [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import canon as _canon
from .choices import CANON_CHOICES

__all__ = [
    "PointCloud",
    "Dataset",
    "normalize_cloud",
    "synthetic_dataset",
    "synthetic_split",
    "apply_canon",
    "canonize_dataset",
    "CANON_CHOICES",
]


@dataclass
class PointCloud:
    """d x n coordinate matrix (columns are points) with an optional label.

    coords pass `canon._as_cloud`, the gate of every canonizer and metric:
    a finite float d x n matrix, d, n >= 1, not copied if it already is one.
    """

    coords: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.coords = _canon._as_cloud(self.coords)
        if self.label is not None:
            self.label = int(self.label)
            if self.label < 0:
                raise ValueError(f"label must be non-negative, got {self.label}")

    @property
    def d(self) -> int:
        return self.coords.shape[0]

    @property
    def n(self) -> int:
        return self.coords.shape[1]


@dataclass
class Dataset:
    """A list of point clouds sharing a dimension."""

    items: list[PointCloud] = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        dims = {item.d for item in self.items}
        if len(dims) > 1:
            raise ValueError(f"items mix dimensions {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> list[int | None]:
        return [item.label for item in self.items]


def normalize_cloud(coords, sample_n: int | None = None, shift_positive: bool = True,
                    divide_max_axis: bool = True, rng=None) -> np.ndarray:
    """Subsample, shift to the positive orthant, and scale by the max coordinate.

    sample_n picks that many distinct columns (requires an rng and
    sample_n <= n); shift_positive subtracts the per-axis minimum;
    divide_max_axis divides by the largest coordinate after the shift
    (skipped if that maximum is zero).
    """
    coords = np.asarray(coords, dtype=float)
    if sample_n is not None:
        n = coords.shape[1]
        if sample_n > n:
            raise ValueError(f"sample_n = {sample_n} exceeds available points ({n})")
        if sample_n < n:
            if rng is None:
                raise ValueError("subsampling needs an rng for reproducibility")
            keep = np.sort(rng.choice(n, size=sample_n, replace=False))
            coords = coords[:, keep]
    if shift_positive:
        coords = coords - coords.min(axis=1, keepdims=True)
    if divide_max_axis:
        peak = coords.max()
        if peak > 0:
            coords = coords / peak
    return coords


def synthetic_dataset(n_items: int, clusters: int, d: int, n_points: int,
                      seed: int, spread: float = 0.08, name: str = "synthetic") -> Dataset:
    """Gaussian cluster clouds clipped to [0,1]^(d x n), labels = cluster ids.

    Cluster centers are drawn once per call; item i belongs to cluster
    i mod clusters, so every label appears when n_items >= clusters.
    Deterministic under seed.
    """
    if min(n_items, clusters, d, n_points) < 1:
        raise ValueError("sizes must be positive")
    if not np.isfinite(spread):
        raise ValueError(f"spread must be finite, got {spread}")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.25, 0.75, size=(clusters, d))
    items = []
    for i in range(n_items):
        label = i % clusters
        coords = centers[label][:, None] + rng.normal(0.0, spread, size=(d, n_points))
        items.append(PointCloud(coords=np.clip(coords, 0.0, 1.0), label=label))
    return Dataset(items=items, name=name)


def synthetic_split(n_train: int, n_test: int, clusters: int, d: int, n_points: int,
                    seed: int, spread: float = 0.08) -> tuple[Dataset, Dataset]:
    """Train/test datasets drawn around one shared set of cluster centers."""
    both = synthetic_dataset(n_train + n_test, clusters, d, n_points, seed,
                             spread=spread, name="split")
    train = Dataset(items=both.items[:n_train], name="train")
    test = Dataset(items=both.items[n_train:], name="test")
    return train, test


def _hilbert_order(name: str) -> int | None:
    """The order m of a normalized "hilbert:<m>" spec; None for other specs."""
    if not name.startswith("hilbert"):
        return None
    _, _, arg = name.partition(":")
    if not arg:
        raise ValueError("hilbert canonization needs an order, e.g. hilbert:6")
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"hilbert order must be an integer, got {arg!r}") from None


def apply_canon(coords: np.ndarray, spec: str) -> tuple[np.ndarray, dict]:
    """Run the canonization named by `spec` on a d x n matrix.

    Returns (canonized coords, group-element record). Specs: "sort"
    (vector inputs: a single point's coordinates or a d=1 cloud),
    "lexsort", "hilbert:<m>", "centralize", "pca-skew".
    """
    coords = np.asarray(coords, dtype=float)
    name = spec.strip().lower()
    if name == "sort":
        if coords.shape[1] == 1:
            return _canon.canon_sort(coords[:, 0]).reshape(-1, 1), {"method": "sort"}
        if coords.shape[0] == 1:
            return _canon.canon_sort(coords[0]).reshape(1, -1), {"method": "sort"}
        raise ValueError("sort needs a vector: a single point or a d=1 cloud")
    if name == "lexsort":
        res = _canon.canon_lexsort(coords)
        return res.cloud, {"method": "lexsort", "perm": res.perm.tolist()}
    m = _hilbert_order(name)
    if m is not None:
        res = _canon.canon_hilbert(coords, m=m)
        return res.cloud, {"method": name, "perm": res.perm.tolist()}
    if name == "centralize":
        res = _canon.canon_centralize(coords)
        return res.cloud, {"method": "centralize", "shift": res.shift.tolist()}
    if name == "pca-skew":
        aligned, frame, shift = _canon.pca_align(coords, with_shift=True)
        res = _canon.canon_skewness_sign(aligned)
        # Replay: signs[:, None] * (frame @ coords - shift[:, None]); the
        # shift is expressed in the rotated frame.
        return res.cloud, {
            "method": "pca-skew",
            "shift": shift.tolist(),
            "frame": frame.tolist(),
            "signs": res.signs.tolist(),
        }
    raise ValueError(f"unknown canonization {spec!r}; choices: {', '.join(CANON_CHOICES)}")


def canonize_dataset(ds: Dataset, spec: str) -> Dataset:
    """Canonize every item, preserving labels.

    The result equals `apply_canon` item by item. A "hilbert:<m>" spec
    over a non-empty dataset whose clouds share one shape runs as one
    `canon_hilbert_stack` call, and its clouds are C-ordered views into
    one stacked array. Mixed shapes, empty datasets and the other specs
    canonize one item at a time.
    """
    shapes = {item.coords.shape for item in ds.items}
    m = _hilbert_order(spec.strip().lower()) if len(shapes) == 1 else None
    if m is None:
        clouds = [apply_canon(item.coords, spec)[0] for item in ds.items]
    else:
        clouds, _ = _canon.canon_hilbert_stack(np.stack([item.coords for item in ds.items]), m)
    items = [PointCloud(coords=cloud, label=item.label)
             for cloud, item in zip(clouds, ds.items)]
    return Dataset(items=items, name=f"{ds.name}:{spec}" if ds.name else spec)
