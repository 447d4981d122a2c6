"""Order-m Hilbert curve on the 2^m x ... x 2^m grid in d dimensions.

The curve is a bijection between indices 0 .. 2^(d*m)-1 and grid cells,
built with the Gray-code / bit-transpose construction (Skilling's
algorithm). Consecutive indices always map to cells at L1 distance 1,
and the order-(m+1) curve refines the order-m curve cell by cell.

Two centroid maps turn the discrete bijection into a map between grids
on [0,1]: `index_centroid` places an index at the midpoint of its
subinterval of [0,1], and `centroid` places a cell at the midpoint of
its subcube. On those grids the curve is Holder continuous:
max-norm distance of images <= 4 * |x - y|^(1/d).

Scalar `encode`/`decode` work on one cell or index with Python ints and
are the reference. Whole clouds go through an array form of the same
transform: `cloud_indices` finds every column's cell in one numpy pass
and encodes the d x n uint64 cell array, looping only over the m levels
and d axes. Each step there is a few in-place numpy calls on whole rows:
a bit test becomes a mask, and the index is packed one (level, axis) bit
row at a time. `cell_of` and `snap_to_centroids` share that cell step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertParams",
    "encode",
    "decode",
    "cell_of",
    "centroid",
    "index_centroid",
    "snap_to_centroids",
    "cloud_indices",
]

# Indices must fit in an unsigned 64-bit word; reject larger grids.
MAX_TOTAL_BITS = 62


@dataclass(frozen=True)
class HilbertParams:
    """Curve order m and dimension d; validates the d*m <= 62 cap."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.m < 1:
            raise ValueError(f"curve order must be >= 1, got {self.m}")
        if self.d * self.m > MAX_TOTAL_BITS:
            raise ValueError(
                f"d*m = {self.d * self.m} exceeds {MAX_TOTAL_BITS}; "
                "indices would not fit a 64-bit word"
            )

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.m

    @property
    def n_cells(self) -> int:
        return 1 << (self.d * self.m)


def _check_cell(params: HilbertParams, cell) -> tuple[int, ...]:
    cell = tuple(int(c) for c in cell)
    if len(cell) != params.d:
        raise ValueError(f"cell has {len(cell)} coordinates, expected {params.d}")
    side = params.cells_per_axis
    for c in cell:
        if not 0 <= c < side:
            raise ValueError(f"cell coordinate {c} outside [0, {side})")
    return cell


def _check_index(params: HilbertParams, index) -> int:
    index = int(index)
    if not 0 <= index < params.n_cells:
        raise ValueError(f"index {index} outside [0, {params.n_cells})")
    return index


def _axes_to_transpose(coords: list[int], m: int, d: int) -> list[int]:
    """Inverse undo of the Gray-code transform (axes -> transposed index bits)."""
    x = list(coords)
    hi = 1 << (m - 1)
    q = hi
    while q > 1:
        p = q - 1
        for i in range(d):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, d):
        x[i] ^= x[i - 1]
    t = 0
    q = hi
    while q > 1:
        if x[d - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(d):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list[int], m: int, d: int) -> list[int]:
    """Gray-code transform (transposed index bits -> axes)."""
    x = list(x)
    n = 2 << (m - 1)
    t = x[d - 1] >> 1
    for i in range(d - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    while q != n:
        p = q - 1
        for i in range(d - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _transpose_to_index(x: list[int], m: int, d: int) -> int:
    h = 0
    for level in range(m - 1, -1, -1):
        for i in range(d):
            h = (h << 1) | ((x[i] >> level) & 1)
    return h


def _index_to_transpose(h: int, m: int, d: int) -> list[int]:
    x = [0] * d
    for level in range(m - 1, -1, -1):
        for i in range(d):
            bit = (h >> (level * d + (d - 1 - i))) & 1
            x[i] |= bit << level
    return x


def encode(params: HilbertParams, cell) -> int:
    """Curve index of a grid cell."""
    cell = _check_cell(params, cell)
    transposed = _axes_to_transpose(list(cell), params.m, params.d)
    return _transpose_to_index(transposed, params.m, params.d)


def decode(params: HilbertParams, index) -> tuple[int, ...]:
    """Grid cell at a curve index; inverse of encode."""
    index = _check_index(params, index)
    transposed = _index_to_transpose(index, params.m, params.d)
    return tuple(_transpose_to_axes(transposed, params.m, params.d))


def _grid_cells(params: HilbertParams, coords: np.ndarray) -> np.ndarray:
    """Cells of the columns of a d x n float array, as a d x n uint64 array.

    Component i is floor(x_i * 2^m); a coordinate equal to 1.0 is clamped
    into the last cell (the final interval is closed). The clamp runs after
    the cast: above m = 53 the float 2^m - 1 rounds up to 2^m.
    """
    bad = ~((coords >= 0.0) & (coords <= 1.0))
    if bad.any():
        # Report the first bad value in column order, as a per-point scan would.
        raise ValueError(f"coordinate {coords.T[bad.T][0]} outside [0, 1]")
    cells = np.floor(coords * params.cells_per_axis).astype(np.uint64)
    return np.minimum(cells, np.uint64(params.cells_per_axis - 1))


def _encode_cells(params: HilbertParams, cells: np.ndarray) -> np.ndarray:
    """Curve indices of the columns of a d x n uint64 cell array.

    `_axes_to_transpose` then `_transpose_to_index`, applied to whole rows.
    Each branch on a bit becomes arithmetic on the mask
    p & (0 - bit), which is p where the bit is set and 0 elsewhere, and
    every update runs in place in two scratch rows.
    """
    d, m = params.d, params.m
    x = np.array(cells, dtype=np.uint64, order="C")
    x0 = x[0]
    mask = np.empty(x.shape[1], dtype=np.uint64)
    t = np.empty_like(mask)

    def bit_mask(row, level, p):
        """mask = p where bit `level` of row is set, else 0."""
        np.right_shift(row, level, out=mask)
        np.bitwise_and(mask, 1, out=mask)
        np.subtract(0, mask, out=mask)
        np.bitwise_and(mask, p, out=mask)

    for level in range(m - 1, 0, -1):
        p = (1 << level) - 1
        for i in range(d):
            # Bit set: invert the low bits of x0. Clear: swap the low
            # bits of x0 and x[i]. With t the swap term, x0 ^= t | mask
            # covers both, and x[i] ^= t & ~mask == (t | mask) ^ mask.
            xi = x[i]
            bit_mask(xi, level, p)
            if i == 0:
                x0 ^= mask
                continue
            np.bitwise_xor(x0, xi, out=t)
            np.bitwise_and(t, p, out=t)
            np.bitwise_or(t, mask, out=t)
            x0 ^= t
            np.bitwise_xor(t, mask, out=t)
            xi ^= t
    for i in range(1, d):
        x[i] ^= x[i - 1]
    t[:] = 0
    for level in range(m - 1, 0, -1):
        bit_mask(x[d - 1], level, (1 << level) - 1)
        t ^= mask
    x ^= t
    # Bit `level` of axis i lands at position level*d + (d-1-i) of the index.
    h = np.zeros(x.shape[1], dtype=np.uint64)
    for level in range(m):
        for i in range(d):
            np.bitwise_and(x[i], 1 << level, out=mask)
            np.left_shift(mask, level * (d - 1) + d - 1 - i, out=mask)
            h |= mask
    return h


def _as_cloud(params: HilbertParams, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] != params.d:
        raise ValueError(f"expected a {params.d} x n matrix, got shape {coords.shape}")
    return coords


def cell_of(params: HilbertParams, point) -> tuple[int, ...]:
    """Grid cell containing a point of [0,1]^d.

    Component i is floor(x_i * 2^m); a coordinate equal to 1.0 is
    clamped into the last cell (the final interval is closed).
    """
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape[0] != params.d:
        raise ValueError(f"point has {point.shape[0]} coordinates, expected {params.d}")
    return tuple(int(c) for c in _grid_cells(params, point[:, None])[:, 0])


def centroid(params: HilbertParams, cell) -> np.ndarray:
    """Midpoint of a cell's subcube: component i = (2*cell_i + 1) / 2^(m+1)."""
    cell = _check_cell(params, cell)
    scale = 1.0 / (1 << (params.m + 1))
    return np.array([(2 * c + 1) * scale for c in cell])


def index_centroid(params: HilbertParams, index) -> float:
    """Midpoint of an index's subinterval of [0,1]: (2k + 1) / 2^(d*m + 1)."""
    index = _check_index(params, index)
    return (2 * index + 1) / float(1 << (params.d * params.m + 1))


def snap_to_centroids(params: HilbertParams, coords: np.ndarray) -> np.ndarray:
    """Replace each column of a d x n cloud with the centroid of its cell."""
    cells = _grid_cells(params, _as_cloud(params, coords))
    scale = 1.0 / (1 << (params.m + 1))
    return (np.uint64(2) * cells + np.uint64(1)).astype(float) * scale


def cloud_indices(params: HilbertParams, coords: np.ndarray) -> np.ndarray:
    """Curve index of every column of a d x n cloud with entries in [0,1]."""
    return _encode_cells(params, _grid_cells(params, _as_cloud(params, coords)))
