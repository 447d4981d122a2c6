"""Canonizations: deterministic orbit representatives for group-symmetric data.

Each map picks one representative from the orbit of its input under a
group action (permutations of points, per-axis signs, translations) and
reports the group element it applied. All comparisons are exact
floating-point comparisons; a tolerance here would break idempotence.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import HilbertParams, cloud_indices

__all__ = [
    "CanonResult",
    "DegenerateSpectrumError",
    "canon_abs",
    "canon_sort",
    "canon_centralize",
    "canon_lexsort",
    "canon_hilbert",
    "canon_hilbert_stack",
    "canon_c1",
    "canon_cinf",
    "pca_align",
    "canon_skewness_sign",
    "iter_sign_orbit",
    "jacobi_eigh",
]


class DegenerateSpectrumError(ValueError):
    """Covariance spectrum too close to degenerate for a unique alignment."""


@dataclass
class CanonResult:
    """Canonical cloud plus the group element that produced it.

    Exactly the fields relevant to the group are set: `perm` for
    permutation canonizations (cloud == input[:, perm]), `signs` for
    sign canonizations (cloud == signs[:, None] * input), `shift` for
    centralization (cloud == input - shift[:, None]). Each replay is
    bit-exact.
    """

    cloud: np.ndarray
    perm: np.ndarray | None = None
    signs: np.ndarray | None = None
    shift: np.ndarray | None = None


def _as_cloud(X, ndim: int = 2) -> np.ndarray:
    """X as a finite float array with `ndim` non-empty axes: a d x n cloud,
    or (ndim=3) an N x d x n stack of clouds."""
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim or 0 in X.shape:
        what = "a d x n matrix with d, n" if ndim == 2 else "an N x d x n stack with N, d, n"
        raise ValueError(f"expected {what} >= 1, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("cloud contains non-finite entries")
    return X


def canon_abs(t: float) -> float:
    """Sign-orbit representative of a scalar: |t|."""
    return abs(float(t))


def canon_sort(x) -> np.ndarray:
    """Permutation-orbit representative of a vector: ascending sort."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.sort(x, kind="stable")


# The centering shift is snapped to a power-of-two lattice of spacing
# 2^(exponent(max|X|) - GRID_BITS). Re-centering the output then snaps its
# residual mean to exactly zero, which is what makes canon_centralize
# bit-exactly idempotent; the shift stays within ~2^-45 relative of the
# true column mean.
_GRID_BITS = 44
_MAX_CENTER_ROUNDS = 200


def _lattice(Y: np.ndarray) -> float:
    peak = float(np.max(np.abs(Y)))
    if peak == 0.0:
        return 0.0
    return math.ldexp(1.0, math.frexp(peak)[1] - _GRID_BITS)


def canon_centralize(X) -> CanonResult:
    """Translation-orbit representative: subtract the (lattice-snapped) column mean."""
    X = _as_cloud(X)
    d = X.shape[0]
    shift = np.zeros(d)
    Y = X
    for _ in range(_MAX_CENTER_ROUNDS):
        grid = _lattice(Y)
        if grid == 0.0:
            return CanonResult(cloud=Y.copy(), shift=shift)
        q = np.rint(Y.mean(axis=1) / grid) * grid
        if not q.any():
            return CanonResult(cloud=Y.copy(), shift=shift)
        moved = shift + q
        stalled = (moved == shift) & (q != 0.0)
        if stalled.any():
            # Residual below half an ulp of the shift: step one ulp toward it.
            target = shift + np.where(q > 0, np.inf, -np.inf)
            moved = np.where(stalled, np.nextafter(shift, target), moved)
        shift = moved
        Y = X - shift[:, None]
    raise RuntimeError("centering failed to reach a fixed point")


def canon_lexsort(X) -> CanonResult:
    """Permutation-orbit representative: columns in lexicographic order.

    Row 0 is the primary key, row 1 breaks ties, and so on; fully
    identical columns keep their original relative order.
    """
    X = _as_cloud(X)
    order = np.lexsort(X[::-1])
    return CanonResult(cloud=X[:, order], perm=order)


def canon_hilbert(X, m: int) -> CanonResult:
    """Permutation-orbit representative: columns in Hilbert-curve order.

    Each column is assigned the curve index of its grid cell; columns are
    sorted by that index, columns sharing a cell lexicographically, and
    identical columns by original position. The permutation is applied to
    the original (unrounded) columns. This is `canon_hilbert_stack` on a
    stack of one; the cloud is C-ordered whatever the input's layout.
    """
    clouds, perms = canon_hilbert_stack(_as_cloud(X)[None], m)
    return CanonResult(cloud=clouds[0], perm=perms[0])


def canon_hilbert_stack(B, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`canon_hilbert` of every cloud in an N x d x n stack, in one pass.

    Returns (N x d x n C-ordered canonical clouds, N x n permutations),
    with clouds[k] == B[k][:, perms[k]]. One `cloud_indices` call covers
    the columns of all N clouds. A stable argsort of each item's indices
    orders it by curve index, then by original position. Columns that
    share a cell are then put in row order by one lexsort over those
    columns alone, keyed (item, index, rows), which writes them back into
    the slots they already hold. Each item's order is exactly the one
    `canon_hilbert` gives it alone.
    """
    B = _as_cloud(B, ndim=3)
    if np.min(B) < 0.0 or np.max(B) > 1.0:
        raise ValueError("hilbert canonization requires all entries in [0, 1]")
    N, d, n = B.shape
    params = HilbertParams(d=d, m=m)
    idx = cloud_indices(params, B.transpose(1, 0, 2).reshape(d, N * n)).reshape(N, n)
    perms = np.argsort(idx, axis=1, kind="stable")
    ranked = np.take_along_axis(idx, perms, axis=1)
    tied = ranked[:, 1:] == ranked[:, :-1]
    if tied.any():
        runs = np.zeros((N, n), dtype=bool)
        runs[:, 1:] = tied
        runs[:, :-1] |= tied
        item, slot = np.nonzero(runs)
        cols = perms[item, slot]
        rows = B[item, :, cols].T
        order = np.lexsort(tuple(rows[::-1]) + (ranked[item, slot], item))
        perms[item, slot] = cols[order]
    return np.take_along_axis(B, perms[:, None, :], axis=2), perms


def canon_c1(t: float) -> float:
    """Scalar sign canonization with a jump: |t| if |t| > 1/2, else -|t|."""
    a = abs(float(t))
    return a if a > 0.5 else -a


def canon_cinf(t, irrational: bool = False) -> Fraction:
    """Sign canonization over exact rationals: |t|, but -|t| when the
    value is flagged as standing for an irrational symbol."""
    v = abs(Fraction(t))
    return -v if irrational else v


def jacobi_eigh(A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a small symmetric matrix by cyclic Jacobi sweeps.

    Rotations run until the off-diagonal Frobenius mass drops below tol.
    Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    unsorted.
    """
    A = np.array(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    V = np.eye(d)
    off_mask = ~np.eye(d, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(A[off_mask] ** 2)))
        if off <= tol:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    else:
        raise RuntimeError("jacobi sweeps did not converge")
    return np.diag(A).copy(), V


# Eigenvalue gaps below this fraction of the spectral radius make the
# principal axes ambiguous.
_PCA_GAP = 1e-6


def pca_align(X, with_shift: bool = False):
    """Rotate a cloud into its principal axes.

    Centers X, eigendecomposes the column covariance, sorts eigenvalues
    descending, and applies the eigenbasis. Returns (aligned cloud,
    frame) where frame is the d x d orthogonal matrix applied; the
    aligned covariance is diagonal with descending diagonal. Raises
    DegenerateSpectrumError when two eigenvalues nearly coincide, since
    the axes are then only defined up to rotation.

    Translation commutes through the rotation, so the centering shift is
    applied after rotating: the output is the lattice-centered copy of
    frame @ X, which is what makes a second alignment a no-op (the
    rotated cloud's quantized mean is exactly zero, and its covariance is
    diagonal, so the next frame is exactly the identity). Each frame row
    has its largest-magnitude entry positive, fixing the eigenvector sign
    ambiguity. with_shift=True appends that post-rotation shift, so
    frame @ X - shift[:, None] replays the output bit-exactly.
    """
    X = _as_cloud(X)
    d, n = X.shape
    if d > 8:
        raise ValueError(f"pca alignment supports d <= 8, got d = {d}")
    Yc = X - X.mean(axis=1, keepdims=True)
    cov = (Yc @ Yc.T) / n
    # Normalize so the Jacobi threshold acts relative to the data scale;
    # ratios driving the rotations are scale-free.
    scale = float(np.max(np.abs(cov)))
    if scale == 0.0:
        raise DegenerateSpectrumError("covariance is zero; axes undefined")
    eigvals, eigvecs = jacobi_eigh(cov / scale)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    top = abs(eigvals[0])
    if top == 0.0:
        raise DegenerateSpectrumError("covariance is zero; axes undefined")
    for i in range(d - 1):
        if (eigvals[i] - eigvals[i + 1]) / top < _PCA_GAP:
            raise DegenerateSpectrumError(
                f"eigenvalues {eigvals[i] * scale:.6g} and "
                f"{eigvals[i + 1] * scale:.6g} are within relative gap {_PCA_GAP}"
            )
    frame = eigvecs.T.copy()
    flip = frame[np.arange(d), np.argmax(np.abs(frame), axis=1)] < 0.0
    frame[flip] *= -1.0
    res = canon_centralize(frame @ X)
    if with_shift:
        return res.cloud, frame, res.shift
    return res.cloud, frame


def canon_skewness_sign(X) -> CanonResult:
    """Sign-orbit representative of a centered cloud: flip each row whose
    third moment is negative; an exactly zero moment keeps sign +1."""
    X = _as_cloud(X)
    moments = np.sum(X**3, axis=1)
    signs = np.where(moments < 0.0, -1, 1)
    return CanonResult(cloud=signs[:, None] * X, signs=signs)


def iter_sign_orbit(X) -> Iterator[np.ndarray]:
    """All 2^d row-sign copies of a cloud, in binary-counter order.

    Bit i of the counter controls row i; the first copy is X itself. The
    copies are made one at a time, so a scan over them holds one copy in
    memory rather than 2^d. X is checked before the first.
    """
    X = _as_cloud(X)
    d = X.shape[0]
    if d > 20:
        raise ValueError(f"sign orbit supports d <= 20, got d = {d}")
    return (np.array([-1 if (mask >> i) & 1 else 1 for i in range(d)])[:, None] * X
            for mask in range(1 << d))
