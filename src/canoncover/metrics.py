"""Base metrics and quotient metrics over permutation, sign, and translation groups.

A quotient metric is the distance between orbits: the minimum of the base
metric over one input's group orbit. The permutation quotients use exact
solvers, both through scipy's `linear_sum_assignment`: optimal assignment
for the summed cost, and threshold search with an assignment-solver
feasibility test for the bottleneck cost. Both take their n x n
column-pair costs from scipy's `cdist`, which sums each pair's
coordinates in one fixed order: the cost, and so the value, does not
depend on the memory layout of the inputs, and Fortran-ordered clouds
(as `read_cloud` returns them) cost no more than C-ordered ones.
`brute_perm_quotient` is the exhaustive oracle used to cross-check them
on small instances; it keeps its own broadcast cost.

`parse_metric` attaches a batched lower bound to the two permutation
quotients, for pruning coverage scans. Sorting is an exact 1-d isometry,
so the sorted per-axis marginals bound both quotients from below; for
perm-sum so does the distance between centroids (Rubner, Tomasi &
Guibas, IJCV 2000).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .canon import canon_centralize

__all__ = [
    "InternalConsistencyError",
    "Metric",
    "dist_inf",
    "dist_frobenius",
    "dist_mean_euclidean",
    "wasserstein_1d",
    "perm_quotient_sum",
    "perm_quotient_bottleneck",
    "perm_quotient_pnorm",
    "sign_quotient",
    "translation_quotient",
    "brute_perm_quotient",
    "parse_metric",
    "METRIC_CHOICES",
]

# Distances this far below zero indicate a bug, not rounding dust.
_NEGATIVE_GUARD = -1e-12


class InternalConsistencyError(RuntimeError):
    """A distance computation produced a meaningfully negative value."""


def _finalize(value: float) -> float:
    value = float(value)
    if value < _NEGATIVE_GUARD:
        raise InternalConsistencyError(f"distance {value} below {_NEGATIVE_GUARD}")
    return max(value, 0.0)


def _pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def dist_inf(X, Y) -> float:
    """Elementwise max-norm distance: max |X_ij - Y_ij|."""
    X, Y = _pair(X, Y)
    return _finalize(np.max(np.abs(X - Y)))


def _point_major_squares(X, Y) -> np.ndarray:
    """(X - Y)**2 transposed to a C-ordered n x d array.

    numpy sums in memory order, so the base metrics reduce this array, not
    X - Y: their values then do not depend on the inputs' layout, and equal
    what summing Fortran-ordered clouds (as `read_cloud` returns them) gives.
    """
    return np.ascontiguousarray((X - Y).T) ** 2


def dist_frobenius(X, Y) -> float:
    """Frobenius-norm distance."""
    X, Y = _pair(X, Y)
    return _finalize(np.sqrt(np.sum(_point_major_squares(X, Y))))


def dist_mean_euclidean(X, Y) -> float:
    """Mean over columns of the Euclidean distance between paired columns."""
    X, Y = _pair(X, Y)
    if X.ndim != 2:
        raise ValueError("mean-euclidean distance needs d x n matrices")
    return _finalize(np.mean(np.sqrt(np.sum(_point_major_squares(X, Y), axis=1))))


def wasserstein_1d(x, y, p=2) -> float:
    """p-norm distance between sorted copies of two real vectors.

    Equals the permutation-quotient distance min over pi of ||x - pi y||_p,
    because ascending sort is an isometry for one-dimensional p-norms.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    diff = np.abs(np.sort(x) - np.sort(y))
    if p == 1:
        return _finalize(np.sum(diff))
    if p == 2:
        return _finalize(np.sqrt(np.sum(diff**2)))
    if p in (np.inf, "inf"):
        return _finalize(np.max(diff))
    raise ValueError(f"p must be 1, 2, or inf, got {p!r}")


def perm_quotient_sum(X, Y) -> float:
    """Permutation-quotient of the mean-euclidean metric.

    min over column permutations pi of (1/n) sum_i ||X_pi(i) - Y_i||_2,
    solved exactly as an optimal assignment on the pairwise-cost matrix.
    """
    X, Y = _pair(X, Y)
    if X.ndim != 2:
        raise ValueError("perm quotient needs d x n matrices")
    cost = cdist(X.T, Y.T, "euclidean")
    rows, cols = linear_sum_assignment(cost)
    return _finalize(cost[rows, cols].sum() / X.shape[1])


def _bottleneck_assignment(cost: np.ndarray) -> float:
    """Smallest t such that some assignment uses no cost above t, found by
    binary search over the sorted distinct costs. A threshold t is feasible
    iff the optimal assignment on the 0/1 matrix `cost > t` picks no 1."""

    def feasible(t: float) -> bool:
        forbidden = cost > t
        rows, cols = linear_sum_assignment(forbidden)
        return not forbidden[rows, cols].any()

    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    if not feasible(values[hi]):
        raise InternalConsistencyError("complete cost matrix has no perfect matching")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def perm_quotient_bottleneck(X, Y) -> float:
    """Permutation-quotient of the elementwise max-norm metric.

    min over column permutations pi of max_i ||X_pi(i) - Y_i||_inf.
    """
    X, Y = _pair(X, Y)
    if X.ndim != 2:
        raise ValueError("perm quotient needs d x n matrices")
    return _finalize(_bottleneck_assignment(cdist(X.T, Y.T, "chebyshev")))


def perm_quotient_pnorm(x, y, p=2) -> float:
    """Permutation-quotient p-norm distance between two real vectors,
    solved by optimal assignment (p finite) or bottleneck search (p = inf).

    Independent of wasserstein_1d: no sorting involved.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    cost = np.abs(x[:, None] - y[None, :])
    if p in (np.inf, "inf"):
        return _finalize(_bottleneck_assignment(cost))
    if p not in (1, 2):
        raise ValueError(f"p must be 1, 2, or inf, got {p!r}")
    rows, cols = linear_sum_assignment(cost**p)
    total = (cost[rows, cols] ** p).sum()
    return _finalize(total ** (1.0 / p))


_SIGN_BASES = ("inf", "frobenius", "mean-euclidean")


def sign_quotient(X, Y, base: str = "inf") -> float:
    """Quotient of a base metric over the 2^d row-sign group.

    For bases that decompose over rows (inf: max of row maxima;
    frobenius: sum of row squares) the optimal sign of each row is chosen
    independently; other bases fall back to enumerating all 2^d patterns.
    """
    X, Y = _pair(X, Y)
    if X.ndim != 2:
        raise ValueError("sign quotient needs d x n matrices")
    d = X.shape[0]
    if d > 20:
        raise ValueError(f"sign quotient supports d <= 20, got d = {d}")
    if base == "inf":
        per_row = np.minimum(
            np.max(np.abs(X - Y), axis=1), np.max(np.abs(X + Y), axis=1)
        )
        return _finalize(np.max(per_row))
    if base == "frobenius":
        per_row = np.minimum(
            np.sum((X - Y) ** 2, axis=1), np.sum((X + Y) ** 2, axis=1)
        )
        return _finalize(np.sqrt(np.sum(per_row)))
    if base == "mean-euclidean":
        best = np.inf
        signs = np.ones(d)
        for mask in range(1 << d):
            for i in range(d):
                signs[i] = -1.0 if (mask >> i) & 1 else 1.0
            best = min(best, dist_mean_euclidean(signs[:, None] * X, Y))
        return _finalize(best)
    raise ValueError(f"unknown sign-quotient base {base!r}; pick from {_SIGN_BASES}")


def translation_quotient(X, Y) -> float:
    """Quotient of the Frobenius metric over translations: the distance
    between the centered clouds, which is the exact minimum over shifts."""
    X, Y = _pair(X, Y)
    if X.ndim != 2:
        raise ValueError("translation quotient needs d x n matrices")
    return _finalize(
        dist_frobenius(canon_centralize(X).cloud, canon_centralize(Y).cloud)
    )


_BRUTE_MAX_N = 8


def brute_perm_quotient(X, Y, base) -> float:
    """Exhaustive min over all n! column permutations of the base distance.

    `base` is a metric name ("inf", "frobenius", "mean-euclidean",
    "wasserstein-p1"/"p2"/"pinf" for 1 x n inputs) or any callable
    (X, Y) -> float. Test oracle; n <= 8.
    """
    X, Y = _pair(np.atleast_2d(np.asarray(X, dtype=float)),
                 np.atleast_2d(np.asarray(Y, dtype=float)))
    n = X.shape[1]
    if n > _BRUTE_MAX_N:
        raise ValueError(f"brute-force quotient supports n <= {_BRUTE_MAX_N}, got {n}")
    if callable(base):
        return _finalize(
            min(base(X[:, perm], Y) for perm in itertools.permutations(range(n)))
        )
    perms = np.array(list(itertools.permutations(range(n))))
    # Column-pair costs from a broadcast, independent of the solvers' cdist.
    diff = X[:, :, None] - Y[:, None, :]
    if base == "mean-euclidean":
        cost = np.sqrt(np.sum(diff**2, axis=0))
        return _finalize(cost[perms, np.arange(n)].sum(axis=1).min() / n)
    if base == "inf":
        cost = np.max(np.abs(diff), axis=0)
        return _finalize(cost[perms, np.arange(n)].max(axis=1).min())
    if base == "frobenius":
        sq = np.sum(diff**2, axis=0)
        return _finalize(np.sqrt(sq[perms, np.arange(n)].sum(axis=1).min()))
    if base in ("wasserstein-p1", "wasserstein-p2", "wasserstein-pinf"):
        if X.shape[0] != 1:
            raise ValueError("wasserstein bases apply to vectors (1 x n inputs)")
        cost = np.abs(X[0][:, None] - Y[0][None, :])
        if base.endswith("p1"):
            return _finalize(cost[perms, np.arange(n)].sum(axis=1).min())
        if base.endswith("p2"):
            return _finalize(np.sqrt((cost[perms, np.arange(n)] ** 2).sum(axis=1).min()))
        return _finalize(cost[perms, np.arange(n)].max(axis=1).min())
    raise ValueError(f"unknown base metric {base!r}")


@dataclass(frozen=True)
class Metric:
    """A named distance function on equally shaped clouds.

    `lower_bound(X, B)`, when set, maps one d x n cloud X and a stack B
    of C clouds (C x d x n) to C values, each at most func(X, B[c]).
    """

    name: str
    func: Callable[[np.ndarray, np.ndarray], float]
    lower_bound: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, X, Y) -> float:
        return self.func(X, Y)


def _wasserstein_on_clouds(p):
    def func(X, Y):
        X = np.asarray(X, dtype=float)
        if X.ndim == 2 and X.shape[0] != 1:
            raise ValueError("wasserstein metric applies to vectors (d = 1)")
        return wasserstein_1d(X, Y, p=p)

    return func


_REGISTRY: dict[str, Callable] = {
    "inf": dist_inf,
    "frobenius": dist_frobenius,
    "mean-euclidean": dist_mean_euclidean,
    "wasserstein:p1": _wasserstein_on_clouds(1),
    "wasserstein:p2": _wasserstein_on_clouds(2),
    "wasserstein:pinf": _wasserstein_on_clouds(np.inf),
    "perm-sum": perm_quotient_sum,
    "perm-bottleneck": perm_quotient_bottleneck,
    "translation": translation_quotient,
    "sign:inf": lambda X, Y: sign_quotient(X, Y, base="inf"),
    "sign:frobenius": lambda X, Y: sign_quotient(X, Y, base="frobenius"),
    "sign:mean-euclidean": lambda X, Y: sign_quotient(X, Y, base="mean-euclidean"),
}

METRIC_CHOICES = tuple(sorted(_REGISTRY))


def _sorted_marginal_gaps(X, B) -> np.ndarray:
    """sort(B_c, axis a) - sort(X_a) for every stacked cloud c and axis a:
    (C, d, n). Sorting is an exact 1-d isometry, so these gaps give the
    optimal matching along each axis taken alone."""
    return np.sort(B, axis=2) - np.sort(X, axis=1)


def _perm_sum_lower_bound(X, B) -> np.ndarray:
    """max(max_a W1_a / n, ||mean X - mean Y||_2) for every Y in B.

    Each column cost ||.||_2 is at least its gap along any one axis, and
    the mean of the costs is at least the norm of the mean difference
    (the centroid bound on earth mover's distance)."""
    gaps = _sorted_marginal_gaps(X, B)
    marginal = np.abs(gaps).mean(axis=2).max(axis=1)
    centroid = np.sqrt(np.sum(gaps.mean(axis=2) ** 2, axis=1))
    return np.maximum(marginal, centroid)


def _perm_bottleneck_lower_bound(X, B) -> np.ndarray:
    """max_a W_inf_a for every Y in B: each column cost ||.||_inf is at
    least its gap along any one axis."""
    return np.abs(_sorted_marginal_gaps(X, B)).max(axis=(1, 2))


_LOWER_BOUNDS: dict[str, Callable] = {
    "perm-sum": _perm_sum_lower_bound,
    "perm-bottleneck": _perm_bottleneck_lower_bound,
}


def parse_metric(spec) -> Metric:
    """Resolve a metric spec string (see METRIC_CHOICES) or pass a Metric through."""
    if isinstance(spec, Metric):
        return spec
    if callable(spec):
        return Metric(name=getattr(spec, "__name__", "custom"), func=spec)
    name = str(spec).strip().lower()
    if name not in _REGISTRY:
        raise ValueError(f"unknown metric {spec!r}; choices: {', '.join(METRIC_CHOICES)}")
    return Metric(name=name, func=_REGISTRY[name], lower_bound=_LOWER_BOUNDS.get(name))
