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

Every `Metric` answers the nearest-candidate query, `Metric.nearest(T, B)`:
for each test cloud in T, the minimum distance to a candidate in B. Most
metrics take a plain minimum over B. `parse_metric` gives the two
permutation quotients a pruned scan, `Metric.scan`, that `nearest` takes
when all clouds share one shape: it maps a stack of Q test clouds to the
same exact minima while solving few of the candidates. It prunes in two
tiers. Tier 1, `_tier1`, is batched over the test stack: sorting is an
exact 1-d isometry, so the gaps W_a between the sorted per-axis
marginals bound both quotients from below,
as max_a Winf_a for perm-bottleneck and ||(W1_a)_a||_2 / n for perm-sum,
which dominates the centroid bound of Rubner, Tomasi & Guibas (IJCV
2000). The candidates' marginals are sorted once per call, and the gaps
are built for chunks of test clouds. For each test cloud, the lowest
candidate is solved, and only candidates whose bound is within a 1e-9
relative slack of that value survive. Tier 2 builds the survivors' costs
with one `cdist` call in j-major order, so each reduction runs over the
candidates at once, and bounds each cost matrix by its row reduction,
the feasible assignment dual of Kuhn's Hungarian method (Burkard,
Dell'Amico & Martello, *Assignment Problems*, 2009). Survivors are
solved in order of that bound until the next one exceeds the best value
by the slack. The reduced-cost bound sums non-negative terms read from
the same cost matrix the solver reads, so its rounding error is a few
ulps of the candidate's own value, far inside the slack.

scipy is imported on the first call to `linear_sum_assignment` or
`cdist`, that is, on the first permutation-quotient solve or cost build,
never on import. Importing it takes longer than the jobs that do not need
it (`canonize`, `gen`, `bounds`, the base metrics). Both names are module
functions that every caller looks up at call time, so patching either on
this module reaches every solve or cost build, before or after scipy loads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .canon import _as_cloud, canon_centralize, iter_sign_orbit
from .choices import METRIC_CHOICES

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


@functools.cache
def _scipy():
    """scipy's assignment solver and `cdist`, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as solve
    from scipy.spatial.distance import cdist as pair_costs
    return solve, pair_costs


def linear_sum_assignment(cost_matrix, maximize=False):
    """scipy.optimize.linear_sum_assignment, loaded on first use."""
    return _scipy()[0](cost_matrix, maximize)


def cdist(XA, XB, metric="euclidean"):
    """scipy.spatial.distance.cdist, loaded on first use."""
    return _scipy()[1](XA, XB, metric)


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
    """Both inputs as finite, non-empty d x n float arrays of one shape."""
    X = _as_cloud(X)
    Y = _as_cloud(Y)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def _vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs flattened to finite float vectors of one length."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("cloud contains non-finite entries")
    return x, y


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
    return _finalize(np.mean(np.sqrt(np.sum(_point_major_squares(X, Y), axis=1))))


def wasserstein_1d(x, y, p=2) -> float:
    """p-norm distance between sorted copies of two real vectors.

    Equals the permutation-quotient distance min over pi of ||x - pi y||_p,
    because ascending sort is an isometry for one-dimensional p-norms.
    """
    x, y = _vector_pair(x, y)
    diff = np.abs(np.sort(x) - np.sort(y))
    if p == 1:
        return _finalize(np.sum(diff))
    if p == 2:
        return _finalize(np.sqrt(np.sum(diff**2)))
    if p in (np.inf, "inf"):
        return _finalize(np.max(diff))
    raise ValueError(f"p must be 1, 2, or inf, got {p!r}")


def _assignment_mean(cost: np.ndarray) -> float:
    """Mean cost of an optimal assignment on an n x n cost matrix."""
    rows, cols = linear_sum_assignment(cost)
    return _finalize(cost[rows, cols].sum() / cost.shape[1])


def perm_quotient_sum(X, Y) -> float:
    """Permutation-quotient of the mean-euclidean metric.

    min over column permutations pi of (1/n) sum_i ||X_pi(i) - Y_i||_2,
    solved exactly as an optimal assignment on the pairwise-cost matrix.
    """
    X, Y = _pair(X, Y)
    return _assignment_mean(cdist(X.T, Y.T, "euclidean"))


def _bottleneck_assignment(cost: np.ndarray) -> float:
    """Smallest t such that some assignment uses no cost above t.

    A threshold t is feasible iff the optimal assignment on the 0/1 matrix
    `cost > t` picks no 1. The answer is one of the distinct costs, and it
    lies in a bracket: no assignment costs less than the largest row or
    column minimum, since it takes one entry of every row and column, and
    the largest entry of one min-sum assignment is feasible. A binary
    search runs over the distinct costs inside that bracket only."""

    def feasible(t: float) -> bool:
        forbidden = cost > t
        rows, cols = linear_sum_assignment(forbidden)
        return not forbidden[rows, cols].any()

    rows, cols = linear_sum_assignment(cost)
    upper = cost[rows, cols].max()
    lower = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    values = np.unique(cost[(cost >= lower) & (cost <= upper)])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def _assignment_max(cost: np.ndarray) -> float:
    """Largest cost of an optimal bottleneck assignment."""
    return _finalize(_bottleneck_assignment(cost))


def perm_quotient_bottleneck(X, Y) -> float:
    """Permutation-quotient of the elementwise max-norm metric.

    min over column permutations pi of max_i ||X_pi(i) - Y_i||_inf.
    """
    X, Y = _pair(X, Y)
    return _assignment_max(cdist(X.T, Y.T, "chebyshev"))


def perm_quotient_pnorm(x, y, p=2) -> float:
    """Permutation-quotient p-norm distance between two real vectors,
    solved by optimal assignment (p finite) or bottleneck search (p = inf).

    Independent of wasserstein_1d: no sorting involved.
    """
    x, y = _vector_pair(x, y)
    cost = np.abs(x[:, None] - y[None, :])
    if p in (np.inf, "inf"):
        return _assignment_max(cost)
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
    independently, in O(d n) for any d. mean-euclidean enumerates all 2^d
    patterns through `iter_sign_orbit`, which refuses d > 20.
    """
    X, Y = _pair(X, Y)
    if base == "inf":
        per_row = np.minimum(
            np.max(np.abs(X - Y), axis=1), np.max(np.abs(X + Y), axis=1)
        )
        return _finalize(np.max(per_row))
    if base == "frobenius":
        per_row = np.minimum(
            np.sum(_point_major_squares(X, Y), axis=0),
            np.sum(_point_major_squares(X, -Y), axis=0),
        )
        return _finalize(np.sqrt(np.sum(per_row)))
    if base == "mean-euclidean":
        return _finalize(min(dist_mean_euclidean(S, Y) for S in iter_sign_orbit(X)))
    raise ValueError(f"unknown sign-quotient base {base!r}; pick from {_SIGN_BASES}")


def translation_quotient(X, Y) -> float:
    """Quotient of the Frobenius metric over translations: the distance
    between the centered clouds, which is the exact minimum over shifts."""
    X, Y = _pair(X, Y)
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

    `scan(T, B)`, when set, maps a stack T of Q test clouds (Q x d x n,
    Q >= 0) to Q values, min over c of func(T[q], B[c]) bit for bit,
    without solving every candidate (see the module docstring for its
    two pruning tiers). A single cloud X is passed as X[None].
    """

    name: str
    func: Callable[[np.ndarray, np.ndarray], float]
    scan: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, X, Y) -> float:
        return self.func(X, Y)

    def nearest(self, T, B) -> np.ndarray:
        """min over Y in B of func(X, Y) for each cloud X of T, as float64.

        T and B are sequences or stacks of clouds. When the metric has a
        `scan` and every cloud in T and B has one shape, the scan answers;
        otherwise each X takes a plain minimum over B in order. `func` is
        read at call time, so a `dataclasses.replace` of it is called.
        """
        if self.scan and len({np.shape(X) for X in itertools.chain(T, B)}) == 1:
            return self.scan(T, B)
        return np.array([min(self.func(X, Y) for Y in B) for X in T], dtype=float)


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


# Most gap entries one tier-1 chunk of test clouds holds: 512 KB of
# float64. A chunk holds at least one test cloud.
_TIER1_CHUNK = 1 << 16


def _tier1(marginal_bound, T, B) -> np.ndarray:
    """marginal_bound(|sort(B[c], axis a) - sort(T[q], axis a)|) for every
    test cloud q and candidate c: (Q, C).

    Sorting is an exact 1-d isometry, so these gaps give the optimal
    matching along each axis taken alone. Both stacks are sorted once;
    the gaps are built for chunks of test clouds of at most `_TIER1_CHUNK`
    entries. Each bound reduces the trailing (d, n) axes of one
    C-ordered chunk, so a row depends neither on the chunking nor on the
    stacks' memory layout."""
    T, B = (np.ascontiguousarray(np.sort(S, axis=-1)) for S in (T, B))
    per_chunk = max(1, _TIER1_CHUNK // max(B.size, 1))
    lower = np.empty((len(T), len(B)))
    for q in range(0, len(T), per_chunk):
        gaps = B - T[q:q + per_chunk, None]
        lower[q:q + per_chunk] = marginal_bound(np.abs(gaps, out=gaps))
    return lower


def _perm_sum_marginal_bound(gaps) -> np.ndarray:
    """||(W1_a)_a||_2 / n over the trailing (d, n) axes of absolute sorted
    gaps, with W1_a the sum of axis a's gaps.

    For any unit w >= 0, ||x_i - y_pi(i)||_2 >= sum_a w_a |x_ia - y_pi(i)a|,
    and summed over i that is at least sum_a w_a W1_a; w = W1 / ||W1||
    gives ||W1||. This dominates both the largest marginal, max_a W1_a,
    and the centroid gap, since W1_a >= |sum_i (x_ia - y_ia)|."""
    return np.sqrt(np.sum(gaps.sum(axis=-1) ** 2, axis=-1)) / gaps.shape[-1]


def _perm_bottleneck_marginal_bound(gaps) -> np.ndarray:
    """max_a Winf_a, the largest absolute sorted gap over the trailing
    (d, n) axes: each column cost ||.||_inf is at least its gap along any
    one axis."""
    return gaps.max(axis=(-2, -1))


def _reduced_cost_sum_bound(cost) -> np.ndarray:
    """Row-reduction dual of each n x n matrix in an S x n x n cost
    stack, divided by n: (S,).

    With u_i the row minima and v_j the column minima of cost - u, every
    u_i + v_j <= cost_ij, so sum(u) + sum(v) is at most the cost of any
    assignment. All terms are non-negative and come from the same matrix
    the solver reads. The reductions run on the (i, j, S) transpose, which
    is C-ordered for a `_cost_block`."""
    cost = cost.transpose(1, 2, 0)
    u = cost.min(axis=1)
    v = (cost - u[:, None]).min(axis=0)
    return (u.sum(axis=0) + v.sum(axis=0)) / cost.shape[1]


def _reduced_cost_max_bound(cost) -> np.ndarray:
    """max(largest row minimum, largest column minimum) of each n x n
    matrix in an S x n x n cost stack: (S,). Every row and every column takes one entry of an
    assignment, so no bottleneck assignment costs less."""
    return np.maximum(cost.min(axis=2).max(axis=1), cost.min(axis=1).max(axis=1))


# A candidate is skipped only when its bound exceeds the best exact value
# by this relative margin, so values that tie within float rounding are
# still solved.
_PRUNE_SLACK = 1 + 1e-9

# Most cost entries one block of survivors holds: 8 MB of float64. At
# n = 1024 a block holds one candidate.
_COST_BLOCK = 1 << 20


def _cost_block(X, B, base) -> np.ndarray:
    """cdist(X.T, B[s].T, base) for every cloud s of the stack B, from one
    cdist call over B's stacked points in j-major order: an S x n x n view
    whose candidate axis s is the contiguous one, so the reduced-cost
    bounds reduce rows and columns of every candidate at once. cdist
    computes each pair's distance on its own, so every slice equals the
    per-pair cost bit for bit."""
    S, d, n = B.shape
    cost = cdist(X.T, B.transpose(2, 0, 1).reshape(n * S, d), base)
    return cost.reshape(n, n, S).transpose(2, 0, 1)


def _nearest_one(base, reduced_bound, solve, X, B, lower) -> float:
    """min over c of solve(cdist(X.T, B[c].T, base)) for one test cloud X,
    given its tier-1 bounds `lower` against B: tier 2 of the scan."""
    order = np.argsort(lower, kind="stable")
    best = solve(cdist(X.T, B[order[0]].T, base))
    rest = order[1:]
    per_block = max(1, _COST_BLOCK // X.shape[1] ** 2)
    while True:
        rest = rest[lower[rest] <= best * _PRUNE_SLACK]
        if not len(rest):
            return best
        block, rest = rest[:per_block], rest[per_block:]
        cost = _cost_block(X, B[block], base)
        reduced = reduced_bound(cost)
        for k in np.argsort(reduced, kind="stable"):
            if reduced[k] > best * _PRUNE_SLACK:
                break
            best = min(best, solve(cost[k]))


def _nearest_perm(base, marginal_bound, reduced_bound, solve, T, B) -> np.ndarray:
    """min over c of solve(cdist(T[q].T, B[c].T, base)) for every test
    cloud q of the stack T: (Q,), pruned in two tiers."""
    B = _as_cloud(B, ndim=3)
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(T):  # an empty Q = 0 stack is accepted
        T = _as_cloud(T, ndim=3)
    if T.shape[1:] != B.shape[1:]:
        raise ValueError(f"shape mismatch: {T.shape[1:]} vs {B.shape[1:]}")
    lower = _tier1(marginal_bound, T, B)
    return np.array([_nearest_one(base, reduced_bound, solve, X, B, lower[q])
                     for q, X in enumerate(T)])


_PRUNED_SCANS: dict[str, Callable] = {
    "perm-sum": functools.partial(_nearest_perm, "euclidean", _perm_sum_marginal_bound,
                                  _reduced_cost_sum_bound, _assignment_mean),
    "perm-bottleneck": functools.partial(_nearest_perm, "chebyshev",
                                         _perm_bottleneck_marginal_bound,
                                         _reduced_cost_max_bound, _assignment_max),
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
    return Metric(name=name, func=_REGISTRY[name], scan=_PRUNED_SCANS.get(name))
