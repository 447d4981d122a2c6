"""Reference computations the benchmark checks the program against.

None of these import canoncover: each answer comes from numpy/scipy
primitives or from the paper's frozen table, so a defect in the code
under test cannot also hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# Bound magnitudes at d=3, eps=1/6, Hilbert column at grid order 10, as
# printed in the paper's table (two significant figures).
PAPER_CELLS = {
    ("quotient-upper", 250): "2.1e+36",
    ("quotient-upper", 500): "7.4e+43",
    ("quotient-upper", 750): "2.2e+48",
    ("quotient-upper", 1000): "3.5e+51",
    ("quotient-upper", 2000): "2.0e+59",
    ("hilbert-upper", 250): "5.3e+193",
    ("hilbert-upper", 500): "7.9e+278",
    ("hilbert-upper", 750): "5.0e+336",
    ("hilbert-upper", 1000): "5.0e+380",
    ("hilbert-upper", 2000): "4.4e+494",
    ("lexsort-lower", 250): "1.1e+239",
    ("lexsort-lower", 500): "4.0e+477",
    ("lexsort-lower", 750): "1.4e+716",
    ("lexsort-lower", 1000): "5.2e+954",
    ("lexsort-lower", 2000): "9.2e+1908",
    ("hypercube-exact", 250): "6.9e+357",
    ("hypercube-exact", 500): "4.8e+715",
    ("hypercube-exact", 750): "3.3e+1073",
    ("hypercube-exact", 1000): "2.3e+1431",
    ("hypercube-exact", 2000): "5.3e+2862",
}

# JSON output carries the exact integer only up to this many digits.
EXACT_DIGIT_CAP = 4096


def load_csv(path) -> np.ndarray:
    """A cloud CSV (one point per row, no header) as a d x n matrix."""
    return np.loadtxt(path, delimiter=",", ndmin=2).T


def normalize(coords: np.ndarray, sample_n: int, rng) -> np.ndarray:
    """The manifest normalization recipe: subsample sample_n distinct
    columns (sorted, drawn from the shared rng), shift each axis to start
    at zero, divide by the largest coordinate."""
    n = coords.shape[1]
    if sample_n < n:
        coords = coords[:, np.sort(rng.choice(n, size=sample_n, replace=False))]
    coords = coords - coords.min(axis=1, keepdims=True)
    peak = coords.max()
    return coords / peak if peak > 0 else coords


def perm_sum(X: np.ndarray, Y: np.ndarray) -> float:
    """min over column permutations of the mean Euclidean column distance."""
    cost = np.sqrt(((X[:, :, None] - Y[:, None, :]) ** 2).sum(axis=0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / X.shape[1])


def perm_bottleneck(X: np.ndarray, Y: np.ndarray) -> float:
    """min over column permutations of the largest max-norm column
    distance: the smallest cost entry whose threshold graph has a
    perfect matching (binary search, Hopcroft-Karp per step)."""
    cost = np.abs(X[:, :, None] - Y[:, None, :]).max(axis=0)
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(cost <= values[mid]),
                                           perm_type="column")
        if (match >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def hilbert_indices(coords: np.ndarray, m: int) -> np.ndarray:
    """Order-m Hilbert index of every column of a d x n cloud in [0,1]^d.

    Cells are floor(x * 2^m), clamped into the last cell at 1.0. The
    index is Skilling's transform ("Programming the Hilbert curve", AIP
    Conf. Proc. 707, 2004) applied to whole columns at once, with axis 0
    as the most significant bit of each level.
    """
    d = coords.shape[0]
    side = 1 << m
    cells = np.minimum(np.floor(coords * side), side - 1).astype(np.uint64)
    x = [cells[i].copy() for i in range(d)]
    q = 1 << (m - 1)
    while q > 1:
        p = np.uint64(q - 1)
        for i in range(d):
            high = (x[i] & np.uint64(q)) != 0
            t = (x[0] ^ x[i]) & p
            new0 = np.where(high, x[0] ^ p, x[0] ^ t)
            x[i] = np.where(high, x[i], x[i] ^ t)
            x[0] = new0
        q >>= 1
    for i in range(1, d):
        x[i] = x[i] ^ x[i - 1]
    t = np.zeros_like(x[0])
    q = 1 << (m - 1)
    while q > 1:
        t = np.where((x[d - 1] & np.uint64(q)) != 0, t ^ np.uint64(q - 1), t)
        q >>= 1
    h = np.zeros_like(x[0])
    for level in range(m - 1, -1, -1):
        for i in range(d):
            h = (h << np.uint64(1)) | (((x[i] ^ t) >> np.uint64(level)) & np.uint64(1))
    return h


def parse_sci(text: str) -> tuple[float, int]:
    """'2.1e+36' -> (2.1, 36)."""
    mant, _, exp = text.partition("e")
    return float(mant), int(exp)


def check_bounds_cells(items: list, n_list: list[int]) -> str | None:
    """Check a `bounds --format json` payload (four formulas per n);
    returns a failure message or None."""
    if len(items) != 4 * len(n_list):
        return f"expected {4 * len(n_list)} cells, got {len(items)}"
    seen = set()
    for item in items:
        key = (item["formula"], item["n"])
        seen.add(key)
        if key in PAPER_CELLS and item["value"] != PAPER_CELLS[key]:
            return f"{key}: value {item['value']} != paper {PAPER_CELLS[key]}"
        mant, exp = parse_sci(item["value"])
        log10 = item["log10"]
        # A mantissa rounded to 0.1 is off by at most log10(1.05) = 0.021.
        if not 1.0 <= mant < 10.0 or abs(math.log10(mant) + exp - log10) > 0.025:
            return f"{key}: value {item['value']} disagrees with log10 {log10}"
        digits = math.floor(log10) + 1
        if "exact" in item:
            exact = item["exact"]
            if not isinstance(exact, int) or len(str(exact)) != digits:
                return f"{key}: exact has the wrong digit count (log10 {log10})"
            if digits > EXACT_DIGIT_CAP:
                return f"{key}: exact has {digits} digits, over {EXACT_DIGIT_CAP}"
        elif digits < EXACT_DIGIT_CAP:
            return f"{key}: exact missing for a {digits}-digit value"
    missing = [k for k in PAPER_CELLS if k[1] in n_list and k not in seen]
    if missing:
        return f"paper cells missing from the output: {missing}"
    return None
