"""Self-check suites: compact, seeded versions of the library's invariants.

Each suite is a list of named checks; a check raises AssertionError to
fail. The CLI `verify` command runs a suite and reports one line per
check. The full-depth versions of these properties live in the test
suite; these are sized to finish in seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, canon, hilbert, metrics
from .choices import SUITE_NAMES
from .coverage import (coverage as coverage_of, exact_cover_number,
                       greedy_net, two_ball_set)
from .data import canonize_dataset, synthetic_split

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# The reference table of bound magnitudes at d=3, eps=1/6 (Hilbert column
# at grid order 10), as two-significant-figure mantissa/exponent strings.
_TABLE_CELLS = {
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


def _params_grid(max_d=3, max_m=4, cap=12):
    for d in range(1, max_d + 1):
        for m in range(1, max_m + 1):
            if d * m <= cap:
                yield hilbert.HilbertParams(d=d, m=m)


def _check_hilbert_bijection(rng):
    for params in _params_grid():
        seen = set()
        for k in range(params.n_cells):
            cell = hilbert.decode(params, k)
            seen.add(cell)
            assert hilbert.encode(params, cell) == k, (params, k)
        assert len(seen) == params.n_cells, params


def _check_hilbert_array_encoder(rng):
    for params in _params_grid():
        cells = [hilbert.decode(params, k) for k in range(params.n_cells)]
        centroids = np.array([hilbert.centroid(params, c) for c in cells]).T
        got = hilbert.cloud_indices(params, centroids).tolist()
        assert got == [hilbert.encode(params, c) for c in cells], params
    # One random grid per d at the largest order the 64-bit index allows,
    # with the all-0 and all-(2^m - 1) cells.
    for d in range(1, 9):
        params = hilbert.HilbertParams(d=d, m=hilbert.MAX_TOTAL_BITS // d)
        cells = rng.integers(0, params.cells_per_axis, size=(d, 32), dtype=np.uint64)
        cells[:, 0] = 0
        cells[:, 1] = params.cells_per_axis - 1
        got = hilbert._encode_cells(params, cells).tolist()
        assert got == [hilbert.encode(params, c) for c in cells.T.tolist()], params


def _check_hilbert_adjacency(rng):
    for params in _params_grid():
        prev = hilbert.decode(params, 0)
        for k in range(1, params.n_cells):
            cur = hilbert.decode(params, k)
            l1 = sum(abs(a - b) for a, b in zip(prev, cur))
            assert l1 == 1, (params, k, prev, cur)
            prev = cur


def _check_hilbert_nesting(rng):
    for d in range(1, 4):
        for m in range(1, 4):
            coarse = hilbert.HilbertParams(d=d, m=m)
            fine = hilbert.HilbertParams(d=d, m=m + 1)
            for k in range(fine.n_cells):
                child = hilbert.decode(fine, k)
                parent = hilbert.decode(coarse, k >> d)
                assert tuple(c >> 1 for c in child) == parent, (d, m, k)


def _holder_violations(params, pairs) -> int:
    cells = np.array([hilbert.decode(params, k) for k in range(params.n_cells)])
    img = (2.0 * cells + 1.0) / (1 << (params.m + 1))
    pre = (2.0 * np.arange(params.n_cells) + 1.0) / float(1 << (params.d * params.m + 1))
    i, j = pairs
    lhs = np.max(np.abs(img[i] - img[j]), axis=1)
    rhs = 4.0 * np.abs(pre[i] - pre[j]) ** (1.0 / params.d)
    return int(np.sum(lhs > rhs + 1e-12))


def _check_hilbert_holder(rng):
    for params in [hilbert.HilbertParams(2, m) for m in (1, 2, 3)]:
        idx = np.arange(params.n_cells)
        i, j = np.meshgrid(idx, idx, indexing="ij")
        assert _holder_violations(params, (i.ravel(), j.ravel())) == 0, params
    params = hilbert.HilbertParams(3, 2)
    i = rng.integers(0, params.n_cells, size=20000)
    j = rng.integers(0, params.n_cells, size=20000)
    assert _holder_violations(params, (i, j)) == 0, params


def _random_cloud(rng, d=None, n=None):
    d = d or int(rng.integers(1, 5))
    n = n or int(rng.integers(1, 17))
    return rng.random((d, n))


def _check_canon_idempotence(rng):
    for _ in range(100):
        X = _random_cloud(rng)
        assert np.array_equal(
            canon.canon_lexsort(canon.canon_lexsort(X).cloud).cloud,
            canon.canon_lexsort(X).cloud)
        assert np.array_equal(
            canon.canon_hilbert(canon.canon_hilbert(X, m=4).cloud, m=4).cloud,
            canon.canon_hilbert(X, m=4).cloud)
        assert np.array_equal(
            canon.canon_centralize(canon.canon_centralize(X).cloud).cloud,
            canon.canon_centralize(X).cloud)
        assert np.array_equal(
            canon.canon_skewness_sign(canon.canon_skewness_sign(X).cloud).cloud,
            canon.canon_skewness_sign(X).cloud)
        t = float(rng.normal())
        assert canon.canon_abs(canon.canon_abs(t)) == canon.canon_abs(t)
        assert canon.canon_c1(canon.canon_c1(t)) == canon.canon_c1(t)
        x = rng.random(8)
        assert np.array_equal(canon.canon_sort(canon.canon_sort(x)), canon.canon_sort(x))


def _check_pca_align(rng):
    for _ in range(40):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 3, 40))
        X = rng.normal(size=(d, n)) * (1.0 + np.arange(d))[:, None]
        try:
            aligned, frame = canon.pca_align(X)
        except canon.DegenerateSpectrumError:
            continue
        assert np.allclose(frame @ frame.T, np.eye(d), atol=1e-9)
        cov = (aligned @ aligned.T) / n
        off = cov[~np.eye(d, dtype=bool)]
        assert off.size == 0 or np.max(np.abs(off)) <= 1e-8
        diag = np.diag(cov)
        assert np.all(diag[:-1] >= diag[1:] - 1e-8)
        again, frame2 = canon.pca_align(aligned)
        assert np.array_equal(again, aligned)
        assert np.array_equal(frame2, np.eye(d))


def _check_canon_orbit_membership(rng):
    for _ in range(100):
        X = _random_cloud(rng)
        for res in (canon.canon_lexsort(X), canon.canon_hilbert(X, m=4)):
            assert sorted(map(tuple, res.cloud.T)) == sorted(map(tuple, X.T))
        res = canon.canon_skewness_sign(X)
        for r in range(X.shape[0]):
            row = res.cloud[r]
            assert np.array_equal(row, X[r]) or np.array_equal(row, -X[r])


def _check_canon_orbit_invariance(rng):
    for _ in range(20):
        X = _random_cloud(rng)
        ref_lex = canon.canon_lexsort(X).cloud
        ref_hil = canon.canon_hilbert(X, m=4).cloud
        for _ in range(20):
            perm = rng.permutation(X.shape[1])
            assert np.array_equal(canon.canon_lexsort(X[:, perm]).cloud, ref_lex)
            assert np.array_equal(canon.canon_hilbert(X[:, perm], m=4).cloud, ref_hil)
        x = rng.random(10)
        ref_sort = canon.canon_sort(x)
        for _ in range(20):
            assert np.array_equal(canon.canon_sort(rng.permutation(x)), ref_sort)
        t = float(rng.normal())
        assert canon.canon_abs(-t) == canon.canon_abs(t)
        assert canon.canon_c1(-t) == canon.canon_c1(t)


def _check_canon_hilbert_stack(rng):
    for params in _params_grid():
        n = int(rng.integers(1, 13))
        B = rng.random((6, params.d, n))
        B[:, :, 0] = 0.0
        B[1:3, :, -1] = 1.0
        B[3] = B[4]
        B[5, :, n // 2] = B[5, :, 0]
        clouds, perms = canon.canon_hilbert_stack(B, params.m)
        for k, X in enumerate(B):
            # The single-cloud rule, computed here rather than through
            # canon_hilbert, which shares the stacked code.
            perm = np.lexsort(tuple(X[::-1]) + (hilbert.cloud_indices(params, X),))
            assert np.array_equal(perms[k], perm), (params, k)
            assert np.array_equal(clouds[k], X[:, perm]), (params, k)


def _check_metric_axioms(rng):
    names = ["inf", "frobenius", "mean-euclidean", "perm-sum",
             "perm-bottleneck", "translation", "sign:inf"]
    for _ in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        X, Y, Z = (rng.random((d, n)) for _ in range(3))
        for name in names:
            metric = metrics.parse_metric(name)
            assert abs(metric(X, Y) - metric(Y, X)) <= _TOL, name
            assert metric(X, Z) <= metric(X, Y) + metric(Y, Z) + _TOL, name


def _check_solvers_against_brute(rng):
    for _ in range(50):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        X, Y = rng.random((d, n)), rng.random((d, n))
        assert abs(metrics.perm_quotient_sum(X, Y)
                   - metrics.brute_perm_quotient(X, Y, "mean-euclidean")) <= _TOL
        assert abs(metrics.perm_quotient_bottleneck(X, Y)
                   - metrics.brute_perm_quotient(X, Y, "inf")) <= _TOL


# (name, base for brute_perm_quotient, base distance, tier-1 marginal bound)
_PERM_QUOTIENTS = (
    ("perm-sum", "mean-euclidean", metrics.dist_mean_euclidean,
     metrics._perm_sum_marginal_bound),
    ("perm-bottleneck", "inf", metrics.dist_inf, metrics._perm_bottleneck_marginal_bound),
)


def _check_quotient_sandwich(rng):
    canons = (("hilbert:4", lambda Z: canon.canon_hilbert(Z, m=4).cloud),
              ("lexsort", lambda Z: canon.canon_lexsort(Z).cloud))
    for _ in range(25):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        T, B = rng.random((2, d, n)), rng.random((2, d, n))
        for name, base, dist, marginal_bound in _PERM_QUOTIENTS:
            lower = metrics._tier1(marginal_bound, T, B)
            for (q, X), (c, Y) in itertools.product(enumerate(T), enumerate(B)):
                quotient = metrics.brute_perm_quotient(X, Y, base)
                assert lower[q, c] <= quotient + _TOL, (name, lower[q, c], quotient)
                for spec, canonize in canons:
                    canonized = dist(canonize(X), canonize(Y))
                    assert quotient <= canonized + _TOL, (name, spec, quotient, canonized)


def _check_batched_tier1(rng):
    # The whole test stack fits one chunk, against one chunk per test
    # cloud. Both layouts.
    for i in range(10):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        T, B = rng.random((int(rng.integers(1, 9)), d, n)), rng.random((12, d, n))
        if i % 2:
            T, B = np.asfortranarray(T.round(1)), np.asfortranarray(B.round(1))
        for name, _, _, marginal_bound in _PERM_QUOTIENTS:
            batched = metrics._tier1(marginal_bound, T, B)
            for q, X in enumerate(T):
                single = metrics._tier1(marginal_bound, X[None], B)[0]
                assert np.array_equal(batched[q], single), (name, i, q)


def _check_reduced_cost_bound(rng):
    cases = (("mean-euclidean", "euclidean", metrics._reduced_cost_sum_bound),
             ("inf", "chebyshev", metrics._reduced_cost_max_bound))
    for i in range(50):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        X, B = rng.random((d, n)), rng.random((2, d, n))
        if i % 2:  # exact ties and duplicated columns
            X, B = X.round(1), B.round(1)
            X[:, -1] = X[:, 0]
        for base, name, bound in cases:
            lower = bound(metrics._cost_block(X, B, name))
            for s, Y in enumerate(B):
                quotient = metrics.brute_perm_quotient(X, Y, base)
                assert lower[s] <= quotient + _TOL, (base, lower[s], quotient)


def _check_sign_rowwise_vs_exhaustive(rng):
    for _ in range(50):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        X, Y = rng.standard_normal((d, n)), rng.standard_normal((d, n))
        for base, func in (("inf", metrics.dist_inf),
                           ("frobenius", metrics.dist_frobenius)):
            fast = metrics.sign_quotient(X, Y, base=base)
            brute = min(func(S, Y) for S in canon.iter_sign_orbit(X))
            assert abs(fast - brute) <= _TOL, base


def _check_isometry_sort(rng):
    for _ in range(200):
        n = int(rng.integers(1, 13))
        x, y = rng.random(n), rng.random(n)
        for p in (1, 2):
            assert abs(metrics.wasserstein_1d(x, y, p=p)
                       - metrics.perm_quotient_pnorm(x, y, p=p)) <= _TOL


def _check_isometry_centralize(rng):
    for _ in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        X, Y = rng.random((d, n)), rng.random((d, n))
        lhs = metrics.dist_frobenius(canon.canon_centralize(X).cloud,
                                     canon.canon_centralize(Y).cloud)
        assert abs(lhs - metrics.translation_quotient(X, Y)) <= _TOL


def _check_isometry_abs(rng):
    for _ in range(200):
        s, t = float(rng.normal()), float(rng.normal())
        quotient = min(abs(s - t), abs(s + t))
        assert abs(abs(canon.canon_abs(s) - canon.canon_abs(t)) - quotient) <= _TOL


def _check_lexsort_witness(rng):
    X = np.array([[0.5, 0.5], [0.0, 1.0]])
    Y = np.array([[0.49, 0.51], [1.0, 0.0]])
    canonized = metrics.dist_inf(canon.canon_lexsort(X).cloud,
                                 canon.canon_lexsort(Y).cloud)
    quotient = metrics.perm_quotient_bottleneck(X, Y)
    assert canonized - quotient >= 0.1, (canonized, quotient)


def _check_poor_c1(rng):
    points = two_ball_set()
    raw = exact_cover_number(points, "inf", 0.1)
    canonized = exact_cover_number(
        [np.array([[canon.canon_c1(float(p[0, 0]))]]) for p in points], "inf", 0.1)
    quotient = exact_cover_number(points, "sign:inf", 0.1)
    assert (raw, canonized, quotient) == (2, 2, 1), (raw, canonized, quotient)


def _check_coverage_domination(rng):
    train, test = synthetic_split(30, 15, clusters=3, d=3, n_points=8,
                                  seed=int(rng.integers(0, 2**31)))
    quotient = coverage_of(train, test, "perm-sum")
    for spec in ("hilbert:4", "lexsort"):
        canonized = coverage_of(canonize_dataset(train, spec),
                                      canonize_dataset(test, spec), "mean-euclidean")
        assert np.all(quotient.q <= canonized.q + _TOL), spec


def _check_pruned_scan(rng):
    train, test = synthetic_split(30, 15, clusters=3, d=3, n_points=6,
                                  seed=int(rng.integers(0, 2**31)))
    for name in ("perm-sum", "perm-bottleneck"):
        metric = metrics.parse_metric(name)
        for same_label in (False, True):
            full = [min(metric(t.coords, c.coords) for c in train.items
                        if not same_label or c.label == t.label)
                    for t in test.items]
            pruned = coverage_of(train, test, metric, same_label_only=same_label)
            assert np.array_equal(pruned.q, full), (name, same_label)
    # At n = 256 a cost block holds 16 candidates; one cluster usually
    # leaves more tier-1 survivors than that, so the scan spans two blocks.
    train, test = synthetic_split(24, 4, clusters=1, d=2, n_points=256,
                                  seed=int(rng.integers(0, 2**31)))
    metric = metrics.parse_metric("perm-sum")
    full = [min(metric(t.coords, c.coords) for c in train.items) for t in test.items]
    assert np.array_equal(coverage_of(train, test, metric).q, full), "n = 256"


def _check_nearest_in_later_block(rng):
    # Every candidate shuffles each row of one cloud on its own, so all
    # share their sorted marginals and centroid: tier 1 gives them one
    # bound and keeps them in stack order. The test cloud is a column
    # permutation of the last candidate, at quotient distance 0, which
    # puts the nearest candidate past the first cost block.
    n = 256
    per_block = metrics._COST_BLOCK // (n * n)
    base = rng.random((2, n))
    B = np.stack([np.stack([rng.permutation(row) for row in base])
                  for _ in range(per_block + 4)])
    X = B[-1][:, rng.permutation(n)]
    metric = metrics.parse_metric("perm-sum")
    lower = metrics._tier1(metrics._perm_sum_marginal_bound, X[None], B)[0]
    assert np.all(lower == lower[0]), "tier 1 separates the candidates"
    full = [metric(X, Y) for Y in B]
    assert int(np.argmin(full)) == len(B) - 1 and full[-1] == 0.0, full
    nearest = metric.nearest(X[None], B)
    assert np.array_equal(nearest, [min(full)]), (nearest, min(full))


def _check_greedy_validity(rng):
    for _ in range(20):
        pts = [rng.random((2, 3)) for _ in range(12)]
        eps = float(rng.uniform(0.05, 0.8))
        net = greedy_net(pts, "frobenius", eps)
        metric = metrics.parse_metric("frobenius")
        for p in pts:
            assert min(metric(p, pts[c]) for c in net.center_indices) <= eps
        for a, b in itertools.combinations(net.center_indices, 2):
            assert metric(pts[a], pts[b]) > eps


def _check_exact_vs_greedy(rng):
    for _ in range(20):
        pts = [rng.random((1, 2)) for _ in range(8)]
        eps = float(rng.uniform(0.1, 0.6))
        exact = exact_cover_number(pts, "frobenius", eps)
        greedy = greedy_net(pts, "frobenius", eps).size
        assert exact <= greedy, (exact, greedy)


def _check_bounds_table(rng):
    entries = bounds.bounds_table()
    rendered = {(e.formula, e.n): bounds.sci_string(e.value) for e in entries}
    for key, expected in _TABLE_CELLS.items():
        assert rendered[key] == expected, (key, rendered[key], expected)


def _check_mantissa_brackets(rng):
    # Integer certificate of the formatted magnitudes, no Decimal: the
    # digit count brackets x between powers of ten, and m * 10^e lies
    # within half a unit of the mantissa's last place (10^(e-1)) of x,
    # with both sides times 10 so that e = 0 needs no fractions.
    n_list = bounds.DEFAULT_TABLE_N + (50000,)
    for entry in bounds.bounds_table(n_list=n_list):
        x = entry.value.exact
        digits = bounds.digit_count(x)
        assert 10 ** (digits - 1) <= x < 10 ** digits, (entry.formula, entry.n)
        mant, exp = bounds.mantissa_exponent(entry.value)
        tenths = round(mant * 10)
        assert tenths / 10 == mant and 10 <= tenths <= 99, (entry.formula, entry.n, mant)
        assert ((2 * tenths - 1) * 10 ** exp <= 20 * x
                <= (2 * tenths + 1) * 10 ** exp), (entry.formula, entry.n, mant, exp)


def _check_multiset_brute(rng):
    for n in range(1, 6):
        for m in range(1, 6):
            classes = {tuple(sorted(t))
                       for t in itertools.product(range(m), repeat=n)}
            assert bounds.multiset_count(n, m) == len(classes), (n, m)


def _check_exact_log_consistency(rng):
    for entry in bounds.bounds_table(n_list=(250, 2000)):
        v = entry.value
        assert v.exact is not None
        # The reference comes from the decimal string, not from the int
        # that log10 itself is read from: its length, plus the log of its
        # leading 17 digits (the rest shift the log by under 1e-16).
        digits = str(v.exact)
        assert len(digits) == int(v.log10) + 1, entry
        lead = digits[:17]
        reference = math.log10(int(lead)) + len(digits) - len(lead)
        assert abs(v.log10 - reference) <= 1e-9, entry


def _check_certified_powers(rng):
    # Powers of at least 4096 bits are certified without being built.
    # Building each one afterwards must give the same log10, digit count
    # and two leading digits as the exact path reads from the integer.
    certified = huge = 0
    for k in (2, 3, 5, 10, 50):
        eps = bounds.as_exact_ratio(f"1/{2 * k}")
        for n in bounds.DEFAULT_TABLE_N + (50000,):
            for value in (bounds.bound_lexsort_lower(n, 3, eps),
                          bounds.bound_hypercube_exact(n, 3, eps)):
                key = (value.formula, k, n)
                certified += value._power is not None
                x = value.exact
                huge += x.bit_length() >= bounds._FAST_BITS
                assert value.log10 == bounds._logvalue(x, value.formula).log10, key
                assert _magnitudes(value) == _exact_magnitudes(x), key
    assert certified == huge, (certified, huge)


def _check_built_integers(rng):
    # Built integers of at least 4096 bits read their digit count and two
    # leading digits from a bracket of their top bits; both must equal
    # what the exact path reads from the integer. These binomials have
    # 18k-73k bits and build in milliseconds.
    for n in (300, 1000):
        for value in (bounds.bound_quotient_upper(n, 12, "1/100"),
                      bounds.bound_hilbert_upper(n, 12, "1/100", m=bounds.DEFAULT_TABLE_M)):
            key = (value.formula, n)
            x = value.exact
            assert x.bit_length() >= bounds._FAST_BITS, key
            assert bounds.digit_count(x) == value.digits, key
            assert _magnitudes(value) == _exact_magnitudes(x), key


def _magnitudes(value):
    return value.digits, bounds.mantissa_exponent(value)


def _exact_magnitudes(x):
    """`_magnitudes` of x as the exact path reads them from the integer."""
    lead, exponent = bounds._lead_exact(x)
    return exponent + 1, (1.0, exponent + 1) if lead == 100 else (lead / 10, exponent)


def _check_hilbert_order_cap(rng):
    # bound_hilbert_upper computes K at a capped curve order; at and past
    # the cap, K from the full order must equal it and the limit K_inf.
    d, a, b = 3, 1, 6
    cap = (d + 1) * b.bit_length() + d.bit_length() + 2
    limit = 2 * b**d // a**d + 1
    for m in (*range(cap, cap + 9), 10**6):
        num, den = (a << m + 1) - b, b << m + 1
        direct = -(-2 * den**d // num**d)
        assert bounds.bound_hilbert_upper(1, d, f"{a}/{b}", m=m).exact == direct == limit, m


def _check_quotient_below_hypercube(rng):
    for n in (2, 10, 100):
        for k in (1, 2, 3, 5):
            eps = bounds.as_exact_ratio(f"1/{2 * k}")
            q = bounds.bound_quotient_upper(n, 3, eps)
            h = bounds.bound_hypercube_exact(n, 3, eps)
            assert q.log10 <= h.log10 + 1e-9, (n, k)


SUITES: dict[str, list[tuple[str, object]]] = {
    "hilbert": [
        ("bijection d<=3 m<=4", _check_hilbert_bijection),
        ("array encoder matches scalar encode", _check_hilbert_array_encoder),
        ("adjacency L1=1", _check_hilbert_adjacency),
        ("nesting of refined curves", _check_hilbert_nesting),
        ("holder continuity", _check_hilbert_holder),
    ],
    "canon": [
        ("idempotence", _check_canon_idempotence),
        ("orbit membership", _check_canon_orbit_membership),
        ("orbit invariance", _check_canon_orbit_invariance),
        ("pca alignment diagonalizes and is idempotent", _check_pca_align),
        ("stacked hilbert canonization matches per-item", _check_canon_hilbert_stack),
    ],
    "metrics": [
        ("symmetry and triangle inequality", _check_metric_axioms),
        ("solvers match brute force", _check_solvers_against_brute),
        ("marginal lower bound <= quotient <= canonized", _check_quotient_sandwich),
        ("batched tier-1 bound equals one-cloud tier 1", _check_batched_tier1),
        ("reduced-cost bound <= quotient", _check_reduced_cost_bound),
        ("sign rowwise equals exhaustive", _check_sign_rowwise_vs_exhaustive),
    ],
    "isometry": [
        ("sort is an isometry (p=1,2)", _check_isometry_sort),
        ("centralize is a Frobenius isometry", _check_isometry_centralize),
        ("abs is an isometry", _check_isometry_abs),
        ("lexsort non-isometry witness", _check_lexsort_witness),
    ],
    "poor-c1": [
        ("cover numbers 2/2/1", _check_poor_c1),
    ],
    "coverage": [
        ("quotient dominates canonized coverage", _check_coverage_domination),
        ("pruned scan equals full scan", _check_pruned_scan),
        ("nearest candidate past the first cost block", _check_nearest_in_later_block),
        ("greedy net validity", _check_greedy_validity),
        ("exact cover <= greedy size", _check_exact_vs_greedy),
    ],
    "bounds": [
        ("reference table cells", _check_bounds_table),
        ("mantissa/exponent brackets the exact integer", _check_mantissa_brackets),
        ("multiset count brute force", _check_multiset_brute),
        ("exact/log consistency", _check_exact_log_consistency),
        ("quotient below hypercube", _check_quotient_below_hypercube),
        ("certified power magnitudes match the exact integer", _check_certified_powers),
        ("built-integer magnitudes match the exact integer", _check_built_integers),
        ("hilbert K past the capped order equals the direct formula", _check_hilbert_order_cap),
    ],
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one suite (or 'all'); unknown names raise ValueError.

    A check fails by raising: an AssertionError's message is its detail,
    and any other exception is reported as "<ExceptionType>: <message>".
    """
    if name == "all":
        checks = [(f"{suite}: {label}", fn)
                  for suite in SUITES for label, fn in SUITES[suite]]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choices: {', '.join(SUITE_NAMES)}")
    results = []
    for label, fn in checks:
        rng = np.random.default_rng(seed)
        try:
            fn(rng)
            results.append(CheckResult(name=label, passed=True))
        except AssertionError as exc:
            results.append(CheckResult(name=label, passed=False, detail=str(exc)))
        except Exception as exc:  # a check that crashes has failed; run the rest
            results.append(CheckResult(name=label, passed=False,
                                       detail=f"{type(exc).__name__}: {exc}"))
    return results
