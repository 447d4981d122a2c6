"""Base metrics, quotient metrics, solvers vs brute force, isometries."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from canoncover.canon import (
    canon_abs,
    canon_centralize,
    canon_hilbert,
    canon_lexsort,
    canon_sort,
    sign_orbit,
)
from canoncover.metrics import (
    METRIC_CHOICES,
    InternalConsistencyError,
    Metric,
    _finalize,
    brute_perm_quotient,
    dist_frobenius,
    dist_inf,
    dist_mean_euclidean,
    parse_metric,
    perm_quotient_bottleneck,
    perm_quotient_pnorm,
    perm_quotient_sum,
    sign_quotient,
    translation_quotient,
    wasserstein_1d,
)

TOL = 1e-9


class TestBaseMetricExamples:
    def test_inf(self):
        assert dist_inf(np.array([[0.0, 1.0]]), np.array([[0.5, 0.2]])) == 0.8
        X = np.random.default_rng(1).random((3, 5))
        assert dist_inf(X, X) == 0.0

    def test_mean_euclidean(self):
        assert dist_mean_euclidean(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])) == 2.0

    def test_frobenius(self):
        assert dist_frobenius(np.array([[3.0], [4.0]]), np.array([[0.0], [0.0]])) == 5.0

    def test_frobenius_unchanged_by_common_column(self, rng):
        X, Y = rng.random((2, 4)), rng.random((2, 4))
        c = rng.random((2, 1))
        assert (
            abs(dist_frobenius(np.hstack([X, c]), np.hstack([Y, c]))
                - dist_frobenius(X, Y))
            <= TOL
        )

    def test_values_do_not_depend_on_layout(self):
        # numpy sums in memory order; the pinned values are those of the
        # plain expressions on Fortran-ordered clouds, which is how
        # read_cloud returns them.
        rng = np.random.default_rng(607)
        for i in range(200):
            d, n = int(rng.integers(1, 13)), int(rng.integers(1, 300))
            X, Y = rng.normal(size=(d, n)), rng.normal(size=(d, n))
            if i % 3 == 0:
                X, Y = X.round(1), Y.round(1)
            FX, FY = np.asfortranarray(X), np.asfortranarray(Y)
            squares = (FX - FY) ** 2
            frobenius = np.sqrt(np.sum(squares))
            mean_euclidean = np.mean(np.sqrt(np.sum(squares, axis=0)))
            for A, B in ((X, Y), (FX, FY), (X, FY), (FX, Y)):
                assert dist_frobenius(A, B) == frobenius
                assert dist_mean_euclidean(A, B) == mean_euclidean

    def test_shape_mismatch(self):
        for f in (dist_inf, dist_frobenius, dist_mean_euclidean,
                  perm_quotient_sum, perm_quotient_bottleneck,
                  translation_quotient, sign_quotient):
            with pytest.raises(ValueError):
                f(np.zeros((2, 3)), np.zeros((2, 4)))


class TestWasserstein:
    def test_example_p1(self):
        assert wasserstein_1d([3, 1, 2], [0, 2, 5], p=1) == 3.0

    def test_permutation_gives_zero(self, rng):
        x = rng.random(10)
        for p in (1, 2, np.inf):
            assert wasserstein_1d(x, rng.permutation(x), p=p) == 0.0

    def test_matches_brute_all_p(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            x, y = rng.random(n), rng.random(n)
            for p, base in ((1, "wasserstein-p1"), (2, "wasserstein-p2"),
                            (np.inf, "wasserstein-pinf")):
                brute = brute_perm_quotient(x[None, :], y[None, :], base)
                assert abs(wasserstein_1d(x, y, p=p) - brute) <= TOL

    def test_bad_p(self):
        with pytest.raises(ValueError):
            wasserstein_1d([1.0], [2.0], p=3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_1d([1.0, 2.0], [1.0])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Kuhn's augmenting-path test for a perfect matching in a bipartite
    graph given as a boolean n x n adjacency matrix."""
    n = allowed.shape[0]
    match_of_col = np.full(n, -1)

    def augment(row: int, seen: np.ndarray) -> bool:
        for col in np.flatnonzero(allowed[row]):
            if seen[col]:
                continue
            seen[col] = True
            if match_of_col[col] < 0 or augment(match_of_col[col], seen):
                match_of_col[col] = row
                return True
        return False

    for row in range(n):
        if not augment(row, np.zeros(n, dtype=bool)):
            return False
    return True


def kuhn_bottleneck(cost: np.ndarray) -> float:
    """Reference bottleneck assignment: binary search over the distinct
    costs with Kuhn's matching test. Recursive, so keep n well below the
    interpreter's recursion limit."""
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


class TestPermQuotients:
    def test_permutation_gives_zero(self, rng):
        for _ in range(50):
            X = rng.random((3, 8))
            Y = X[:, rng.permutation(8)]
            assert perm_quotient_sum(X, Y) <= TOL
            assert perm_quotient_bottleneck(X, Y) <= TOL

    def test_d1_swap(self):
        X, Y = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        assert perm_quotient_sum(X, Y) == 0.0
        assert perm_quotient_bottleneck(X, Y) == 0.0

    def test_sum_matches_brute(self, rng):
        for _ in range(200):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            X, Y = rng.random((d, n)), rng.random((d, n))
            assert (
                abs(perm_quotient_sum(X, Y)
                    - brute_perm_quotient(X, Y, "mean-euclidean"))
                <= TOL
            )

    def test_bottleneck_matches_brute(self, rng):
        for _ in range(200):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            X, Y = rng.random((d, n)), rng.random((d, n))
            assert (
                abs(perm_quotient_bottleneck(X, Y)
                    - brute_perm_quotient(X, Y, "inf"))
                <= TOL
            )

    def test_bottleneck_matches_kuhn_oracle(self):
        # The result is always one of the cost entries, so compare exactly;
        # every third instance is rounded to 0.1 to force tied costs.
        rng = np.random.default_rng(2024)
        for i in range(150):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 65))
            X, Y = rng.random((d, n)), rng.random((d, n))
            if i % 3 == 0:
                X, Y = X.round(1), Y.round(1)
            linf = np.max(np.abs(X[:, :, None] - Y[:, None, :]), axis=0)
            assert perm_quotient_bottleneck(X, Y) == kuhn_bottleneck(linf)

    def test_bottleneck_beyond_recursion_limit(self):
        # n above the default 1000-frame recursion limit; sorting is the
        # exact one-dimensional isometry, so wasserstein_1d is the oracle.
        rng = np.random.default_rng(7)
        x, y = rng.random((1, 1050)), rng.random((1, 1050))
        expected = wasserstein_1d(x, y, p=np.inf)
        assert perm_quotient_bottleneck(x, y) == expected
        assert perm_quotient_pnorm(x[0], y[0], p=np.inf) == expected

    def test_bottleneck_below_sum_assignment_max(self, rng):
        # Any feasible assignment upper-bounds the bottleneck; in
        # particular the one minimizing the summed l2 cost.
        for _ in range(200):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 10))
            X, Y = rng.random((d, n)), rng.random((d, n))
            l2 = np.sqrt(np.sum((X[:, :, None] - Y[:, None, :]) ** 2, axis=0))
            rows, cols = linear_sum_assignment(l2)
            linf = np.max(np.abs(X[:, :, None] - Y[:, None, :]), axis=0)
            assert perm_quotient_bottleneck(X, Y) <= np.max(linf[rows, cols]) + TOL

    def test_pnorm_matches_brute(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 7))
            x, y = rng.random(n), rng.random(n)
            for p, base in ((1, "wasserstein-p1"), (2, "wasserstein-p2"),
                            (np.inf, "wasserstein-pinf")):
                brute = brute_perm_quotient(x[None, :], y[None, :], base)
                assert abs(perm_quotient_pnorm(x, y, p=p) - brute) <= TOL

    def test_cdist_cost_equals_broadcast(self):
        # The solvers' cdist cost against the (d, n, n) broadcast it
        # replaced, in both layouts; every third instance is rounded to 0.1
        # for tied costs. For d < 8 numpy sums the broadcast's d terms one
        # after another, as cdist does, so the match is exact.
        rng = np.random.default_rng(515)
        for i in range(300):
            d, n = int(rng.integers(1, 7)), int(rng.integers(1, 65))
            X, Y = rng.random((d, n)), rng.random((d, n))
            if i % 3 == 0:
                X, Y = X.round(1), Y.round(1)
            diff = X[:, :, None] - Y[:, None, :]
            l2 = np.sqrt(np.sum(diff**2, axis=0))
            linf = np.max(np.abs(diff), axis=0)
            for A, B in ((X, Y), (np.asfortranarray(X), np.asfortranarray(Y))):
                assert np.array_equal(cdist(A.T, B.T, "euclidean"), l2)
                assert np.array_equal(cdist(A.T, B.T, "chebyshev"), linf)
            rows, cols = linear_sum_assignment(l2)
            assert perm_quotient_sum(X, Y) == l2[rows, cols].sum() / n

    def test_values_do_not_depend_on_layout(self):
        # d reaches 8 and above, where numpy's broadcast sum over
        # Fortran-ordered clouds adds the d terms in another order.
        rng = np.random.default_rng(606)
        for i in range(150):
            d, n = int(rng.integers(1, 13)), int(rng.integers(1, 33))
            X, Y = rng.random((d, n)), rng.random((d, n))
            if i % 3 == 0:
                X, Y = X.round(1), Y.round(1)
            FX, FY = np.asfortranarray(X), np.asfortranarray(Y)
            for quotient in (perm_quotient_sum, perm_quotient_bottleneck):
                value = quotient(X, Y)
                assert quotient(FX, FY) == value
                assert quotient(X, FY) == value
                assert quotient(FX, Y) == value

    def test_pnorm_bad_p(self):
        with pytest.raises(ValueError):
            perm_quotient_pnorm([1.0], [2.0], p=0.5)


class TestSignQuotient:
    def test_signed_copy_gives_zero(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 5))
            X = rng.random((d, 6))
            signs = rng.choice([-1.0, 1.0], size=(d, 1))
            for base in ("inf", "frobenius", "mean-euclidean"):
                assert sign_quotient(X, signs * X, base=base) <= TOL

    def test_d1_example(self):
        assert sign_quotient(np.array([[1.0, 2.0]]), np.array([[-1.0, -2.0]])) == 0.0

    def test_rowwise_matches_exhaustive(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            X, Y = rng.random((d, 5)), rng.random((d, 5))
            for base, dist in (("inf", dist_inf), ("frobenius", dist_frobenius),
                               ("mean-euclidean", dist_mean_euclidean)):
                exhaustive = min(dist(Z, Y) for Z in sign_orbit(X))
                assert abs(sign_quotient(X, Y, base=base) - exhaustive) <= TOL

    def test_rejects_large_d_and_bad_base(self):
        with pytest.raises(ValueError):
            sign_quotient(np.zeros((21, 2)), np.zeros((21, 2)))
        with pytest.raises(ValueError):
            sign_quotient(np.zeros((2, 2)), np.zeros((2, 2)), base="l1")


class TestTranslationQuotient:
    def test_translated_copy_gives_zero(self, rng):
        for _ in range(50):
            X = rng.random((3, 6))
            t = rng.normal(size=(3, 1))
            assert translation_quotient(X, X + t) <= TOL

    def test_matches_closed_form_minimum(self, rng):
        for _ in range(100):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 10))
            X, Y = rng.random((d, n)), rng.random((d, n))
            t = X.mean(axis=1) - Y.mean(axis=1)
            assert (
                abs(translation_quotient(X, Y)
                    - dist_frobenius(X, Y + t[:, None]))
                <= TOL
            )

    def test_matches_grid_search_d1(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            X, Y = rng.random((1, n)), rng.random((1, n))
            center = float(X.mean() - Y.mean())
            grid = center + np.linspace(-1e-3, 1e-3, 2001)
            best = min(dist_frobenius(X, Y + t) for t in grid)
            assert abs(translation_quotient(X, Y) - best) <= 1e-6

    def test_shift_invariance(self, rng):
        for _ in range(50):
            X, Y = rng.random((2, 5)), rng.random((2, 5))
            t = rng.normal(size=(2, 1))
            assert (
                abs(translation_quotient(X + t, Y + t) - translation_quotient(X, Y))
                <= TOL
            )


class TestBrute:
    def test_n1_is_base_distance(self, rng):
        X, Y = rng.random((3, 1)), rng.random((3, 1))
        assert brute_perm_quotient(X, Y, "inf") == dist_inf(X, Y)

    def test_permutation_gives_zero(self, rng):
        X = rng.random((2, 5))
        assert brute_perm_quotient(X, X[:, rng.permutation(5)], "frobenius") <= TOL

    def test_callable_base(self, rng):
        X, Y = rng.random((2, 4)), rng.random((2, 4))
        got = brute_perm_quotient(X, Y, dist_mean_euclidean)
        assert abs(got - brute_perm_quotient(X, Y, "mean-euclidean")) <= TOL

    def test_rejects_large_n_and_unknown_base(self):
        with pytest.raises(ValueError):
            brute_perm_quotient(np.zeros((1, 9)), np.zeros((1, 9)), "inf")
        with pytest.raises(ValueError):
            brute_perm_quotient(np.zeros((1, 2)), np.zeros((1, 2)), "manhattan")
        with pytest.raises(ValueError):
            brute_perm_quotient(np.zeros((2, 3)), np.zeros((2, 3)), "wasserstein-p1")


class TestMetricAxioms:
    @pytest.mark.parametrize("name", METRIC_CHOICES)
    def test_symmetry_and_triangle(self, name, rng):
        metric = parse_metric(name)
        d = 1 if name.startswith("wasserstein") else None
        for _ in range(1000):
            dd = d or int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            X, Y, Z = (rng.random((dd, n)) for _ in range(3))
            assert abs(metric(X, Y) - metric(Y, X)) <= TOL
            assert metric(X, Z) <= metric(X, Y) + metric(Y, Z) + TOL
            assert metric(X, X) <= TOL

    def test_group_invariance_of_base_metrics(self, rng):
        for _ in range(100):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            X, Y = rng.random((d, n)), rng.random((d, n))
            perm = rng.permutation(n)
            assert abs(dist_inf(X[:, perm], Y[:, perm]) - dist_inf(X, Y)) <= TOL
            assert (
                abs(dist_mean_euclidean(X[:, perm], Y[:, perm])
                    - dist_mean_euclidean(X, Y))
                <= TOL
            )
            signs = rng.choice([-1.0, 1.0], size=(d, 1))
            assert abs(dist_inf(signs * X, signs * Y) - dist_inf(X, Y)) <= TOL
            t = rng.normal(size=(d, 1))
            assert abs(dist_frobenius(X + t, Y + t) - dist_frobenius(X, Y)) <= TOL


class TestQuotientLowerBound:
    """rho_G([X],[Y]) <= rho(c(X), c(Y)): the canonized distance never
    undercuts the quotient, for matching canonization/metric pairs."""

    def test_lexsort_vs_bottleneck(self, rng):
        for _ in range(300):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            X, Y = rng.random((d, n)), rng.random((d, n))
            canonized = dist_inf(canon_lexsort(X).cloud, canon_lexsort(Y).cloud)
            assert perm_quotient_bottleneck(X, Y) <= canonized + TOL

    def test_hilbert_vs_bottleneck(self, rng):
        for _ in range(300):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            X, Y = rng.random((d, n)), rng.random((d, n))
            canonized = dist_inf(
                canon_hilbert(X, m=6).cloud, canon_hilbert(Y, m=6).cloud
            )
            assert perm_quotient_bottleneck(X, Y) <= canonized + TOL

    def test_sort_vs_pnorm_quotient(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x, y = rng.random(n), rng.random(n)
            for p in (1, 2):
                canonized = float(
                    np.sum(np.abs(canon_sort(x) - canon_sort(y)) ** p) ** (1 / p)
                )
                assert perm_quotient_pnorm(x, y, p=p) <= canonized + TOL


class TestMarginalCentroidLowerBound:
    """lower_bound <= quotient <= canonized: sorted marginals and
    centroids bound the permutation quotients from below."""

    PAIRS = (("perm-sum", "mean-euclidean", dist_mean_euclidean),
             ("perm-bottleneck", "inf", dist_inf))

    def test_sandwich(self, rng):
        for _ in range(300):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
            X, Y = rng.random((d, n)), rng.random((d, n))
            for name, base, dist in self.PAIRS:
                lower = parse_metric(name).lower_bound(X, Y[None])
                assert lower.shape == (1,)
                quotient = brute_perm_quotient(X, Y, base)
                assert lower[0] <= quotient + TOL, name
                for canonized in (
                    dist(canon_hilbert(X, m=4).cloud, canon_hilbert(Y, m=4).cloud),
                    dist(canon_lexsort(X).cloud, canon_lexsort(Y).cloud),
                ):
                    assert quotient <= canonized + TOL, name

    def test_exact_in_one_dimension(self, rng):
        # For d = 1 the sorted marginal is the optimal matching itself.
        for _ in range(100):
            n = int(rng.integers(1, 12))
            X, Y = rng.random((1, n)), rng.random((1, n))
            assert abs(parse_metric("perm-sum").lower_bound(X, Y[None])[0]
                       - perm_quotient_sum(X, Y)) <= TOL
            assert (parse_metric("perm-bottleneck").lower_bound(X, Y[None])[0]
                    == perm_quotient_bottleneck(X, Y))

    def test_centroid_term_beats_marginals(self):
        # Both axes shift by 1: each marginal gap is 1, the centroid gap sqrt(2).
        X = np.zeros((2, 3))
        assert parse_metric("perm-sum").lower_bound(X, (X + 1.0)[None])[0] == np.sqrt(2.0)

    def test_stack_matches_one_at_a_time(self, rng):
        X, B = rng.random((3, 7)), rng.random((9, 3, 7))
        for name, _, _ in self.PAIRS:
            bound = parse_metric(name).lower_bound
            stacked = bound(X, B)
            assert stacked.shape == (9,)
            for c in range(9):
                assert stacked[c] == bound(X, B[c:c + 1])[0]

    def test_only_permutation_quotients_carry_a_bound(self):
        for name in METRIC_CHOICES:
            has_bound = parse_metric(name).lower_bound is not None
            assert has_bound == (name in ("perm-sum", "perm-bottleneck")), name
        assert parse_metric(dist_inf).lower_bound is None


class TestIsometryCertificates:
    def test_sort_is_isometry(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 10))
            x, y = rng.random(n), rng.random(n)
            for p in (1, 2, np.inf):
                assert (
                    abs(wasserstein_1d(x, y, p=p) - perm_quotient_pnorm(x, y, p=p))
                    <= TOL
                )

    def test_centralize_is_isometry(self, rng):
        for _ in range(300):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 10))
            X, Y = rng.random((d, n)), rng.random((d, n))
            canonized = dist_frobenius(
                canon_centralize(X).cloud, canon_centralize(Y).cloud
            )
            assert abs(translation_quotient(X, Y) - canonized) <= TOL

    def test_abs_is_isometry(self, rng):
        for s, t in rng.normal(size=(300, 2)):
            quotient = min(abs(s - t), abs(s + t))
            assert abs(abs(canon_abs(s) - canon_abs(t)) - quotient) <= TOL


def test_lexsort_non_isometry_witness():
    # Equal first-row entries make lexsort discontinuous: perturbing them
    # swaps the column order, so the canonized distance blows up while the
    # orbits stay close.
    X = np.array([[0.5, 0.5], [0.0, 1.0]])
    Y = np.array([[0.49, 0.51], [1.0, 0.0]])
    quotient = perm_quotient_bottleneck(X, Y)
    canonized = dist_inf(canon_lexsort(X).cloud, canon_lexsort(Y).cloud)
    assert abs(quotient - 0.01) <= TOL
    assert canonized == 1.0
    assert canonized - quotient >= 0.1


class TestGuardsAndParsing:
    def test_finalize_clamps_tiny_negative(self):
        assert _finalize(-1e-13) == 0.0

    def test_finalize_raises_on_meaningful_negative(self):
        with pytest.raises(InternalConsistencyError):
            _finalize(-1e-9)

    def test_brute_with_negative_callable_raises(self):
        with pytest.raises(InternalConsistencyError):
            brute_perm_quotient(
                np.zeros((1, 2)), np.zeros((1, 2)), lambda A, B: -1.0
            )

    def test_parse_metric(self):
        m = parse_metric("perm-sum")
        assert isinstance(m, Metric) and m.name == "perm-sum"
        assert parse_metric(m) is m
        wrapped = parse_metric(dist_inf)
        assert wrapped.name == "dist_inf"
        with pytest.raises(ValueError):
            parse_metric("euclid")

    def test_choices_cover_registry(self):
        assert "perm-bottleneck" in METRIC_CHOICES
        assert METRIC_CHOICES == tuple(sorted(METRIC_CHOICES))
        for name in METRIC_CHOICES:
            assert parse_metric(name).name == name

    def test_wasserstein_metric_rejects_wide_clouds(self):
        with pytest.raises(ValueError):
            parse_metric("wasserstein:p2")(np.zeros((2, 3)), np.zeros((2, 3)))
