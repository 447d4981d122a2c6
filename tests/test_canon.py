"""Canonization maps: examples, axioms, and recorded group elements."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoncover.canon import (
    CanonResult,
    DegenerateSpectrumError,
    canon_abs,
    canon_c1,
    canon_centralize,
    canon_cinf,
    canon_hilbert,
    canon_hilbert_stack,
    canon_lexsort,
    canon_skewness_sign,
    canon_sort,
    iter_sign_orbit,
    jacobi_eigh,
    pca_align,
)
from canoncover.hilbert import HilbertParams, cloud_indices, snap_to_centroids

from conftest import random_cloud


class TestScalarCanons:
    def test_abs_examples(self):
        assert canon_abs(-0.7) == 0.7
        assert canon_abs(0.0) == 0.0

    def test_abs_idempotent_and_invariant(self, rng):
        for t in rng.normal(size=1000):
            t = float(t)
            assert canon_abs(canon_abs(t)) == canon_abs(t)
            assert canon_abs(-t) == canon_abs(t)

    def test_c1_examples(self):
        assert canon_c1(0.3) == -0.3
        assert canon_c1(-0.7) == 0.7
        assert canon_c1(0.5) == -0.5  # boundary goes to the minus branch

    def test_c1_idempotent_and_invariant(self, rng):
        for t in rng.normal(size=1000):
            t = float(t)
            assert canon_c1(canon_c1(t)) == canon_c1(t)
            assert canon_c1(-t) == canon_c1(t)

    def test_cinf_examples(self):
        assert canon_cinf(Fraction(3, 4)) == Fraction(3, 4)
        assert canon_cinf(Fraction(-3, 4)) == Fraction(3, 4)
        r = Fraction(7, 5)
        assert canon_cinf(r, irrational=True) == -r
        assert canon_cinf(-r, irrational=True) == -r
        assert canon_cinf(0) == 0

    def test_cinf_idempotent(self):
        for t in (Fraction(2, 3), Fraction(-9, 7), Fraction(0)):
            for flag in (False, True):
                once = canon_cinf(t, irrational=flag)
                assert canon_cinf(once, irrational=flag) == once


class TestSort:
    def test_examples(self):
        np.testing.assert_array_equal(canon_sort([3, 1, 2]), [1, 2, 3])
        np.testing.assert_array_equal(canon_sort([5, 5, 1]), [1, 5, 5])

    def test_l1_matches_brute_min_over_permutations(self):
        x = np.array([3.0, 1.0, 2.0])
        y = np.array([0.0, 2.0, 5.0])
        sorted_dist = float(np.sum(np.abs(canon_sort(x) - canon_sort(y))))
        brute = min(
            float(np.sum(np.abs(x - y[list(p)])))
            for p in itertools.permutations(range(3))
        )
        assert sorted_dist == brute == 3

    def test_invariance_under_permutation(self, rng):
        for _ in range(100):
            x = rng.random(int(rng.integers(1, 20)))
            ref = canon_sort(x)
            np.testing.assert_array_equal(canon_sort(rng.permutation(x)), ref)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_output_is_sorted_permutation(self, xs):
        out = canon_sort(xs)
        assert np.all(np.diff(out) >= 0)
        assert sorted(xs) == list(out)


class TestCentralize:
    def test_example(self):
        res = canon_centralize(np.array([[1.0, 3.0]]))
        np.testing.assert_array_equal(res.cloud, [[-1.0, 1.0]])
        np.testing.assert_array_equal(res.shift, [2.0])

    def test_already_centered_unchanged(self):
        X = np.array([[-1.0, 1.0], [2.0, -2.0]])
        res = canon_centralize(X)
        np.testing.assert_array_equal(res.cloud, X)
        np.testing.assert_array_equal(res.shift, [0.0, 0.0])

    def test_columns_sum_to_zero(self, rng):
        for _ in range(300):
            X = random_cloud(rng) * 10.0 ** rng.integers(-3, 4)
            res = canon_centralize(X)
            scale = max(1.0, float(np.max(np.abs(X))))
            assert np.max(np.abs(res.cloud.mean(axis=1))) <= 1e-12 * scale

    def test_shift_is_column_mean(self, rng):
        for _ in range(300):
            X = random_cloud(rng)
            res = canon_centralize(X)
            scale = max(1.0, float(np.max(np.abs(X))))
            assert np.max(np.abs(res.shift - X.mean(axis=1))) <= 1e-12 * scale

    def test_idempotent_exactly(self, rng):
        for _ in range(1000):
            X = random_cloud(rng) * 10.0 ** rng.integers(-6, 7)
            once = canon_centralize(X)
            again = canon_centralize(once.cloud)
            np.testing.assert_array_equal(again.cloud, once.cloud)
            np.testing.assert_array_equal(again.shift, np.zeros(X.shape[0]))

    def test_replay_bit_exact(self, rng):
        for _ in range(200):
            X = random_cloud(rng)
            res = canon_centralize(X)
            np.testing.assert_array_equal(X - res.shift[:, None], res.cloud)

    def test_frobenius_matches_closed_form_translation_min(self, rng):
        for _ in range(100):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 10))
            X, Y = rng.random((d, n)), rng.random((d, n))
            lhs = np.linalg.norm(
                canon_centralize(X).cloud - canon_centralize(Y).cloud
            )
            t = X.mean(axis=1) - Y.mean(axis=1)
            rhs = np.linalg.norm(X - (Y + t[:, None]))
            assert abs(lhs - rhs) <= 1e-9

    def test_constant_cloud_goes_to_zero(self):
        X = np.full((2, 3), 1.0 / 3.0)
        res = canon_centralize(X)
        np.testing.assert_array_equal(res.cloud, np.zeros((2, 3)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            canon_centralize(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            canon_centralize(np.array([[np.nan, 1.0]]))


class TestLexsort:
    def test_example(self):
        X = np.array([[0.5, 0.2, 0.2], [0.1, 0.9, 0.3]])
        res = canon_lexsort(X)
        np.testing.assert_array_equal(
            res.cloud, np.array([[0.2, 0.2, 0.5], [0.3, 0.9, 0.1]])
        )

    def test_strictly_increasing_first_row_is_fixed_point(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            X = rng.random((3, n))
            X[0] = np.sort(rng.choice(np.arange(100), size=n, replace=False)) / 100.0
            np.testing.assert_array_equal(canon_lexsort(X).cloud, X)

    def test_orbit_invariance(self, rng):
        for _ in range(20):
            X = random_cloud(rng)
            ref = canon_lexsort(X).cloud
            for _ in range(100):
                perm = rng.permutation(X.shape[1])
                np.testing.assert_array_equal(canon_lexsort(X[:, perm]).cloud, ref)

    def test_identical_columns_stable(self):
        X = np.array([[0.5, 0.5, 0.1], [0.2, 0.2, 0.9]])
        res = canon_lexsort(X)
        np.testing.assert_array_equal(res.perm, [2, 0, 1])

    def test_perm_replay_and_membership(self, rng):
        for _ in range(200):
            X = random_cloud(rng)
            res = canon_lexsort(X)
            np.testing.assert_array_equal(X[:, res.perm], res.cloud)
            assert sorted(map(tuple, res.cloud.T)) == sorted(map(tuple, X.T))


class TestHilbertCanon:
    def test_d1_equals_sort(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            X = rng.random((1, n))
            res = canon_hilbert(X, m=6)
            np.testing.assert_array_equal(res.cloud[0], canon_sort(X[0]))

    def test_fixed_point_when_in_order(self):
        # Columns at the centroids of the first three curve cells, d=2 m=1.
        X = np.array([[0.25, 0.25, 0.75], [0.25, 0.75, 0.75]])
        np.testing.assert_array_equal(canon_hilbert(X, m=1).cloud, X)

    def test_rounding_displacement_bound(self, rng):
        params = HilbertParams(d=2, m=3)
        for _ in range(100):
            X = rng.random((2, 12))
            assert np.max(np.abs(snap_to_centroids(params, X) - X)) <= 2.0**-4

    def test_canonized_distance_rounding_inequality(self, rng):
        # ||c_m(X) - c_m(Y)||_inf <= 2^-m + ||c_m(X') - c_m(Y')||_inf for the
        # snapped clouds X', Y' (each snap moves entries at most half a cell,
        # and the triangle inequality crosses the snap twice).
        m = 3
        params = HilbertParams(d=2, m=m)
        for _ in range(100):
            X, Y = rng.random((2, 10)), rng.random((2, 10))
            cx = canon_hilbert(X, m=m).cloud
            cy = canon_hilbert(Y, m=m).cloud
            cxs = canon_hilbert(snap_to_centroids(params, X), m=m).cloud
            cys = canon_hilbert(snap_to_centroids(params, Y), m=m).cloud
            lhs = np.max(np.abs(cx - cy))
            rhs = 2.0**-m + np.max(np.abs(cxs - cys))
            assert lhs <= rhs + 1e-12

    def test_orbit_invariance(self, rng):
        for _ in range(20):
            X = random_cloud(rng)
            ref = canon_hilbert(X, m=4).cloud
            for _ in range(100):
                perm = rng.permutation(X.shape[1])
                np.testing.assert_array_equal(
                    canon_hilbert(X[:, perm], m=4).cloud, ref
                )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            canon_hilbert(np.array([[0.5, 1.2]]), m=3)
        with pytest.raises(ValueError):
            canon_hilbert(np.array([[-0.1, 0.2]]), m=3)

    def test_perm_replay(self, rng):
        for _ in range(100):
            X = random_cloud(rng)
            res = canon_hilbert(X, m=5)
            np.testing.assert_array_equal(X[:, res.perm], res.cloud)


def hard_stack(rng, N, d, n, m):
    """N x d x n stack in [0, 1] with the ties the sort has to break: an
    all-0.0 and an all-1.0 column, a duplicated column, a column moved to
    the lower corner of another's grid cell, and a repeated item."""
    B = rng.random((N, d, n))
    B[:, :, 0] = 0.0
    if n > 1:
        B[:, :, 1] = 1.0
    if n > 3:
        B[:, :, 3] = B[:, :, n - 1]
    if n > 5:
        B[:, :, 4] = np.floor(B[:, :, 5] * 2.0**m) / 2.0**m
    if N > 1:
        B[-1] = B[0]
    return B


# d·m = 62 is the largest grid a uint64 curve index holds.
STACK_PARAMS = [(1, 1), (1, 8), (1, 53), (1, 62), (2, 3), (2, 31),
                (3, 1), (3, 8), (3, 20), (4, 2), (4, 15)]


class TestHilbertStack:
    @pytest.mark.parametrize("d,m", STACK_PARAMS)
    def test_matches_per_item(self, rng, d, m):
        for N, n in ((1, 1), (1, 9), (5, 2), (7, 16)):
            B = hard_stack(rng, N, d, n, m)
            clouds, perms = canon_hilbert_stack(B, m)
            assert clouds.shape == B.shape and perms.shape == (N, n)
            for k in range(N):
                one = canon_hilbert(B[k], m)
                assert np.array_equal(clouds[k], one.cloud)
                assert np.array_equal(perms[k], one.perm)
                # The single-cloud rule: curve index, then the rows
                # lexicographically, then original position.
                idx = cloud_indices(HilbertParams(d=d, m=m), B[k])
                assert np.array_equal(perms[k], np.lexsort(tuple(B[k][::-1]) + (idx,)))
                assert np.array_equal(clouds[k], B[k][:, perms[k]])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("m", [1, 2])
    def test_ties_match_inline_rule(self, rng, d, m):
        # At m = 1-2 most columns share a cell with another. Half the
        # stacks sit on the quarter grid, so entries hit 0 and 1 exactly
        # and whole columns repeat; the rest get duplicated columns.
        params = HilbertParams(d=d, m=m)
        for trial in range(12):
            N, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            B = rng.random((N, d, n))
            if trial % 2:
                B = np.round(B * 4.0) / 4.0
            else:
                dst, src = rng.integers(0, n, size=(2, n // 2))
                B[:, :, dst] = B[:, :, src]
            for stack in (B, np.asfortranarray(B)):
                clouds, perms = canon_hilbert_stack(stack, m)
                for k in range(N):
                    X = np.asfortranarray(stack[k])
                    perm = np.lexsort(tuple(X[::-1]) + (cloud_indices(params, X),))
                    one = canon_hilbert(X, m)
                    for got, cloud in ((perms[k], clouds[k]), (one.perm, one.cloud)):
                        assert np.array_equal(got, perm), (d, m, trial, k)
                        assert np.array_equal(cloud, X[:, perm]), (d, m, trial, k)

    def test_ties_in_one_large_cloud(self, rng):
        X = rng.random((3, 5000))
        dst, src = rng.integers(0, 5000, size=(2, 300))
        X[:, dst] = X[:, src]
        X[:, :20] = 0.0
        X[:, 20:40] = 1.0
        X[0, 40:60] = 1.0
        for m in (1, 10):
            perm = np.lexsort(tuple(X[::-1]) + (cloud_indices(HilbertParams(3, m), X),))
            clouds, perms = canon_hilbert_stack(X[None], m)
            one = canon_hilbert(X, m)
            assert np.array_equal(perms[0], perm) and np.array_equal(one.perm, perm)
            assert np.array_equal(clouds[0], X[:, perm]) and np.array_equal(one.cloud, X[:, perm])

    def test_output_is_c_ordered_for_either_layout(self, rng):
        B = rng.random((4, 3, 10))
        for stack in (B, np.asfortranarray(B)):
            clouds, _ = canon_hilbert_stack(stack, 5)
            assert clouds.flags["C_CONTIGUOUS"]
        X = np.asfortranarray(B[0])
        res = canon_hilbert(X, 5)
        assert res.cloud.flags["C_CONTIGUOUS"]
        assert np.array_equal(res.cloud, X[:, res.perm])

    def test_rejects_bad_stacks(self):
        B = np.full((2, 1, 3), 0.5)
        B[1, 0, 2] = 1.5
        with pytest.raises(ValueError, match="requires all entries in"):
            canon_hilbert_stack(B, 3)
        with pytest.raises(ValueError, match="N x d x n stack"):
            canon_hilbert_stack(np.full((1, 3), 0.5), 3)
        with pytest.raises(ValueError, match="N x d x n stack"):
            canon_hilbert_stack(np.zeros((0, 1, 3)), 3)
        with pytest.raises(ValueError, match="non-finite"):
            canon_hilbert_stack(np.full((2, 1, 3), np.nan), 3)
        with pytest.raises(ValueError, match="d\\*m = 64 exceeds 62"):
            canon_hilbert_stack(np.full((2, 2, 3), 0.5), 32)


class TestJacobi:
    def test_against_numpy_eigh(self, rng):
        for _ in range(500):
            d = int(rng.integers(1, 9))
            B = rng.normal(size=(d, d))
            A = (B + B.T) / 2
            vals, vecs = jacobi_eigh(A)
            np.testing.assert_allclose(
                np.sort(vals), np.linalg.eigvalsh(A), atol=1e-9
            )
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(vecs.T @ A @ vecs, np.diag(vals), atol=1e-9)

    def test_diagonal_input_returns_identity_vectors(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(vals, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(vecs, np.eye(3))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            jacobi_eigh(np.ones((2, 3)))


class TestPcaAlign:
    def test_axis_aligned_descending_is_fixed(self):
        # Uncorrelated rows, variances 2.5 > 0.25, already centered.
        X = np.array([[1.0, -1.0, 2.0, -2.0], [0.5, 0.5, -0.5, -0.5]])
        aligned, frame = pca_align(X)
        np.testing.assert_array_equal(frame, np.eye(2))
        np.testing.assert_array_equal(aligned, X)

    def test_output_covariance_diagonal_descending(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 3, 40))
            X = rng.normal(size=(d, n)) * (1.0 + np.arange(d))[:, None]
            try:
                aligned, frame = pca_align(X)
            except DegenerateSpectrumError:
                continue
            np.testing.assert_allclose(frame @ frame.T, np.eye(d), atol=1e-9)
            cov = (aligned @ aligned.T) / n
            off = cov[~np.eye(d, dtype=bool)]
            assert off.size == 0 or np.max(np.abs(off)) <= 1e-8
            diag = np.diag(cov)
            assert np.all(diag[:-1] >= diag[1:] - 1e-8)

    def test_rotation_invariance_up_to_signs(self, rng):
        sign_patterns = [
            np.array(p).reshape(3, 1)
            for p in itertools.product((1.0, -1.0), repeat=3)
        ]
        for _ in range(50):
            X = rng.normal(size=(3, 60)) * np.array([[3.0], [1.7], [0.6]])
            theta = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            try:
                a1, _ = pca_align(X)
                a2, _ = pca_align(R @ X)
            except DegenerateSpectrumError:
                continue
            best = min(float(np.max(np.abs(S * a1 - a2))) for S in sign_patterns)
            assert best <= 1e-8

    def test_idempotent_exactly(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 3, 30))
            X = rng.normal(size=(d, n)) * (1.0 + np.arange(d))[:, None]
            X *= 10.0 ** rng.integers(-3, 4)
            try:
                aligned, _ = pca_align(X)
            except DegenerateSpectrumError:
                continue
            again, frame2 = pca_align(aligned)
            np.testing.assert_array_equal(again, aligned)
            np.testing.assert_array_equal(frame2, np.eye(d))

    def test_equal_variances_degenerate(self):
        X = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        with pytest.raises(DegenerateSpectrumError):
            pca_align(X)

    def test_zero_covariance_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            pca_align(np.ones((2, 4)))

    def test_rejects_large_d(self):
        with pytest.raises(ValueError):
            pca_align(np.zeros((9, 20)))

    def test_with_shift_replays(self, rng):
        for _ in range(100):
            X = rng.normal(size=(3, 25)) * np.array([[3.0], [1.7], [0.6]])
            try:
                aligned, frame, shift = pca_align(X, with_shift=True)
            except DegenerateSpectrumError:
                continue
            np.testing.assert_array_equal(frame @ X - shift[:, None], aligned)


class TestSkewnessSign:
    def test_row_examples(self):
        res = canon_skewness_sign(np.array([[-1.0, -1.0, 2.0]]))
        np.testing.assert_array_equal(res.cloud, [[-1.0, -1.0, 2.0]])
        np.testing.assert_array_equal(res.signs, [1])
        res = canon_skewness_sign(np.array([[1.0, 1.0, -2.0]]))
        np.testing.assert_array_equal(res.cloud, [[-1.0, -1.0, 2.0]])
        np.testing.assert_array_equal(res.signs, [-1])

    def test_zero_moment_keeps_plus(self):
        res = canon_skewness_sign(np.array([[-1.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(res.cloud, [[-1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(res.signs, [1])

    def test_output_moments_nonnegative(self, rng):
        for _ in range(300):
            X = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 20))))
            res = canon_skewness_sign(X)
            assert np.all(np.sum(res.cloud**3, axis=1) >= 0.0)
            np.testing.assert_array_equal(res.signs[:, None] * X, res.cloud)

    def test_sign_invariance_when_moment_clear(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(d, 12))
            if np.min(np.abs(np.sum(X**3, axis=1))) <= 1e-9:
                continue
            ref = canon_skewness_sign(X).cloud
            for pattern in itertools.product((1.0, -1.0), repeat=d):
                S = np.array(pattern).reshape(d, 1)
                np.testing.assert_array_equal(canon_skewness_sign(S * X).cloud, ref)


class TestSignOrbit:
    def test_d1_example(self):
        orbit = list(iter_sign_orbit(np.array([[1.0, 2.0]])))
        assert len(orbit) == 2
        np.testing.assert_array_equal(orbit[0], [[1.0, 2.0]])
        np.testing.assert_array_equal(orbit[1], [[-1.0, -2.0]])

    def test_d2_size(self, rng):
        assert len(list(iter_sign_orbit(rng.random((2, 5))))) == 4

    def test_orbit_of_orbit_element_is_same_set(self, rng):
        X = rng.random((3, 4))
        base = {tuple(map(tuple, Z)) for Z in iter_sign_orbit(X)}
        for Z in iter_sign_orbit(X):
            assert {tuple(map(tuple, W)) for W in iter_sign_orbit(Z)} == base

    def test_rejects_large_d(self):
        with pytest.raises(ValueError):
            list(iter_sign_orbit(np.zeros((21, 2))))


def test_canon_result_defaults():
    res = CanonResult(cloud=np.zeros((1, 1)))
    assert res.perm is None and res.signs is None and res.shift is None
