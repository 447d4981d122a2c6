"""Curve construction: bijection, adjacency, nesting, Holder continuity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoncover.hilbert import (
    MAX_TOTAL_BITS,
    HilbertParams,
    _encode_cells,
    cell_of,
    centroid,
    cloud_indices,
    decode,
    encode,
    index_centroid,
    snap_to_centroids,
)

# The construction is pinned by this golden path: any change to the curve
# orientation convention must show up here.
GOLDEN_D2_M1 = [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_golden_path_d2_m1():
    params = HilbertParams(d=2, m=1)
    assert [decode(params, k) for k in range(4)] == GOLDEN_D2_M1
    for k, cell in enumerate(GOLDEN_D2_M1):
        assert encode(params, cell) == k


def test_d1_is_identity():
    assert encode(HilbertParams(d=1, m=3), (5,)) == 5
    assert decode(HilbertParams(d=1, m=4), 9) == (9,)
    params = HilbertParams(d=1, m=6)
    for k in range(64):
        assert decode(params, k) == (k,)


def test_d3_m2_round_trip():
    params = HilbertParams(d=3, m=2)
    for k in range(64):
        assert encode(params, decode(params, k)) == k


def test_d2_m2_visits_every_cell_once():
    params = HilbertParams(d=2, m=2)
    cells = {decode(params, k) for k in range(16)}
    assert cells == set(itertools.product(range(4), repeat=2))


def test_d2_m3_consecutive_adjacency():
    params = HilbertParams(d=2, m=3)
    prev = decode(params, 0)
    for k in range(1, params.n_cells):
        cur = decode(params, k)
        assert sum(abs(a - b) for a, b in zip(cur, prev)) == 1
        prev = cur


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bijection_and_adjacency_exhaustive(d, m):
    params = HilbertParams(d=d, m=m)
    seen = set()
    prev = None
    for k in range(params.n_cells):
        cell = decode(params, k)
        assert encode(params, cell) == k
        seen.add(cell)
        if prev is not None:
            assert sum(abs(a - b) for a, b in zip(cell, prev)) == 1
        prev = cell
    assert len(seen) == params.n_cells


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_nesting(d, m):
    # The refined curve stays inside the coarse cell it refines: halving
    # the child cell gives the parent cell of the index prefix.
    coarse = HilbertParams(d=d, m=m)
    fine = HilbertParams(d=d, m=m + 1)
    for k in range(fine.n_cells):
        child = decode(fine, k)
        parent = decode(coarse, k >> d)
        assert tuple(c >> 1 for c in child) == parent


def _holder_violations(params, i, j):
    cells = np.array([decode(params, k) for k in range(params.n_cells)])
    img = (2.0 * cells + 1.0) / (1 << (params.m + 1))
    pre = (2.0 * np.arange(params.n_cells) + 1.0) / float(
        1 << (params.d * params.m + 1)
    )
    lhs = np.max(np.abs(img[i] - img[j]), axis=1)
    rhs = 4.0 * np.abs(pre[i] - pre[j]) ** (1.0 / params.d)
    return int(np.sum(lhs > rhs + 1e-12))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_holder_d2_exhaustive(m):
    params = HilbertParams(d=2, m=m)
    idx = np.arange(params.n_cells)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    assert _holder_violations(params, i.ravel(), j.ravel()) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_holder_d3_sampled(m, rng):
    params = HilbertParams(d=3, m=m)
    i = rng.integers(0, params.n_cells, size=100_000)
    j = rng.integers(0, params.n_cells, size=100_000)
    assert _holder_violations(params, i, j) == 0


def test_cell_of_examples():
    assert cell_of(HilbertParams(d=2, m=2), (0.0, 0.0)) == (0, 0)
    assert cell_of(HilbertParams(d=2, m=2), (1.0, 0.3)) == (3, 1)
    assert cell_of(HilbertParams(d=1, m=3), (0.5,)) == (4,)


def test_cell_of_rejects_out_of_range():
    params = HilbertParams(d=2, m=2)
    with pytest.raises(ValueError):
        cell_of(params, (-0.1, 0.5))
    with pytest.raises(ValueError):
        cell_of(params, (0.5, 1.1))


def test_centroid_examples():
    np.testing.assert_array_equal(
        centroid(HilbertParams(d=2, m=1), (0, 0)), np.array([0.25, 0.25])
    )
    np.testing.assert_array_equal(
        centroid(HilbertParams(d=1, m=2), (3,)), np.array([0.875])
    )


def test_centroid_cell_round_trip(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        params = HilbertParams(d=d, m=m)
        cell = tuple(int(c) for c in rng.integers(0, params.cells_per_axis, size=d))
        assert cell_of(params, centroid(params, cell)) == cell


def test_index_centroid_matches_interval_midpoints():
    params = HilbertParams(d=2, m=1)
    for k in range(4):
        assert index_centroid(params, k) == (2 * k + 1) / 8


def test_snap_to_centroids_halves_cell_error(rng):
    params = HilbertParams(d=3, m=4)
    X = rng.random((3, 50))
    snapped = snap_to_centroids(params, X)
    assert np.max(np.abs(snapped - X)) <= 2.0 ** (-params.m - 1)
    # snapped points are fixed points of snapping
    np.testing.assert_array_equal(snap_to_centroids(params, snapped), snapped)


def _reference_cell(params, point):
    # The per-point floor/clamp rule in Python ints.
    side = params.cells_per_axis
    return tuple(min(int(math.floor(x * side)), side - 1) for x in point)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_cloud_indices_every_cell_small_grids(d):
    for m in range(1, 12 // d + 1):
        params = HilbertParams(d=d, m=m)
        cells = list(itertools.product(range(params.cells_per_axis), repeat=d))
        centroids = np.array([centroid(params, c) for c in cells]).T
        idx = cloud_indices(params, centroids)
        assert idx.tolist() == [encode(params, c) for c in cells], (d, m)


def test_cloud_indices_matches_pointwise(rng):
    # Columns at exactly 0.0 and 1.0 probe the clamp: above m = 53 a clamp
    # done in float rounds 2^m - 1 up to 2^m, one cell past the grid.
    for d, m in [(2, 3), (1, 62), (2, 31), (3, 20), (6, 10)]:
        params = HilbertParams(d=d, m=m)
        X = rng.random((d, 40))
        X[:, 0] = 0.0
        X[:, 1] = 1.0
        X[0, 2] = 1.0
        X[-1, 3] = 0.0
        X[:, 4] = np.nextafter(1.0, 0.0)
        idx = cloud_indices(params, X)
        assert idx.dtype == np.uint64
        for col in range(40):
            cell = _reference_cell(params, X[:, col])
            assert cell_of(params, X[:, col]) == cell
            assert int(idx[col]) == encode(params, cell), (d, m, col)
        assert int(idx[1]) == encode(params, (params.cells_per_axis - 1,) * d)


@pytest.mark.parametrize("d", range(1, 9))
def test_array_encoder_matches_encode_at_every_order(d, rng):
    # Random cells at every order the 64-bit index allows, plus the all-0
    # and all-(2^m - 1) cells. Integer cells reach every bit of the index
    # even at m = 62; coordinates c / 2^m also take cloud_indices' cell
    # step, where m > 53 rounds c to a float first.
    for m in range(1, MAX_TOTAL_BITS // d + 1):
        params = HilbertParams(d=d, m=m)
        side = params.cells_per_axis
        cells = rng.integers(0, side, size=(d, 24), dtype=np.uint64)
        cells[:, 0] = 0
        cells[:, 1] = side - 1
        expected = [encode(params, cell) for cell in cells.T.tolist()]
        assert _encode_cells(params, cells).tolist() == expected, (d, m)
        X = cells.astype(float) / side
        expected = [encode(params, _reference_cell(params, col)) for col in X.T]
        assert cloud_indices(params, X).tolist() == expected, (d, m)


def test_snap_to_centroids_matches_pointwise(rng):
    for d, m in [(3, 4), (1, 62), (2, 31)]:
        params = HilbertParams(d=d, m=m)
        X = rng.random((d, 30))
        X[:, 0] = 0.0
        X[:, 1] = 1.0
        snapped = snap_to_centroids(params, X)
        for col in range(30):
            np.testing.assert_array_equal(
                snapped[:, col], centroid(params, _reference_cell(params, X[:, col])))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_out_of_range_coordinates_rejected(bad, rng):
    params = HilbertParams(d=3, m=4)
    X = rng.random((3, 6))
    X[1, 2] = bad
    X[0, 4] = 7.0  # a later column: the error names the first bad value
    message = f"coordinate {bad} outside \\[0, 1\\]"
    with pytest.raises(ValueError, match=message):
        cloud_indices(params, X)
    with pytest.raises(ValueError, match=message):
        snap_to_centroids(params, X)
    with pytest.raises(ValueError, match=message):
        cell_of(params, X[:, 2])


def test_params_validation():
    with pytest.raises(ValueError):
        HilbertParams(d=0, m=1)
    with pytest.raises(ValueError):
        HilbertParams(d=1, m=0)
    with pytest.raises(ValueError):
        HilbertParams(d=7, m=9)  # 63 bits
    assert HilbertParams(d=2, m=31).d * 31 == MAX_TOTAL_BITS


def test_range_validation():
    params = HilbertParams(d=2, m=2)
    with pytest.raises(ValueError):
        decode(params, 16)
    with pytest.raises(ValueError):
        decode(params, -1)
    with pytest.raises(ValueError):
        encode(params, (4, 0))
    with pytest.raises(ValueError):
        encode(params, (0,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_random_params(data):
    d = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=MAX_TOTAL_BITS // d))
    params = HilbertParams(d=d, m=m)
    k = data.draw(st.integers(min_value=0, max_value=params.n_cells - 1))
    cell = decode(params, k)
    assert len(cell) == d
    assert all(0 <= c < params.cells_per_axis for c in cell)
    assert encode(params, cell) == k


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adjacent_indices_adjacent_cells_random(data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(st.integers(min_value=1, max_value=min(8, MAX_TOTAL_BITS // d)))
    params = HilbertParams(d=d, m=m)
    k = data.draw(st.integers(min_value=0, max_value=params.n_cells - 2))
    a = decode(params, k)
    b = decode(params, k + 1)
    assert sum(abs(x - y) for x, y in zip(a, b)) == 1
