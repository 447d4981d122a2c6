"""Coverage reports, greedy nets, exact covering numbers."""

import dataclasses
import itertools

import numpy as np
import pytest

from canoncover import metrics
from canoncover.canon import canon_c1
from canoncover.coverage import (
    CoverageReport,
    LabelCoverageError,
    coverage,
    exact_cover_number,
    greedy_net,
    two_ball_set,
)
from canoncover.data import Dataset, PointCloud, canonize_dataset, synthetic_split
from canoncover.metrics import parse_metric


def _dataset(columns, labels=None):
    items = []
    for i, col in enumerate(columns):
        coords = np.array(col, dtype=float).reshape(-1, 1)
        items.append(PointCloud(coords=coords,
                                label=None if labels is None else labels[i]))
    return Dataset(items=items)


class TestCoverage:
    def test_single_point_example(self):
        # T = {(0,0)}, R = {(0,1), (3,0)}: nearest train point is at
        # Euclidean distance 1.
        train = _dataset([(0.0, 1.0), (3.0, 0.0)])
        test = _dataset([(0.0, 0.0)])
        report = coverage(train, test, "mean-euclidean")
        np.testing.assert_array_equal(report.q, [1.0])
        assert report.mean_coverage == 1.0
        assert report.max_coverage == 1.0

    def test_subset_gives_zero(self, rng):
        train, _ = synthetic_split(12, 3, clusters=2, d=2, n_points=6, seed=3)
        report = coverage(train, Dataset(items=train.items[:5]), "perm-sum")
        assert report.max_coverage == 0.0

    def test_report_consistency(self, rng):
        train, test = synthetic_split(10, 6, clusters=2, d=2, n_points=5, seed=1)
        report = coverage(train, test, "frobenius")
        assert report.max_coverage == np.max(report.q)
        assert abs(report.mean_coverage - np.mean(report.q)) <= 1e-12
        assert np.all(report.q >= 0)
        assert report.metric == "frobenius"

    def test_quotient_dominated_by_canonized_per_item(self):
        train, test = synthetic_split(30, 15, clusters=3, d=3, n_points=8, seed=5)
        quotient = coverage(train, test, "perm-sum")
        for spec in ("hilbert:4", "lexsort"):
            canonized = coverage(canonize_dataset(train, spec),
                                 canonize_dataset(test, spec), "mean-euclidean")
            assert np.all(quotient.q <= canonized.q + 1e-9), spec
            assert quotient.mean_coverage <= canonized.mean_coverage + 1e-9
            assert quotient.max_coverage <= canonized.max_coverage + 1e-9

    def test_same_label_only(self):
        train = _dataset([(0.0,), (10.0,)], labels=[1, 0])
        test = _dataset([(9.0,)], labels=[1])
        full = coverage(train, test, "mean-euclidean")
        restricted = coverage(train, test, "mean-euclidean", same_label_only=True)
        assert full.q[0] == 1.0
        assert restricted.q[0] == 9.0

    def test_missing_label_raises(self):
        train = _dataset([(0.0,)], labels=[0])
        test = _dataset([(1.0,)], labels=[7])
        with pytest.raises(LabelCoverageError):
            coverage(train, test, "mean-euclidean", same_label_only=True)

    @pytest.mark.parametrize("metric", ["perm-sum", "perm-bottleneck", "mean-euclidean"])
    def test_missing_label_names_first_test_item(self, metric):
        # Labels 7 and 9 have no train item; 7 comes first in test order,
        # after items whose labels do, and ahead of a later item labelled 0.
        train = _dataset([(0.0,), (1.0,)], labels=[0, 1])
        for labels, missing in (([1, 7, 0, 9, 0], 7), ([9, 0, 7], 9), ([0, 0, 1, 7], 7)):
            test = _dataset([(float(t),) for t in range(len(labels))], labels=labels)
            with pytest.raises(LabelCoverageError, match=f"^no train item with label {missing}$"):
                coverage(train, test, metric, same_label_only=True)

    def test_empty_train_raises(self):
        with pytest.raises(ValueError):
            coverage(Dataset(items=[]), _dataset([(0.0,)]), "inf")

    def test_deterministic(self):
        train, test = synthetic_split(15, 5, clusters=2, d=2, n_points=4, seed=2)
        a = coverage(train, test, "perm-bottleneck")
        b = coverage(train, test, "perm-bottleneck")
        np.testing.assert_array_equal(a.q, b.q)

    def test_accepts_metric_object_and_callable(self):
        train = _dataset([(0.0, 0.0)])
        test = _dataset([(3.0, 4.0)])
        assert coverage(train, test, parse_metric("frobenius")).q[0] == 5.0
        assert coverage(train, test, lambda A, B: 7.0).q[0] == 7.0


def _full_scan(train, test, metric, same_label_only=False):
    """The unpruned reference: every eligible pair solved exactly."""
    metric = parse_metric(metric)
    return np.array([
        min(metric(t.coords, c.coords) for c in train.items
            if not same_label_only or c.label == t.label)
        for t in test.items
    ])


def _split_with_ties(seed, d, spread):
    """A clustered split plus exact ties: two train clouds duplicated (one
    twice), and a test cloud that is a column-reversed train cloud, so
    its nearest distance is exactly 0."""
    train, test = synthetic_split(24, 9, clusters=3, d=d, n_points=6, seed=seed,
                                  spread=spread)
    copies = [PointCloud(coords=train.items[i].coords.copy(), label=train.items[i].label)
              for i in (0, 4, 4)]
    source = train.items[5]
    copied_test = PointCloud(coords=source.coords[:, ::-1].copy(), label=source.label)
    return (Dataset(items=train.items + copies),
            Dataset(items=test.items[:4] + [copied_test] + test.items[4:]))


def _counting(monkeypatch):
    """Exact solves per quotient: `linear_sum_assignment` calls for
    perm-sum, `_bottleneck_assignment` calls for perm-bottleneck (whose
    search also calls `linear_sum_assignment`, so read only its own
    count). The scan solves slices of one cost block and never calls
    `Metric.func`, so wrapping `func` would count nothing."""
    calls = {"perm-sum": 0, "perm-bottleneck": 0}
    for name, attr in (("perm-sum", "linear_sum_assignment"),
                       ("perm-bottleneck", "_bottleneck_assignment")):
        solver = getattr(metrics, attr)

        def counted(cost, name=name, solver=solver):
            calls[name] += 1
            return solver(cost)

        monkeypatch.setattr(metrics, attr, counted)
    return calls


def _tier1_solves(train, test, name):
    """Exact solves of a scan pruned by tier 1 alone: each test item
    solves candidates in bound order until the next bound exceeds the
    best value so far."""
    metric = parse_metric(name)
    marginal_bound = {"perm-sum": metrics._perm_sum_marginal_bound,
                      "perm-bottleneck": metrics._perm_bottleneck_marginal_bound}[name]
    stack = np.stack([item.coords for item in train.items])
    solves = 0
    for t in test.items:
        lower = metrics._tier1(marginal_bound, t.coords[None], stack)[0]
        best = np.inf
        for k in np.argsort(lower, kind="stable"):
            if lower[k] > best * metrics._PRUNE_SLACK:
                break
            best = min(best, metric(t.coords, stack[k]))
            solves += 1
    return solves


class TestBoundPrunedScan:
    @pytest.mark.parametrize("same_label", [False, True])
    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_equals_full_scan(self, name, same_label):
        # Wide spreads make near-ties between clusters common; at d = 1
        # both bounds equal the exact value, so every candidate ties its bound.
        for seed, d, spread in itertools.product((1, 2, 3), (1, 3), (0.08, 0.3)):
            train, test = _split_with_ties(seed, d, spread)
            report = coverage(train, test, name, same_label_only=same_label)
            expected = _full_scan(train, test, name, same_label)
            assert np.array_equal(report.q, expected), (seed, d, spread)
            assert report.q[4] == 0.0

    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_skips_exact_solves_on_clustered_split(self, name, monkeypatch):
        train, test = synthetic_split(60, 15, clusters=3, d=3, n_points=8, seed=4)
        tier1 = _tier1_solves(train, test, name)
        calls = _counting(monkeypatch)
        report = coverage(train, test, name)
        assert 0 < calls[name] < tier1 < len(train) * len(test)
        assert np.array_equal(report.q, _full_scan(train, test, name))

    def test_metric_without_bound_solves_every_pair(self):
        train, test = synthetic_split(12, 5, clusters=3, d=2, n_points=4, seed=6)
        base = parse_metric("mean-euclidean")
        calls = []
        metric = dataclasses.replace(base, func=lambda X, Y: calls.append(1) or base(X, Y))
        assert metric.scan is None
        coverage(train, test, metric)
        assert len(calls) == len(train) * len(test)

    def test_negative_custom_metric_is_not_pruned(self):
        train = _dataset([(0.0,), (1.0,), (2.0,)])
        test = _dataset([(0.0,)])
        values = iter([-1.0, -3.0, -2.0])
        assert coverage(train, test, lambda A, B: next(values)).q[0] == -3.0

    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_mixed_shapes_raise_from_first_pair(self, name):
        rng = np.random.default_rng(0)
        train = Dataset(items=[PointCloud(coords=rng.random((3, 5))) for _ in range(3)])
        test = Dataset(items=[PointCloud(coords=rng.random((3, 6)))])
        with pytest.raises(ValueError, match=r"shape mismatch: \(3, 6\) vs \(3, 5\)"):
            coverage(train, test, name)


def _labelled(groups):
    """A dataset of (label, coords) pairs in the given order."""
    return Dataset(items=[PointCloud(coords=X, label=label) for label, X in groups])


def _split_per_label_n(seed):
    """Three labels whose clouds have n = 4, 5 and 6 points: each label
    has one shape, the split as a whole has three."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label, n in enumerate((4, 5, 6)):
        center = rng.random((2, 1))
        clouds = center + 0.1 * rng.standard_normal((24, 2, n))
        train += [(label, X) for X in clouds[:20]]
        test += [(label, X) for X in clouds[20:]]
    return _labelled(train), _labelled(test[::2] + test[1::2])


class TestOnePath:
    """coverage() hands each label group to `Metric.nearest`, which picks
    the pruned scan or a plain minimum; q equals the per-pair scan."""

    @pytest.mark.parametrize("same_label", [False, True])
    @pytest.mark.parametrize("name", list(metrics.METRIC_CHOICES) + ["callable"])
    def test_equals_full_scan(self, name, same_label):
        metric = (lambda A, B: float(np.abs(A - B).sum())) if name == "callable" else name
        for d in (1,) if name.startswith("wasserstein") else (1, 3):
            train, test = _split_with_ties(7, d, 0.3)
            report = coverage(train, test, metric, same_label_only=same_label)
            assert report.q.dtype == np.float64
            assert np.array_equal(report.q, _full_scan(train, test, metric, same_label)), d

    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_scans_each_label_of_its_own_shape(self, name, monkeypatch):
        train, test = _split_per_label_n(3)
        expected = _full_scan(train, test, name, same_label_only=True)
        calls = _counting(monkeypatch)
        report = coverage(train, test, name, same_label_only=True)
        assert np.array_equal(report.q, expected)
        assert 0 < calls[name] < len(test) * 20

    def test_callable_takes_mixed_shapes(self):
        train, test = _split_per_label_n(4)
        calls = []

        def counted(A, B):  # ints, over clouds of any shape
            calls.append(1)
            return int(abs(A.size - B.size))

        report = coverage(train, test, counted)
        assert report.q.dtype == np.float64 and len(calls) == len(train) * len(test)
        assert np.array_equal(report.q, _full_scan(train, test, counted))
        assert np.array_equal(report.q, np.zeros(len(test)))

    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_ragged_label_group_raises_from_first_pair(self, name):
        rng = np.random.default_rng(1)
        train = _labelled([(0, rng.random((3, 5))), (1, rng.random((3, 5))),
                           (1, rng.random((3, 6))), (0, rng.random((3, 5)))])
        test = _labelled([(0, rng.random((3, 5))), (1, rng.random((3, 6)))])
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 6\) vs \(3, 5\)$"):
            coverage(train, test, name, same_label_only=True)

    @pytest.mark.parametrize("name", ["frobenius", "perm-sum"])
    def test_nearest_calls_a_replaced_func(self, name):
        # frobenius has no scan; perm-sum's scan needs one shape, and the
        # candidates here have two.
        rng = np.random.default_rng(2)
        calls = []

        def f(X, Y):
            calls.append(1)
            return float(X.sum() - Y.sum())

        metric = dataclasses.replace(parse_metric(name), func=f)
        T = rng.random((3, 2, 4))
        B = [rng.random((2, n)) for n in (4, 5, 4)]
        expected = [min(f(X, Y) for Y in B) for X in T]
        calls.clear()
        assert np.array_equal(metric.nearest(T, B), expected)
        assert len(calls) == len(T) * len(B)


class TestSolverPatchContract:
    """`metrics.linear_sum_assignment` and `metrics.cdist` are the only route
    to scipy's solver and pair costs, so a patch on either module name sees
    every exact solve and cost build, and the results do not change."""

    def _patch(self, monkeypatch):
        loaded = dict(zip(("linear_sum_assignment", "cdist"), metrics._scipy()))
        reached = dict.fromkeys(loaded, 0)
        patched = dict.fromkeys(loaded, 0)

        def counter(calls, name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        scipy_fns = tuple(counter(reached, name, fn) for name, fn in loaded.items())
        monkeypatch.setattr(metrics, "_scipy", lambda: scipy_fns)
        for name in loaded:
            monkeypatch.setattr(metrics, name, counter(patched, name, getattr(metrics, name)))
        return reached, patched

    @pytest.mark.parametrize("name", ["perm-sum", "perm-bottleneck"])
    def test_coverage(self, name, monkeypatch):
        train, test = synthetic_split(40, 10, clusters=3, d=3, n_points=8, seed=4)
        expected = coverage(train, test, name).q
        reached, patched = self._patch(monkeypatch)
        assert coverage(train, test, name).q.tobytes() == expected.tobytes()
        assert patched == reached
        assert reached["linear_sum_assignment"] > 0 and reached["cdist"] > 0

    def test_perm_quotient_pnorm(self, monkeypatch, rng):
        pairs = [(rng.random(7), rng.random(7)) for _ in range(6)]
        runs = [(x, y, p) for x, y in pairs for p in (1, 2, np.inf)]
        expected = [metrics.perm_quotient_pnorm(*run) for run in runs]
        reached, patched = self._patch(monkeypatch)
        assert [metrics.perm_quotient_pnorm(*run) for run in runs] == expected
        assert patched == reached and reached["linear_sum_assignment"] > 0


class TestGreedy:
    def test_single_cluster(self):
        pts = [np.array([[0.0]]), np.array([[0.05]]), np.array([[0.09]])]
        net = greedy_net(pts, "inf", 0.1)
        assert net.size == 1 and net.center_indices == [0]

    def test_two_clusters(self):
        pts = [np.array([[0.0]]), np.array([[0.05]]),
               np.array([[1.0]]), np.array([[1.05]])]
        net = greedy_net(pts, "inf", 0.1)
        assert net.size == 2 and net.center_indices == [0, 2]

    def test_packing_matches_net(self, rng):
        # The net is the maximal eps-separated set built in input order
        # from the full distance matrix.
        pts = [rng.random((2, 1)) for _ in range(30)]
        metric = parse_metric("frobenius")
        far = np.array([[metric(p, r) > 0.2 for r in pts] for p in pts])
        packing = []
        for i in range(len(pts)):
            if far[i, packing].all():
                packing.append(i)
        assert greedy_net(pts, metric, 0.2).center_indices == packing

    def test_net_is_valid_cover_and_packing(self, rng):
        metric = parse_metric("frobenius")
        for _ in range(30):
            pts = [rng.random((2, 3)) for _ in range(25)]
            eps = float(rng.uniform(0.1, 0.8))
            net = greedy_net(pts, metric, eps)
            for p in pts:
                assert min(metric(p, pts[c]) for c in net.center_indices) <= eps
            centers = net.center_indices
            for i, a in enumerate(centers):
                for b in centers[i + 1:]:
                    assert metric(pts[a], pts[b]) > eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            greedy_net([np.zeros((1, 1))], "inf", 0.0)
        with pytest.raises(ValueError):
            exact_cover_number([np.zeros((1, 1))], "inf", -0.5)
        # NaN passes an `epsilon <= 0` test; both must still refuse it.
        pts = [np.array([[v]]) for v in (0.0, 0.5, 1.0)]
        for cover in (greedy_net, exact_cover_number):
            for eps in (float("nan"), np.float64("nan")):
                with pytest.raises(ValueError, match="^epsilon must be positive, got nan$"):
                    cover(pts, "inf", eps)


class TestExactCover:
    def test_single_point(self):
        assert exact_cover_number([np.array([[0.3]])], "inf", 0.1) == 1

    def test_upper_bounded_by_greedy(self, rng):
        for _ in range(30):
            pts = [rng.random((1, 2)) for _ in range(12)]
            eps = float(rng.uniform(0.05, 0.6))
            exact = exact_cover_number(pts, "inf", eps)
            greedy = greedy_net(pts, "inf", eps).size
            assert exact <= greedy

    def test_exact_beats_greedy_sometimes(self):
        # Greedy in input order picks 0 then 2 then 4; the middle point 2
        # alone covers everything.
        pts = [np.array([[v]]) for v in (0.0, 0.09, 0.1, 0.11, 0.2)]
        assert greedy_net(pts, "inf", 0.1).size >= 2
        assert exact_cover_number(pts, "inf", 0.1) == 1

    @staticmethod
    def _brute_cover_number(points, metric, epsilon):
        """Smallest k such that some k of the points cover all of them."""
        dist = parse_metric(metric)
        near = [[dist(c, p) <= epsilon for p in points] for c in points]
        for k in range(1, len(points) + 1):
            for centers in itertools.combinations(range(len(points)), k):
                if all(any(near[c][j] for c in centers) for j in range(len(points))):
                    return k
        return 0

    @pytest.mark.parametrize("metric", ["inf", "frobenius", "sign:inf", "perm-sum"])
    def test_matches_brute_force(self, rng, metric):
        dist = parse_metric(metric)
        for trial in range(50):
            # The last ten draws reach N = 14.
            N = int(rng.integers(1, 11 if trial < 40 else 15))
            d, n = (int(v) for v in rng.integers(1, 4, size=2))
            pts = [rng.uniform(-1.0, 1.0, size=(d, n)) for _ in range(N)]
            if rng.random() < 0.3:
                # On a 0.1 grid many pairwise distances tie with epsilon.
                pts = [np.round(p, 1) for p in pts]
            # A pairwise distance as epsilon puts a ball boundary on a point.
            eps = max(dist(pts[0], pts[int(rng.integers(N))]), 1e-3)
            assert (exact_cover_number(pts, metric, eps)
                    == self._brute_cover_number(pts, metric, eps))

    def test_two_ball_set_matches_brute_force(self):
        pts = two_ball_set()
        for metric in ("inf", "frobenius", "sign:inf", "perm-sum"):
            assert (exact_cover_number(pts, metric, 0.1)
                    == self._brute_cover_number(pts, metric, 0.1))

    def test_rejects_too_many_points(self):
        pts = [np.zeros((1, 1))] * 21
        with pytest.raises(ValueError):
            exact_cover_number(pts, "inf", 0.1)

    def test_empty_is_zero(self):
        assert exact_cover_number([], "inf", 0.1) == 0

    def test_writes_nothing(self, capfd):
        # HiGHS writes from C, past sys.stdout: capfd reads fds 1 and 2.
        pts = two_ball_set()
        mapped = [np.array([[canon_c1(float(p[0, 0]))]]) for p in pts]
        rng = np.random.default_rng(5)
        big = [rng.random((2, 3)) for _ in range(20)]
        for points, metric, eps in ((pts, "inf", 0.1), (mapped, "inf", 0.1),
                                    (pts, "sign:inf", 0.1), (big, "frobenius", 0.5)):
            exact_cover_number(points, metric, eps)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("x, success", [(None, False), (np.zeros(10), True)],
                             ids=["solve-fails", "not-a-cover"])
    def test_failed_or_wrong_solve_raises(self, monkeypatch, x, success):
        import scipy.optimize

        def fake_milp(*args, **kwargs):
            return scipy.optimize.OptimizeResult(x=x, success=success, message="fake")

        monkeypatch.setattr(scipy.optimize, "milp", fake_milp)
        with pytest.raises(RuntimeError, match="set-cover solve"):
            exact_cover_number(two_ball_set(), "inf", 0.1)


class TestTwoBallDemo:
    def test_set_shape(self):
        pts = two_ball_set()
        assert len(pts) == 10
        assert all(p.shape == (1, 1) for p in pts)
        assert {abs(float(p[0, 0])) for p in pts} == {0.40, 0.45, 0.50, 0.55, 0.60}

    def test_cover_numbers_2_2_1(self):
        # The poor-canonization demonstration: the raw set needs two balls,
        # the c1 image still needs two (the jump at 1/2 tears the positive
        # ball apart), and the sign quotient folds both balls into one.
        pts = two_ball_set()
        assert exact_cover_number(pts, "inf", 0.1) == 2
        mapped = [np.array([[canon_c1(float(p[0, 0]))]]) for p in pts]
        assert exact_cover_number(mapped, "inf", 0.1) == 2
        assert exact_cover_number(pts, "sign:inf", 0.1) == 1


def test_coverage_report_to_dict_round_trip():
    report = CoverageReport(q=np.array([1.0, 2.0]), mean_coverage=1.5,
                            max_coverage=2.0, metric="inf")
    payload = report.to_dict()
    assert payload == {"metric": "inf", "q": [1.0, 2.0],
                       "mean_coverage": 1.5, "max_coverage": 2.0}
