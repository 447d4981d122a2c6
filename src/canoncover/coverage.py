"""Coverage statistics, greedy epsilon-nets, and exact covering numbers.

Coverage measures how well a train set covers a test set under a chosen
metric: q_t is the distance from test item t to its nearest eligible
train item, max coverage is the largest q_t (the smallest epsilon making
the train set an epsilon-cover of the test set), and mean coverage
averages the q_t.

The net and cover routines are internal: centers are chosen from the
input points themselves. `exact_cover_number` imports scipy's `milp` on
its first call, so importing this module never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .metrics import parse_metric

__all__ = [
    "CoverageReport",
    "NetResult",
    "LabelCoverageError",
    "coverage",
    "greedy_net",
    "exact_cover_number",
    "two_ball_set",
]


class LabelCoverageError(ValueError):
    """A test item has no same-label train item to be matched against."""


@dataclass
class CoverageReport:
    """Per-test-item nearest distances plus their mean and max."""

    q: np.ndarray
    mean_coverage: float
    max_coverage: float
    metric: str

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "q": [float(v) for v in self.q],
            "mean_coverage": float(self.mean_coverage),
            "max_coverage": float(self.max_coverage),
        }


@dataclass
class NetResult:
    """Centers selected by a net or cover routine."""

    center_indices: list[int]
    epsilon: float

    @property
    def size(self) -> int:
        return len(self.center_indices)


def coverage(train: Dataset, test: Dataset, metric,
             same_label_only: bool = False) -> CoverageReport:
    """Nearest-train distance for every test item.

    With same_label_only, each test item is compared only against train
    items sharing its label; a label with no train item raises
    LabelCoverageError, naming the label of the first such test item.

    The test items take one `Metric.nearest` call in all, or with
    same_label_only one per label, over that group's eligible train
    clouds in train order. The metric decides how to answer: perm-sum
    and perm-bottleneck take their pruned scan when the group's clouds
    share one shape, and every other case a plain minimum.
    """
    metric = parse_metric(metric)
    if len(train.items) == 0:
        raise ValueError("train set is empty")
    if len(test.items) == 0:
        raise ValueError("test set is empty")
    groups: dict = {}
    for t, item in enumerate(test.items):
        groups.setdefault(item.label if same_label_only else None, []).append(t)
    # Groups run in the order of their first test item, so a missing
    # label raises for the first such test item, as a per-item scan would.
    q = np.empty(len(test.items))
    for key, members in groups.items():
        eligible = [item.coords for item in train.items
                    if not same_label_only or item.label == key]
        if not eligible:
            raise LabelCoverageError(f"no train item with label {key!r}")
        q[members] = metric.nearest([test.items[t].coords for t in members], eligible)
    return CoverageReport(
        q=q,
        mean_coverage=float(np.mean(q)),
        max_coverage=float(np.max(q)),
        metric=metric.name,
    )


def greedy_net(points, metric, epsilon) -> NetResult:
    """Single-pass epsilon-net in input order.

    A point becomes a center iff it is more than epsilon from every
    existing center, so the centers cover the input (every point within
    epsilon of some center) and are pairwise > epsilon apart.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    metric = parse_metric(metric)
    centers: list[int] = []
    for i, p in enumerate(points):
        if all(metric(p, points[c]) > epsilon for c in centers):
            centers.append(i)
    return NetResult(center_indices=centers, epsilon=float(epsilon))


_EXACT_COVER_MAX = 20


def exact_cover_number(points, metric, epsilon) -> int:
    """Minimum number of points whose closed epsilon-balls cover the set.

    Centers come from the point set itself. Ball i covers point j iff
    metric(points[i], points[j]) <= epsilon; the N x N ball matrix takes
    N^2 metric calls. The set-cover ILP, min sum(x) subject to
    balls^T x >= 1 over x in {0, 1}, is solved by `scipy.optimize.milp`
    (HiGHS) on its default options, and the cover it returns is checked
    exactly against the ball matrix: RuntimeError if the solve fails or
    its answer is not a cover. The 20-point cap bounds the metric calls
    and the solve time, not what the solver can take.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = len(points)
    if n == 0:
        return 0
    if n > _EXACT_COVER_MAX:
        raise ValueError(f"exact cover supports at most {_EXACT_COVER_MAX} points, got {n}")
    metric = parse_metric(metric)
    balls = np.array([[metric(p, q) <= epsilon for q in points] for p in points])
    from scipy.optimize import milp
    result = milp(np.ones(n), integrality=1, bounds=(0, 1),
                  constraints=(balls.T, 1, np.inf))
    if not result.success:
        raise RuntimeError(f"set-cover solve failed: {result.message}")
    chosen = result.x > 0.5
    if not balls[chosen].any(axis=0).all():
        raise RuntimeError("set-cover solve returned centers that do not cover the set")
    return int(chosen.sum())


def two_ball_set() -> list[np.ndarray]:
    """Ten 1 x 1 clouds drawn from two radius-0.1 balls around +1/2 and -1/2.

    The demonstration set for a sign canonization with a jump at the
    origin: the raw set and its image both need two epsilon-balls at
    epsilon = 0.1, while the sign quotient collapses them to one.
    """
    values = [0.40, 0.45, 0.50, 0.55, 0.60]
    points = []
    for v in values:
        points.append(np.array([[v]]))
        points.append(np.array([[-v]]))
    return points
