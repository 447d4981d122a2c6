"""The names and defaults the command line offers: metric specs,
canonization specs, verification suites and the bound table's grid order.

Each is defined here once, in a module that imports nothing, so the CLI
parser's help, choices and defaults load without numpy and without
`bounds`. `metrics`, `data` and `verify` re-export the name tables and
`bounds` the grid order; the tests check each table against the registry
it names (`metrics._REGISTRY`, the families `data.apply_canon` accepts,
`verify.SUITES`).
"""

__all__ = ["METRIC_CHOICES", "CANON_CHOICES", "SUITE_NAMES", "DEFAULT_TABLE_M"]

METRIC_CHOICES = (
    "frobenius",
    "inf",
    "mean-euclidean",
    "perm-bottleneck",
    "perm-sum",
    "sign:frobenius",
    "sign:inf",
    "sign:mean-euclidean",
    "translation",
    "wasserstein:p1",
    "wasserstein:p2",
    "wasserstein:pinf",
)

CANON_CHOICES = ("sort", "lexsort", "hilbert:<m>", "centralize", "pca-skew")

SUITE_NAMES = ("hilbert", "canon", "metrics", "isometry", "poor-c1", "coverage", "bounds",
               "all")

# Grid order of the Hilbert column in `bounds_table` and `canoncover bounds`.
DEFAULT_TABLE_M = 10
