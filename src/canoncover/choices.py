"""The names the command line offers: metric specs, canonization specs and
verification suites.

Each table is defined here once, in a module that imports nothing, so the
CLI parser's help and choices load without numpy. `metrics`, `data` and
`verify` re-export them; the tests check each against the registry it
names (`metrics._REGISTRY`, the families `data.apply_canon` accepts,
`verify.SUITES`).
"""

__all__ = ["METRIC_CHOICES", "CANON_CHOICES", "SUITE_NAMES"]

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
