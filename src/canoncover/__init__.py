"""Group-symmetric canonizations, quotient metrics, coverage estimators,
and exact covering-number bounds for point clouds in the unit cube.

The package loads lazily (PEP 562; Scientific Python SPEC 1, "Lazy Loading
of Submodules and Functions"): `import canoncover` imports none of its
submodules, and a public name imports the submodule that defines it on
first access. So `canoncover bounds`, which is integer arithmetic, never
loads numpy. `from canoncover import X`, `from canoncover import *` and
`canoncover.<submodule>` give the same objects as eager imports would.

`_ORIGIN` is the one name table: each public name is in its submodule's
`__all__` and in `_ORIGIN`, and the package `__all__` is its sorted keys.

`canoncover.coverage` is the function `coverage`, not the submodule of the
same name, in every import order. So `import canoncover.coverage as cov`
also binds the function: `import a.b as c` reads the package attribute
`b`. Reach the module with `from canoncover.coverage import greedy_net`
(or any of its names) or `sys.modules["canoncover.coverage"]`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in {
    "bounds": ("TABLE_FORMULAS", "LogValue", "TableEntry", "as_exact_ratio",
               "bound_group_cardinality", "bound_hilbert_upper", "bound_hypercube_exact",
               "bound_lexsort_lower", "bound_quotient_upper", "bounds_table", "digit_count",
               "generalization_rhs", "mantissa_exponent", "multiset_count", "sci_string"),
    "canon": ("CanonResult", "DegenerateSpectrumError", "canon_abs", "canon_c1",
              "canon_centralize", "canon_cinf", "canon_hilbert", "canon_hilbert_stack",
              "canon_lexsort", "canon_skewness_sign", "canon_sort", "pca_align"),
    "choices": ("CANON_CHOICES", "METRIC_CHOICES", "SUITE_NAMES"),
    "coverage": ("CoverageReport", "LabelCoverageError", "NetResult", "coverage",
                 "exact_cover_number", "greedy_net", "two_ball_set"),
    "data": ("Dataset", "PointCloud", "apply_canon", "canonize_dataset", "normalize_cloud",
             "synthetic_dataset", "synthetic_split"),
    "hilbert": ("HilbertParams", "cell_of", "centroid", "cloud_indices", "decode", "encode",
                "index_centroid", "snap_to_centroids"),
    "metrics": ("InternalConsistencyError", "Metric", "brute_perm_quotient", "dist_frobenius",
                "dist_inf", "dist_mean_euclidean", "parse_metric", "perm_quotient_bottleneck",
                "perm_quotient_pnorm", "perm_quotient_sum", "sign_quotient",
                "translation_quotient", "wasserstein_1d"),
    "verify": ("CheckResult", "run_suite"),
}.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _ORIGIN.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type.

    Importing a submodule binds it on the package under its own name. The
    submodule `coverage` shares its name with its function `coverage`, so
    that binding would hide the function; it binds the function instead.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _ORIGIN.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
