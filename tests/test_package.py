"""The lazily loaded package: public names, import orders and name tables."""

import importlib
import pkgutil
import sys
import types

import numpy as np
import pytest

import canoncover
from canoncover import bounds, choices, cli, data, metrics, verify
from conftest import run_python

SUBMODULES = [importlib.import_module(f"canoncover.{m.name}")
              for m in pkgutil.iter_modules(canoncover.__path__)]


def test_version():
    assert canoncover.__version__ == "0.1.0"


def test_every_public_name_is_its_submodules_object():
    defined = set()
    for module in SUBMODULES:
        for name in set(getattr(module, "__all__", ())) & set(canoncover.__all__):
            assert getattr(canoncover, name) is getattr(module, name), (module.__name__, name)
            defined.add(name)
    assert defined == set(canoncover.__all__)


def test_dir_and_star_import():
    assert set(canoncover.__all__) <= set(dir(canoncover))
    namespace = {}
    exec("from canoncover import *", namespace)
    assert {name: namespace[name] for name in canoncover.__all__} == {
        name: getattr(canoncover, name) for name in canoncover.__all__}


def test_submodules_are_attributes():
    for name in ("bounds", "canon", "data", "hilbert", "metrics", "verify"):
        assert getattr(canoncover, name) is sys.modules[f"canoncover.{name}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        canoncover.nope


# Each script reaches `canoncover.coverage` by another path; the function
# must win over the submodule of the same name in every order.
_ORDERS = {
    "first access": "import canoncover\nvalue = canoncover.coverage\n",
    "from-import": "from canoncover import coverage as value\n",
    "after import canoncover.coverage":
        "import canoncover.coverage\nvalue = canoncover.coverage\n",
    "after a submodule that imports it":
        "import canoncover.verify\nimport canoncover\nvalue = canoncover.coverage\n",
    "after a CLI coverage job": """
import canoncover.cli
work = sys.argv[1]
assert canoncover.cli.main(["gen", "--clusters", "2", "--per-cluster", "2", "--d", "2",
                            "--n", "4", "--out", work + "/set.jsonl"]) == 0
assert canoncover.cli.main(["coverage", "--train", work + "/set.jsonl", "--test",
                            work + "/set.jsonl", "--metric", "inf",
                            "--output", work + "/report.json"]) == 0
import canoncover
value = canoncover.coverage
""",
}
_CHECK = """
from canoncover import coverage
assert value is coverage is sys.modules["canoncover.coverage"].coverage, value
assert callable(value)
print("ok")
"""


@pytest.mark.parametrize("order", sorted(_ORDERS))
def test_coverage_is_the_function_in_every_import_order(order, tmp_path):
    proc = run_python("import sys\n" + _ORDERS[order] + _CHECK, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_coverage_module_is_reached_by_from_import_and_sys_modules():
    from canoncover.coverage import greedy_net

    module = sys.modules["canoncover.coverage"]
    assert isinstance(module, types.ModuleType)
    assert greedy_net is module.greedy_net
    # As documented: `import a.b as c` reads the package attribute `b`,
    # which is the function `coverage`, not the submodule.
    import canoncover.coverage as cov
    assert cov is module.coverage and not hasattr(cov, "greedy_net")


def test_default_table_m_is_one_object():
    assert bounds.DEFAULT_TABLE_M is choices.DEFAULT_TABLE_M
    assert cli.build_parser().parse_args(["bounds"]).m == str(choices.DEFAULT_TABLE_M)


def test_metric_choices_are_the_registry():
    assert choices.METRIC_CHOICES == tuple(sorted(metrics._REGISTRY))
    assert metrics.METRIC_CHOICES is choices.METRIC_CHOICES


def test_suite_names_are_the_suites():
    assert choices.SUITE_NAMES == tuple(verify.SUITES) + ("all",)
    assert verify.SUITE_NAMES is choices.SUITE_NAMES


@pytest.mark.parametrize("spec", choices.CANON_CHOICES)
def test_every_canon_choice_is_accepted(spec):
    coords = np.random.default_rng(0).random((1, 5))  # d = 1, so "sort" takes it too
    cloud, record = data.apply_canon(coords, spec.replace("<m>", "4"))
    assert cloud.shape == coords.shape
    assert record["method"] == spec.replace("<m>", "4")
    assert data.CANON_CHOICES is choices.CANON_CHOICES
