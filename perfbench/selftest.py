"""Self-test of the harness: `python3 perfbench/run.py --self-test`.

Checks that the independent references agree with brute force and with
the library's scalar Hilbert encoder, that each workload's check
rejects a corrupted output, and that a wrong, failing or crashing job
is counted as failed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile

import numpy as np

import oracles
from run import HERE, Checker, call, measure
from workloads import Bounds, Canonize, Coverage


def _brute(X, Y, reduce_cost, combine):
    n = X.shape[1]
    return min(combine([reduce_cost(X[:, p[i]] - Y[:, i]) for i in range(n)])
               for p in itertools.permutations(range(n)))


def check_references(rng) -> None:
    from canoncover import hilbert

    for d, m in ((1, 5), (2, 4), (3, 3)):
        params = hilbert.HilbertParams(d, m)
        cells = list(itertools.product(range(1 << m), repeat=d))
        coords = (np.array(cells, dtype=float).T + 0.5) / (1 << m)
        got = oracles.hilbert_indices(coords, m)
        want = [hilbert.encode(params, c) for c in cells]
        assert got.tolist() == want, (d, m)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        X, Y = rng.random((3, n)), rng.random((3, n))
        assert oracles.perm_bottleneck(X, Y) == _brute(
            X, Y, lambda v: np.abs(v).max(), max)
        assert np.isclose(oracles.perm_sum(X, Y), _brute(
            X, Y, np.linalg.norm, lambda c: sum(c) / n), rtol=1e-12, atol=1e-15)


def _run_jobs(cli, wl, work, jobs, corrupt):
    """`jobs` checked jobs; corrupt(i, rc, out) may alter job i's result."""
    check = Checker(wl, work, wl.reference(work))

    def job(i):
        rc, out, err = call(cli, wl.argv(work))
        return corrupt(i, rc, out) + (err,)

    return measure(job, check, seconds=0, min_jobs=jobs)[1]


class _Raising:
    """A program whose job dies with an exception."""

    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def _perturb_q(out):
    report = json.loads(out)
    report["q"][0] += 1e-6
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def check_failure_counting(cli, work) -> None:
    wl = Coverage("self-test", "perm-sum", n_train=6, n_test=3, n_points=12,
                  sample_n=8, canon="hilbert:4")
    wl.generate(cli, work, seed=7)
    clean = _run_jobs(cli, wl, work, 4, lambda i, rc, out: (rc, out))
    assert clean == [], clean
    wrong = _run_jobs(cli, wl, work, 4,
                      lambda i, rc, out: (rc, _perturb_q(out) if i == 2 else out))
    assert len(wrong) == 1, wrong
    # A wrong first job fails its check, and every later job differs from it.
    wrong_first = _run_jobs(cli, wl, work, 3,
                            lambda i, rc, out: (rc, _perturb_q(out) if i == 0 else out))
    assert len(wrong_first) == 3, wrong_first
    exit_1 = _run_jobs(cli, wl, work, 4, lambda i, rc, out: (1 if i == 1 else rc, out))
    assert len(exit_1) == 1, exit_1

    raised = call(_Raising, [])[:2]
    assert len(_run_jobs(cli, wl, work, 4,
                         lambda i, rc, out: raised if i == 3 else (rc, out))) == 1


def check_workload_checks(cli, work, rng) -> None:
    bn = Coverage("self-test-bn", "perm-bottleneck", n_train=6, n_test=3, n_points=8,
                  same_label=True)
    bn.generate(cli, work, seed=3)
    expected = bn.reference(work)
    rc, out, _ = call(cli, bn.argv(work))
    assert rc == 0 and bn.verify(work, out, expected) is None
    report = json.loads(out)
    report["q"][1] = float(np.nextafter(report["q"][1], 1.0))
    assert bn.verify(work, json.dumps(report), expected) is not None

    cz = Canonize("self-test-canon", n_points=500, m=6)
    cz.generate(cli, work, seed=5)
    rc, out, _ = call(cli, cz.argv(work))
    assert rc == 0 and cz.verify(work, out, None) is None
    _, canon_csv, sidecar = cz._paths(work)
    with open(canon_csv, encoding="utf-8") as fh:
        rows = fh.readlines()
    with open(sidecar, encoding="utf-8") as fh:
        record = json.load(fh)
    # Reversed rows with the matching reversed perm: still input[:, perm],
    # but out of Hilbert order.
    with open(canon_csv, "w", encoding="utf-8") as fh:
        fh.writelines(rows[::-1])
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({**record, "perm": record["perm"][::-1]}, fh)
    assert "Hilbert" in cz.verify(work, out, None)
    # Two rows swapped without the perm: not input[:, perm].
    i = int(rng.integers(0, len(rows) - 1))
    j = next(k for k in range(i + 1, len(rows)) if rows[k] != rows[i])
    rows[i], rows[j] = rows[j], rows[i]
    with open(canon_csv, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert "input[:, perm]" in cz.verify(work, out, None)

    bd = Bounds("self-test-bounds", [250, 2000, 10000])
    rc, out, _ = call(cli, bd.argv(work))
    assert rc == 0 and bd.verify(work, out, None) is None
    assert bd.verify(work, out.replace("2.0e+59", "1.9e+59"), None) is not None
    items = json.loads(out)
    cell = next(item for item in items if item["n"] == 10000)
    mant, exp = oracles.parse_sci(cell["value"])
    cell["value"] = f"{mant:.1f}e{exp + 1:+d}"
    assert bd.verify(work, json.dumps(items), None) is not None
    items = json.loads(out)
    items[0]["exact"] += 10 * items[0]["exact"]
    assert bd.verify(work, json.dumps(items), None) is not None
    del items[0]["exact"]
    assert bd.verify(work, json.dumps(items), None) is not None


def main(cli) -> int:
    rng = np.random.default_rng(0)
    (HERE / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work")
    failed = 0
    try:
        for name, fn in (("references match brute force and hilbert.encode",
                          lambda: check_references(rng)),
                         ("wrong, failing and crashing jobs count as failed",
                          lambda: check_failure_counting(cli, work)),
                         ("workload checks reject corrupted outputs",
                          lambda: check_workload_checks(cli, work, rng))):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0
