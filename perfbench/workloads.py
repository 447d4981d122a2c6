"""The benchmark's workloads: one CLI job each, its inputs and its check.

Every workload builds its inputs from the seed through the public `gen`
command (plus `write_manifest` for the normalization line), gives the
program only those files, and names its unit of problem size. `verify`
checks one output against the independent reference in `oracles`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import oracles


def _gen(cli, out: str, clusters: int, per_cluster: int, n: int, seed: int) -> None:
    argv = ["gen", "--clusters", str(clusters), "--per-cluster", str(per_cluster),
            "--d", "3", "--n", str(n), "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"input generation failed: {argv}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    name = ""
    unit = ""
    units_per_job = 0
    pairs = 0  # test x train pairs a coverage job must resolve

    def generate(self, cli, work: str, seed: int) -> None:
        """Write the job's input files under `work`."""

    def argv(self, work: str) -> list[str]:
        raise NotImplementedError

    def reference(self, work: str):
        """Expected answer, computed without the code under test."""
        return None

    def output_key(self, work: str, stdout: str) -> str:
        """Everything the job produced; equal keys mean equal outputs."""
        return stdout

    def verify(self, work: str, stdout: str, expected) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError


class Coverage(Workload):
    """`coverage` over a train/test split that shares cluster centers:
    one `gen` call, its first n_train clouds as train, the rest as test
    (item i has label i mod clusters, so every label is in both)."""

    def __init__(self, name: str, metric: str, n_train: int, n_test: int,
                 n_points: int, sample_n: int | None = None, canon: str | None = None,
                 same_label: bool = False, clusters: int = 3):
        self.name, self.metric, self.canon = name, metric, canon
        self.n_train, self.n_test, self.clusters = n_train, n_test, clusters
        self.n_points, self.sample_n, self.same_label = n_points, sample_n, same_label
        self.unit = "pairs"
        labels = [i % clusters for i in range(n_train + n_test)]
        train, test = labels[:n_train], labels[n_train:]
        self.units_per_job = self.pairs = (
            sum(train.count(t) for t in test) if same_label else n_train * n_test)

    def generate(self, cli, work, seed):
        from canoncover.cloudio import write_manifest

        total = self.n_train + self.n_test
        _gen(cli, os.path.join(work, "all.jsonl"), self.clusters,
             total // self.clusters, self.n_points, seed)
        with open(os.path.join(work, "all.jsonl"), encoding="utf-8") as fh:
            entries = [(obj["path"], obj["label"]) for obj in map(json.loads, fh)]
        norm = None if self.sample_n is None else {"sample_n": self.sample_n}
        write_manifest(os.path.join(work, "train.jsonl"), entries[:self.n_train], norm)
        write_manifest(os.path.join(work, "test.jsonl"), entries[self.n_train:], norm)

    def argv(self, work):
        argv = ["coverage", "--train", os.path.join(work, "train.jsonl"),
                "--test", os.path.join(work, "test.jsonl"),
                "--metric", self.metric, "--seed", "0", "--threads", "1"]
        if self.canon:
            argv += ["--canon", self.canon]
        if self.same_label:
            argv.append("--same-label")
        return argv

    def _load(self, work, manifest, rng):
        clouds, labels = [], []
        with open(os.path.join(work, manifest), encoding="utf-8") as fh:
            for obj in map(json.loads, fh):
                if "path" not in obj:
                    continue
                coords = oracles.load_csv(os.path.join(work, obj["path"]))
                if self.sample_n is not None:
                    coords = oracles.normalize(coords, self.sample_n, rng)
                clouds.append(coords)
                labels.append(obj["label"])
        return clouds, labels

    def reference(self, work):
        # Mirrors `--seed 0`: one rng, drawn for train items then test
        # items. Canonization only permutes columns, which the
        # permutation quotients ignore, so the raw clouds give the answer.
        rng = np.random.default_rng(0)
        train, train_labels = self._load(work, "train.jsonl", rng)
        test, test_labels = self._load(work, "test.jsonl", rng)
        dist = oracles.perm_sum if self.metric == "perm-sum" else oracles.perm_bottleneck
        q = []
        for t, t_label in zip(test, test_labels):
            q.append(min(dist(t, c) for c, c_label in zip(train, train_labels)
                         if not self.same_label or c_label == t_label))
        return np.array(q)

    def verify(self, work, stdout, expected):
        report = json.loads(stdout)
        q = np.array(report["q"], dtype=float)
        if q.shape != expected.shape:
            return f"q has {q.size} entries, expected {expected.size}"
        if self.metric == "perm-sum":
            ok = np.allclose(q, expected, rtol=1e-9, atol=1e-9)
        else:
            ok = np.array_equal(q, expected)
        if not ok:
            worst = int(np.argmax(np.abs(q - expected)))
            return f"q[{worst}] = {q[worst]!r}, reference {expected[worst]!r}"
        if not np.isclose(report["max_coverage"], expected.max(), rtol=1e-9, atol=1e-9):
            return "max_coverage disagrees with the reference"
        if not np.isclose(report["mean_coverage"], expected.mean(), rtol=1e-9, atol=1e-9):
            return "mean_coverage disagrees with the reference"
        return None


class Canonize(Workload):
    """`canonize --method hilbert:<m>` on one large cloud."""

    def __init__(self, name: str, n_points: int, m: int):
        self.name, self.n_points, self.m = name, n_points, m
        self.unit = "points"
        self.units_per_job = n_points

    def _paths(self, work):
        src = os.path.join(work, "cloud_0000.csv")
        out = os.path.join(work, "canon.csv")
        return src, out, out + ".group.json"

    def generate(self, cli, work, seed):
        _gen(cli, os.path.join(work, "one.jsonl"), 1, 1, self.n_points, seed)

    def argv(self, work):
        src, out, _ = self._paths(work)
        return ["canonize", src, out, "--method", f"hilbert:{self.m}"]

    def output_key(self, work, stdout):
        _, out, sidecar = self._paths(work)
        return "\n".join([stdout, _digest(out), _digest(sidecar)])

    def verify(self, work, stdout, expected):
        src, out, sidecar = self._paths(work)
        with open(sidecar, encoding="utf-8") as fh:
            perm = np.array(json.load(fh)["perm"])
        if perm.shape != (self.n_points,) or not np.array_equal(
                np.sort(perm), np.arange(self.n_points)):
            return "sidecar perm is not a permutation of range(n)"
        before, after = oracles.load_csv(src), oracles.load_csv(out)
        # Both files carry the CSV's decimal precision; compare at it.
        if after.shape != before.shape or not np.allclose(
                after, before[:, perm], rtol=1e-11, atol=1e-12):
            return "output is not input[:, perm]"
        idx = oracles.hilbert_indices(after, self.m)
        if (idx[1:] < idx[:-1]).any():
            return "output columns are not in Hilbert-index order"
        return None


class Bounds(Workload):
    """`bounds --format json` over a list of n."""

    def __init__(self, name: str, n_list: list[int]):
        self.name, self.n_list = name, n_list
        self.unit = "cells"
        self.units_per_job = 4 * len(n_list)

    def argv(self, work):
        return ["bounds", "--n", ",".join(map(str, self.n_list)), "--format", "json"]

    def verify(self, work, stdout, expected):
        return oracles.check_bounds_cells(json.loads(stdout), self.n_list)


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    w.name: w for w in (
        Coverage("coverage-sum", "perm-sum", n_train=120, n_test=30, n_points=48,
                 sample_n=32, canon="hilbert:8"),
        Coverage("coverage-bottleneck", "perm-bottleneck", n_train=36, n_test=18,
                 n_points=16, same_label=True),
        Canonize("canonize-large", n_points=20000, m=10),
        Bounds("bounds-large", [250, 500, 750, 1000, 2000, 10000, 50000]),
    )
}
