"""Per-layer spans recorded from outside the program.

A span wraps each call into a layer's public function. Patches go on
every module that looks the name up, not only on the module that
defines it, because `from .x import f` binds a second name that the
caller then uses. Spans stay in memory (name, start, end, parent, job)
and are written out once the run ends. A patch target that no longer
exists marks its span absent; it never stops the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict


def _path_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _exact_digits(entries) -> int:
    """Digits of every exact integer the bound table built."""
    return sum(math.floor(e.value.log10) + 1 for e in entries
               if e.value.exact is not None)


# span name -> (modules/attributes that hold the function, counter, how to
# count). A counter hook sees (args, kwargs, result) after the call.
SPANS = {
    "cloudio.read_manifest": (
        [("canoncover.cli", "read_manifest"), ("canoncover.cloudio", "read_manifest")],
        "cloudio.bytes_read", lambda a, k, r: _path_size(a, k)),
    "cloudio.read_cloud": (
        [("canoncover.cli", "read_cloud"), ("canoncover.cloudio", "read_cloud")],
        "cloudio.bytes_read", lambda a, k, r: _path_size(a, k)),
    "cloudio.write_cloud": (
        [("canoncover.cli", "write_cloud"), ("canoncover.cloudio", "write_cloud")],
        "cloudio.bytes_written", lambda a, k, r: _path_size(a, k)),
    "data.normalize_cloud": (
        [("canoncover.cloudio", "normalize_cloud"), ("canoncover.data", "normalize_cloud")],
        None, None),
    "data.apply_canon": (
        [("canoncover.cli", "apply_canon"), ("canoncover.data", "apply_canon")],
        None, None),
    "data.canonize_dataset": (
        [("canoncover.cli", "canonize_dataset"), ("canoncover.data", "canonize_dataset")],
        None, None),
    "canon.canon_hilbert": ([("canoncover.canon", "canon_hilbert")], None, None),
    "hilbert.cloud_indices": (
        [("canoncover.canon", "cloud_indices"), ("canoncover.hilbert", "cloud_indices")],
        "hilbert.points_indexed", lambda a, k, r: len(r)),
    "coverage.coverage": (
        [("canoncover.cli", "run_coverage"), ("canoncover.coverage", "coverage")],
        None, None),
    "metrics.lsa": ([("canoncover.metrics", "linear_sum_assignment")], None, None),
    "bounds.bounds_table": (
        [("canoncover.bounds", "bounds_table")],
        "bounds.exact_digits", lambda a, k, r: _exact_digits(r)),
    "bounds.sci_string": ([("canoncover.bounds", "sci_string")], None, None),
    "bounds.digit_count": ([("canoncover.bounds", "digit_count")], None, None),
}
# Metric callables are built per call by coverage's `parse_metric`; each
# one it returns is wrapped in this span.
METRIC_SPAN = "metrics.call"
METRIC_SOURCE = ("canoncover.coverage", "parse_metric")
JOB_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                self.counts[counter] += count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        self.absent = []
        for name, (targets, counter, count) in SPANS.items():
            wrapped = {}
            for module, attr in targets:
                try:
                    mod = importlib.import_module(module)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, counter, count)
                self._patch(mod, attr, fn, wrapped[id(fn)])
            if not wrapped:
                self.absent.append(name)
        try:
            mod = importlib.import_module(METRIC_SOURCE[0])
            parse = getattr(mod, METRIC_SOURCE[1])
        except (ImportError, AttributeError):
            self.absent.append(METRIC_SPAN)
            return

        @functools.wraps(parse)
        def traced_parse(spec):
            metric = parse(spec)
            return dataclasses.replace(metric, func=self.wrap(METRIC_SPAN, metric.func))
        self._patch(mod, METRIC_SOURCE[1], parse, traced_parse)

    def _patch(self, mod, attr, original, replacement) -> None:
        setattr(mod, attr, replacement)
        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def run_job(self, job: int, fn):
        """Run one job under a root span."""
        self.job = job
        return self.wrap(JOB_SPAN, fn)()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, self time (total minus
        the time of direct child spans)."""
        calls, total, child = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return calls, total, own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, jobs: int, pairs_per_job: int) -> dict:
    """The per-layer metrics as name -> (value, unit), each per job,
    averaged over `jobs` traced jobs."""
    calls, total, own = tracer.totals()

    def per_job(table, key):
        return table.get(key, 0) / jobs

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    metric_calls = per_job(calls, METRIC_SPAN)
    coverage_calls = per_job(calls, "coverage.coverage")
    points = tracer.counts["hilbert.points_indexed"] / jobs
    pairs = coverage_calls * pairs_per_job
    values = {
        "hilbert.cloud_indices.calls": (per_job(calls, "hilbert.cloud_indices"), "count"),
        "hilbert.cloud_indices.s": (per_job(total, "hilbert.cloud_indices"), "s"),
        "hilbert.points_indexed": (points, "count"),
        "hilbert.us_per_point": (ratio(per_job(total, "hilbert.cloud_indices"), points, 1e6), "us"),
        "canon.canon_hilbert.calls": (per_job(calls, "canon.canon_hilbert"), "count"),
        "canon.canon_hilbert.self_s": (per_job(own, "canon.canon_hilbert"), "s"),
        "metrics.calls": (metric_calls, "count"),
        "metrics.s": (per_job(total, METRIC_SPAN), "s"),
        "metrics.us_per_call": (ratio(per_job(total, METRIC_SPAN), metric_calls, 1e6), "us"),
        "metrics.lsa.calls": (per_job(calls, "metrics.lsa"), "count"),
        "metrics.lsa.s": (per_job(total, "metrics.lsa"), "s"),
        "coverage.coverage.s": (per_job(total, "coverage.coverage"), "s"),
        "coverage.self_s": (per_job(own, "coverage.coverage"), "s"),
        "coverage.pairs": (pairs, "count"),
        "coverage.eval_ratio": (ratio(metric_calls, pairs), "ratio"),
        "data.normalize_cloud.calls": (per_job(calls, "data.normalize_cloud"), "count"),
        "data.normalize_cloud.s": (per_job(total, "data.normalize_cloud"), "s"),
        "data.apply_canon.calls": (per_job(calls, "data.apply_canon"), "count"),
        "data.apply_canon.self_s": (per_job(own, "data.apply_canon"), "s"),
        "data.canonize_dataset.s": (per_job(total, "data.canonize_dataset"), "s"),
        "cloudio.read_manifest.s": (per_job(total, "cloudio.read_manifest"), "s"),
        "cloudio.read_cloud.calls": (per_job(calls, "cloudio.read_cloud"), "count"),
        "cloudio.read_cloud.s": (per_job(total, "cloudio.read_cloud"), "s"),
        "cloudio.write_cloud.calls": (per_job(calls, "cloudio.write_cloud"), "count"),
        "cloudio.write_cloud.s": (per_job(total, "cloudio.write_cloud"), "s"),
        "cloudio.bytes_read": (tracer.counts["cloudio.bytes_read"] / jobs, "B"),
        "cloudio.bytes_written": (tracer.counts["cloudio.bytes_written"] / jobs, "B"),
        "bounds.bounds_table.s": (per_job(total, "bounds.bounds_table"), "s"),
        "bounds.sci_string.calls": (per_job(calls, "bounds.sci_string"), "count"),
        "bounds.sci_string.s": (per_job(total, "bounds.sci_string"), "s"),
        "bounds.digit_count.calls": (per_job(calls, "bounds.digit_count"), "count"),
        "bounds.digit_count.s": (per_job(total, "bounds.digit_count"), "s"),
        "bounds.exact_digits": (tracer.counts["bounds.exact_digits"] / jobs, "count"),
        "cli.self_s": (per_job(own, JOB_SPAN), "s"),
    }
    return values
