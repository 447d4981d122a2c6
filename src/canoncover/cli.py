"""Command-line interface.

Subcommands: canonize, dist, coverage, bounds, gen, verify. Exit codes:
0 success, 1 domain or parse error, 2 verification-suite failure. All
numeric output is decimal at 12 significant digits; bound magnitudes are
rendered as two-significant-figure mantissa/exponent strings, with the
exact integers included in JSON output when they stay at or below 4096
digits. Identical inputs, seed, and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .cloudio import format_number, read_cloud, read_manifest, write_cloud, write_manifest
from .coverage import coverage as run_coverage
from .data import CANON_CHOICES, apply_canon, canonize_dataset, synthetic_dataset
from .metrics import METRIC_CHOICES, parse_metric
from .verify import SUITE_NAMES, run_suite

THREADS_ENV = "CANONCOVER_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this surface reserves 2
    for verification failures, so parse errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _default_threads() -> int:
    try:
        return _parse_threads(os.environ.get(THREADS_ENV, "1"))
    except ValueError as exc:
        raise ValueError(f"bad {THREADS_ENV} value: {exc}") from exc


def _parse_threads(raw: str) -> int:
    if raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    value = int(raw)
    if value < 1:
        raise ValueError(f"thread count must be >= 1, got {value}")
    return value


def _cmd_canonize(args) -> int:
    coords = read_cloud(args.input)
    cloud, record = apply_canon(coords, args.method)
    write_cloud(args.output, cloud)
    record = {"input": args.input, "output": args.output, **record}
    sidecar = args.output + ".group.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.output} and {sidecar}")
    return 0


def _cmd_dist(args) -> int:
    metric = parse_metric(args.metric)
    value = metric(read_cloud(args.file_a), read_cloud(args.file_b))
    print(format_number(value))
    return 0


def _cmd_coverage(args) -> int:
    rng = np.random.default_rng(args.seed)
    train = read_manifest(args.train, rng=rng)
    test = read_manifest(args.test, rng=rng)
    if args.canon:
        train = canonize_dataset(train, args.canon)
        test = canonize_dataset(test, args.canon)
    report = run_coverage(train, test, args.metric,
                          same_label_only=args.same_label, threads=args.threads)
    payload = {
        "canon": args.canon,
        "same_label_only": bool(args.same_label),
        "seed": args.seed,
        **report.to_dict(),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    return 0


def _align_columns(rows) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in rows)


def _cmd_bounds(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError:
        raise ValueError("n must be a comma-separated list of integers, "
                         f"got {args.n!r}") from None
    if not n_list:
        raise ValueError("need at least one n")
    try:
        m = None if args.m.strip().lower() == "limit" else int(args.m)
    except ValueError:
        raise ValueError("curve order must be an integer or 'limit', "
                         f"got {args.m!r}") from None
    entries = bounds_mod.bounds_table(n_list=n_list, d=args.d, eps=args.eps, m=m)
    if args.format in ("text", "csv"):
        by_key = {(e.formula, e.n): bounds_mod.sci_string(e.value) for e in entries}
        rows = [["n", *bounds_mod.TABLE_FORMULAS]]
        rows += [[str(n)] + [by_key[(f, n)] for f in bounds_mod.TABLE_FORMULAS]
                 for n in n_list]
        if args.format == "csv":
            _emit("\n".join(",".join(row) for row in rows), args.output)
        else:
            _emit(_align_columns(rows), args.output)
    else:
        items = []
        for e in entries:
            item = {
                "formula": e.formula,
                "n": e.n,
                "log10": e.value.log10,
                "value": bounds_mod.sci_string(e.value),
            }
            if e.value.exact is not None and bounds_mod.digit_count(e.value.exact) <= 4096:
                item["exact"] = e.value.exact
            items.append(item)
        _emit(json.dumps(items, sort_keys=True, indent=2), args.output)
    return 0


def _cmd_gen(args) -> int:
    if min(args.clusters, args.per_cluster, args.d, args.n) < 1:
        raise ValueError("sizes must be positive")
    ds = synthetic_dataset(args.clusters * args.per_cluster, args.clusters,
                           args.d, args.n, seed=args.seed, spread=args.spread)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, item in enumerate(ds.items):
        name = f"cloud_{i:04d}.csv"
        write_cloud(os.path.join(out_dir, name), item.coords)
        entries.append((name, item.label))
    write_manifest(args.out, entries)
    print(f"wrote {len(entries)} clouds and {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    if args.format == "json":
        payload = [{"check": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results]
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark} {r.name}" + (f": {r.detail}" if r.detail else ""))
        _emit("\n".join(lines), args.output)
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="canoncover",
                     description="Canonizations, quotient metrics, coverage, "
                                 "and covering-number bounds for point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonize", help="canonize a cloud file")
    p.add_argument("input", help="cloud CSV, one point per row")
    p.add_argument("output", help="canonized cloud CSV")
    p.add_argument("--method", required=True,
                   help=f"one of: {', '.join(CANON_CHOICES)}")
    p.set_defaults(func=_cmd_canonize)

    p = sub.add_parser("dist", help="distance between two cloud files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", required=True,
                   help=f"one of: {', '.join(METRIC_CHOICES)}")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("coverage", help="coverage report of train over test")
    p.add_argument("--train", required=True, help="train manifest (JSON lines)")
    p.add_argument("--test", required=True, help="test manifest (JSON lines)")
    p.add_argument("--metric", required=True,
                   help=f"one of: {', '.join(METRIC_CHOICES)}")
    p.add_argument("--same-label", action="store_true",
                   help="match each test item only against same-label train items")
    p.add_argument("--canon", default=None,
                   help="canonize both sets first "
                        f"(one of: {', '.join(CANON_CHOICES)})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_parse_threads, default=None,
                   help=f"worker count or 'auto' (default ${THREADS_ENV} or 1); "
                        "validated but has no effect: the scan is serial")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("bounds", help="covering-number bound table")
    p.add_argument("--n", default="250,500,750,1000,2000",
                   help="comma-separated point counts")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--eps", default="1/6", help="exact ratio, e.g. 1/6 or 0.25")
    p.add_argument("--m", default=str(bounds_mod.DEFAULT_TABLE_M),
                   help="grid order for the Hilbert column, or 'limit'")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="generate a synthetic cluster dataset")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--per-cluster", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=32, help="points per cloud")
    p.add_argument("--spread", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="manifest path to write")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a property-verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", None) is None and args.command == "coverage":
            args.threads = _default_threads()
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
