"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import canoncover
from canoncover import cli, verify
from canoncover.cli import main
from canoncover.cloudio import format_number, read_cloud, write_cloud, write_manifest
from canoncover.data import apply_canon
from canoncover.metrics import parse_metric
from conftest import run_python


def _write(tmp_path, name, coords):
    path = tmp_path / name
    write_cloud(path, np.asarray(coords, dtype=float))
    return str(path)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _make_manifests(tmp_path, seed=0):
    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    train_dir.mkdir()
    test_dir.mkdir()
    rng = np.random.default_rng(seed)
    for d, count in ((train_dir, 6), (test_dir, 3)):
        entries = []
        for i in range(count):
            name = f"c{i}.csv"
            write_cloud(d / name, rng.random((2, 5)))
            entries.append((name, i % 2))
        write_manifest(d / "set.jsonl", entries)
    return str(train_dir / "set.jsonl"), str(test_dir / "set.jsonl")


class TestCanonize:
    def test_sort_vector(self, tmp_path, capsys):
        src = _write(tmp_path, "in.csv", [[3.0], [1.0], [2.0]])
        out = str(tmp_path / "out.csv")
        assert main(["canonize", src, out, "--method", "sort"]) == 0
        assert "wrote" in capsys.readouterr().out
        np.testing.assert_array_equal(read_cloud(out), [[1.0], [2.0], [3.0]])

    def test_sidecar_record(self, tmp_path, capsys):
        src = _write(tmp_path, "in.csv", np.random.default_rng(1).random((2, 6)))
        out = str(tmp_path / "out.csv")
        assert main(["canonize", src, out, "--method", "lexsort"]) == 0
        with open(out + ".group.json", encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["method"] == "lexsort"
        assert record["input"] == src and record["output"] == out
        assert sorted(record["perm"]) == list(range(6))
        replay = read_cloud(src)[:, record["perm"]]
        np.testing.assert_array_equal(read_cloud(out), replay)

    def test_output_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("0.5,0.25\n0.125,0.75\n1,0\n")
        assert main(["canonize", "in.csv", "out.csv", "--method", "lexsort"]) == 0
        assert _read_bytes("out.csv") == b"0.125,0.75\n0.5,0.25\n1,0\n"
        assert _read_bytes("out.csv.group.json") == (
            b'{\n  "input": "in.csv",\n  "method": "lexsort",\n  "output": "out.csv",\n'
            b'  "perm": [\n    1,\n    0,\n    2\n  ]\n}\n')

    @pytest.mark.parametrize("method", ["sort", "lexsort", "hilbert:6", "centralize",
                                        "pca-skew"])
    def test_sidecar_bytes_match_indented_json(self, method, tmp_path, capsys):
        # The sidecar writer against the standard library's indented
        # encoder, on the record apply_canon returns. pca-skew nests its
        # d x d frame; n = 1 gives one-entry perms (pca-skew has no axes
        # there, and sort needs a vector). The paths hold what json.dumps
        # must escape in the head the perm is streamed after: a quote, a
        # backslash, a newline, a non-ASCII letter, and the perm key's text.
        rng = np.random.default_rng(17)
        for d, n in ((1, 1), (1, 9), (3, 1), (3, 9)):
            coords = rng.random((d, n))
            if (method == "sort" and 1 not in (d, n)) or (method == "pca-skew" and n == 1):
                continue
            for name in ["in", 'q"uote', "back\\slash", "new\nline", "\u00e9t\u00e9",
                         '"perm": [']:
                src = _write(tmp_path, f"{name}_{d}_{n}.csv", coords)
                out = str(tmp_path / f"{name}_{d}_{n}.out.csv")
                assert main(["canonize", src, out, "--method", method]) == 0
                record = {"input": src, "output": out,
                          **apply_canon(read_cloud(src), method)[1]}
                expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
                assert _read_bytes(out + ".group.json") == expected.encode(), (d, n, name)

    @pytest.mark.parametrize("n", [0, 1, 2, cli._SIDECAR_BLOCK - 1, cli._SIDECAR_BLOCK,
                                   cli._SIDECAR_BLOCK + 1, 2 * cli._SIDECAR_BLOCK + 3])
    def test_sidecar_json_blocks_match_indented_json(self, n, tmp_path):
        # The streamed perm on either side of each block edge, for both
        # methods that record one.
        perm = np.random.default_rng(n).permutation(n).tolist()
        for method in ("lexsort", "hilbert:10"):
            record = {"input": "a.csv", "method": method, "output": "b.csv", "perm": perm}
            path = tmp_path / "b.csv.group.json"
            cli._write_sidecar(str(path), record)
            expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
            assert _read_bytes(path) == expected.encode(), method

    def test_sidecar_json_other_values_match_indented_json(self, tmp_path):
        # pca-skew nests its d x d frame and has no perm: one json.dumps call.
        record = {"input": "a.csv", "output": "b.csv",
                  **apply_canon(np.random.default_rng(3).random((3, 40)), "pca-skew")[1]}
        path = tmp_path / "b.csv.group.json"
        cli._write_sidecar(str(path), record)
        expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
        assert _read_bytes(path) == expected.encode()

    def test_sidecar_json_peak_memory(self, tmp_path):
        # A 200000-entry perm: streaming one block at a time stays under a
        # quarter of the text; building the text whole does not.
        perm = np.random.default_rng(9).permutation(200_000).tolist()
        record = {"input": "a.csv", "method": "hilbert:10", "output": "b.csv", "perm": perm}
        path = str(tmp_path / "b.csv.group.json")
        cli._write_sidecar(path, record)
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            cli._write_sidecar(path, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * size

    def test_idempotent_and_permutation_invariant(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        X = rng.random((3, 10))
        src = _write(tmp_path, "a.csv", X)
        src_perm = _write(tmp_path, "b.csv", X[:, rng.permutation(10)])
        outs = [str(tmp_path / f"o{i}.csv") for i in range(3)]
        assert main(["canonize", src, outs[0], "--method", "hilbert:5"]) == 0
        assert main(["canonize", outs[0], outs[1], "--method", "hilbert:5"]) == 0
        assert main(["canonize", src_perm, outs[2], "--method", "hilbert:5"]) == 0
        first = _read_bytes(outs[0])
        assert _read_bytes(outs[1]) == first
        assert _read_bytes(outs[2]) == first

    def test_unknown_method_exits_1(self, tmp_path, capsys):
        src = _write(tmp_path, "in.csv", [[1.0, 2.0]])
        assert main(["canonize", src, str(tmp_path / "o.csv"),
                     "--method", "spin"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_hilbert_order_exits_1(self, tmp_path, capsys):
        src = _write(tmp_path, "in.csv", [[0.1, 0.2]])
        assert main(["canonize", src, str(tmp_path / "o.csv"),
                     "--method", "hilbert:x"]) == 1
        assert capsys.readouterr().err == (
            "error: hilbert order must be an integer, got 'x'\n")

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["canonize", str(tmp_path / "absent.csv"),
                     str(tmp_path / "o.csv"), "--method", "sort"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDist:
    def test_identical_is_zero(self, tmp_path, capsys):
        a = _write(tmp_path, "a.csv", [[0.1, 0.9], [0.4, 0.2]])
        assert main(["dist", a, a, "--metric", "inf"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_permuted_quotient_zero(self, tmp_path, capsys):
        X = np.random.default_rng(3).random((2, 7))
        a = _write(tmp_path, "a.csv", X)
        b = _write(tmp_path, "b.csv", X[:, ::-1])
        assert main(["dist", a, b, "--metric", "perm-sum"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-12)

    def test_matches_library_value(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X, Y = rng.random((3, 6)), rng.random((3, 6))
        a, b = _write(tmp_path, "a.csv", X), _write(tmp_path, "b.csv", Y)
        assert main(["dist", a, b, "--metric", "perm-bottleneck"]) == 0
        printed = capsys.readouterr().out.strip()
        # The CLI sees 12-digit coordinates, so feed the metric the same.
        expect = parse_metric("perm-bottleneck")(read_cloud(a), read_cloud(b))
        assert printed == format_number(expect)

    def test_unknown_metric_exits_1(self, tmp_path, capsys):
        a = _write(tmp_path, "a.csv", [[1.0]])
        assert main(["dist", a, a, "--metric", "cosine"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["inf", "perm-sum", "perm-bottleneck"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, metric):
        a = tmp_path / "a.csv"
        a.write_text("0.1,nan\n0.4,0.2\n")
        b = _write(tmp_path, "b.csv", [[0.1, 0.9], [0.4, 0.2]])
        assert main(["dist", str(a), b, "--metric", metric]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "non-finite" in captured.err

    @pytest.mark.parametrize("base", ["inf", "frobenius"])
    def test_rowwise_sign_quotient_past_d_20(self, tmp_path, capsys, base):
        rng = np.random.default_rng(21)
        a = _write(tmp_path, "a.csv", rng.random((21, 4)))
        b = _write(tmp_path, "b.csv", rng.random((21, 4)))
        assert main(["dist", a, b, "--metric", f"sign:{base}"]) == 0
        expect = parse_metric(f"sign:{base}")(read_cloud(a), read_cloud(b))
        assert capsys.readouterr().out == format_number(expect) + "\n"
        assert main(["dist", a, b, "--metric", "sign:mean-euclidean"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "d <= 20" in captured.err


class TestCoverage:
    def test_report_and_determinism(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        args = ["coverage", "--train", train, "--test", test,
                "--metric", "perm-sum", "--seed", "3"]
        assert main(args + ["--output", out1]) == 0
        assert main(args + ["--output", out2]) == 0
        assert _read_bytes(out1) == _read_bytes(out2)
        payload = _load_json(out1)
        assert payload["metric"] == "perm-sum"
        assert payload["seed"] == 3 and payload["canon"] is None
        assert len(payload["q"]) == 3
        assert payload["max_coverage"] == max(payload["q"])

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path)
        args = ["coverage", "--train", train, "--test", test,
                "--metric", "perm-bottleneck"]
        outs = [str(tmp_path / f"t{i}.json") for i in range(2)]
        assert main(args + ["--output", outs[0], "--threads", "1"]) == 0
        assert main(args + ["--output", outs[1], "--threads", "4"]) == 0
        assert _read_bytes(outs[0]) == _read_bytes(outs[1])

    def test_bad_threads_flag_exits_1(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path)
        args = ["coverage", "--train", train, "--test", test, "--metric", "inf"]
        assert main(args + ["--threads", "auto"]) == 0
        for bad in ("0", "x"):
            with pytest.raises(SystemExit) as exc:
                main(args + ["--threads", bad])
            assert exc.value.code == 1

    def test_threads_env_var_is_ignored(self, tmp_path, capsys, monkeypatch):
        train, test = _make_manifests(tmp_path)
        args = ["coverage", "--train", train, "--test", test, "--metric", "inf"]
        monkeypatch.delenv("CANONCOVER_THREADS", raising=False)
        assert main(args) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("CANONCOVER_THREADS", "bogus")
        assert main(args) == 0
        assert capsys.readouterr() == unset

    def test_canonized_dominates_quotient(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path, seed=11)
        quotient_out = str(tmp_path / "q.json")
        canon_out = str(tmp_path / "c.json")
        base = ["coverage", "--train", train, "--test", test]
        assert main(base + ["--metric", "perm-sum",
                            "--output", quotient_out]) == 0
        assert main(base + ["--metric", "mean-euclidean", "--canon", "lexsort",
                            "--output", canon_out]) == 0
        q = _load_json(quotient_out)["q"]
        c = _load_json(canon_out)["q"]
        assert all(a <= b + 1e-9 for a, b in zip(q, c))

    def test_same_label_missing_exits_1(self, tmp_path, capsys):
        train_dir = tmp_path / "tr"
        train_dir.mkdir()
        write_cloud(train_dir / "c0.csv", np.ones((1, 2)))
        write_manifest(train_dir / "set.jsonl", [("c0.csv", 0)])
        test_dir = tmp_path / "te"
        test_dir.mkdir()
        write_cloud(test_dir / "c0.csv", np.zeros((1, 2)))
        write_manifest(test_dir / "set.jsonl", [("c0.csv", 5)])
        assert main(["coverage", "--train", str(train_dir / "set.jsonl"),
                     "--test", str(test_dir / "set.jsonl"),
                     "--metric", "inf", "--same-label"]) == 1
        assert "label" in capsys.readouterr().err

    def test_empty_test_set_exits_1(self, tmp_path, capsys):
        train, _ = _make_manifests(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for canon in ([], ["--canon", "hilbert:4"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["coverage", "--train", train, "--test", str(empty),
                             "--metric", "perm-sum", *canon]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: test set is empty\n"
            assert captured.out == ""

    @pytest.mark.parametrize("label", ["[1, 2]", '"x"', "2.5", "true"])
    def test_bad_manifest_label_exits_1(self, tmp_path, capsys, label):
        train, test = _make_manifests(tmp_path)
        with open(train, "a", encoding="utf-8") as fh:
            fh.write('{"path": "c0.csv", "label": %s}\n' % label)
        assert main(["coverage", "--train", train, "--test", test,
                     "--metric", "inf", "--same-label"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {train}:7: label must be a non-negative "
                                f"integer or null, got {json.loads(label)!r}\n")
        assert captured.out == ""

    def test_unknown_manifest_key_exits_1(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path)
        with open(train, "a", encoding="utf-8") as fh:
            fh.write('{"path": "c0.csv", "lable": 1}\n')
        assert main(["coverage", "--train", train, "--test", test, "--metric", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {train}:7: unknown entry key 'lable'; "
                                "allowed: path, label\n")
        assert captured.out == ""

    def test_second_normalization_line_exits_1(self, tmp_path, capsys):
        train, test = _make_manifests(tmp_path)
        with open(train, "a", encoding="utf-8") as fh:
            fh.write('{"normalization": {"sample_n": 3}}\n{"normalization": {"sample_n": 4}}\n')
        assert main(["coverage", "--train", train, "--test", test, "--metric", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {train}:8: a second normalization line; "
                                "the first is line 7\n")
        assert captured.out == ""

    @pytest.mark.parametrize("metric", ["perm-sum", "perm-bottleneck"])
    def test_mixed_shape_manifests_exit_1(self, tmp_path, capsys, metric):
        rng = np.random.default_rng(0)
        manifests = []
        for name, n in (("train", 5), ("test", 6)):
            folder = tmp_path / name
            folder.mkdir()
            for i in range(3):
                write_cloud(folder / f"c{i}.csv", rng.random((3, n)))
            write_manifest(folder / "set.jsonl", [(f"c{i}.csv", 0) for i in range(3)])
            manifests.append(str(folder / "set.jsonl"))
        assert main(["coverage", "--train", manifests[0], "--test", manifests[1],
                     "--metric", metric]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: shape mismatch: (3, 6) vs (3, 5)\n"
        assert captured.out == ""


class TestBounds:
    REFERENCE_ROWS = {
        "250": ["2.1e+36", "5.3e+193", "1.1e+239", "6.9e+357"],
        "500": ["7.4e+43", "7.9e+278", "4.0e+477", "4.8e+715"],
        "750": ["2.2e+48", "5.0e+336", "1.4e+716", "3.3e+1073"],
        "1000": ["3.5e+51", "5.0e+380", "5.2e+954", "2.3e+1431"],
        "2000": ["2.0e+59", "4.4e+494", "9.2e+1908", "5.3e+2862"],
    }

    def test_default_text_table(self, capsys):
        assert main(["bounds"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["n", "quotient-upper", "hilbert-upper",
                                    "lexsort-lower", "hypercube-exact"]
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split()
            assert cells[1:] == self.REFERENCE_ROWS[cells[0]]

    def test_csv_format(self, capsys):
        assert main(["bounds", "--n", "250", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,quotient-upper,hilbert-upper,lexsort-lower,hypercube-exact"
        assert lines[1] == "250," + ",".join(self.REFERENCE_ROWS["250"])

    def test_json_exact_presence(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        assert main(["bounds", "--n", "250,4000", "--output", out,
                     "--format", "json"]) == 0
        items = {(i["formula"], i["n"]): i
                 for i in _load_json(out)}
        assert items[("quotient-upper", 250)]["value"] == "2.1e+36"
        assert "exact" in items[("quotient-upper", 250)]
        assert "exact" in items[("hypercube-exact", 250)]  # 358 digits
        assert "exact" not in items[("hypercube-exact", 4000)]  # 5726 digits
        big = items[("hypercube-exact", 4000)]
        assert abs(big["log10"] - 4000 * 3 * np.log10(3)) < 1e-6

    def test_json_exact_cutoff_is_4096_digits(self, capsys):
        assert main(["bounds", "--n", "2861,2862", "--format", "json"]) == 0
        items = {(i["formula"], i["n"]): i
                 for i in json.loads(capsys.readouterr().out)}
        assert len(str(items[("hypercube-exact", 2861)]["exact"])) == 4096
        assert "exact" not in items[("hypercube-exact", 2862)]  # 4097 digits

    def test_json_exact_cutoff_does_not_trust_log10(self, capsys):
        # These values have 11,000 to 22,000 digits: past the 4096-digit
        # cutoff, so JSON carries no exact integer, and each log10 field
        # must agree with its printed value.
        for d in ("8", "12"):
            assert main(["bounds", "--n", "1000", "--d", d, "--eps", "1/100",
                         "--format", "json"]) == 0
            items = json.loads(capsys.readouterr().out)
            assert len(items) == 4 and not any("exact" in i for i in items)
            for item in items:
                mantissa, exponent = item["value"].split("e")
                assert math.floor(item["log10"]) == int(exponent), item
                assert abs(math.log10(float(mantissa)) + int(exponent)
                           - item["log10"]) <= 0.05, item
        assert [i["value"] for i in items[:2]] == ["1.1e+17820", "2.1e+21994"]

    @staticmethod
    def _closed_form(formula: str, n: int, d: int, k: int) -> int:
        """The four bounds at eps = 1/(2k) and grid order 10, from the
        formulas themselves."""
        if formula == "quotient-upper":
            return math.comb(n + k ** d - 1, n)
        if formula == "hilbert-upper":
            delta = (Fraction(1, 2 * k) - Fraction(1, 2 ** 11)) ** d / 4
            return math.comb(n + math.ceil(1 / (2 * delta)) - 1, n)
        if formula == "lexsort-lower":
            return k ** ((d - 1) * n + 1)
        return k ** (n * d)

    @pytest.mark.parametrize("n_arg,d,k,edge", [
        # 2**13606 has 4096 digits and 2**13608 has 4097.
        ("6803,6804", 2, 2, (6803, 6804)),
        # 10**4095 has 4096 digits and 10**4100 has 4101.
        ("819,820", 5, 10, (819, 820)),
    ])
    def test_json_exact_cutoff_edges(self, capsys, n_arg, d, k, edge):
        assert main(["bounds", "--n", n_arg, "--d", str(d), "--eps", f"1/{2 * k}",
                     "--format", "json"]) == 0
        items = json.loads(capsys.readouterr().out)
        assert len(items) == 8
        for item in items:
            x = self._closed_form(item["formula"], item["n"], d, k)
            if x < 10 ** 4096:
                assert item["exact"] == x, (item["formula"], item["n"])
            else:
                assert "exact" not in item, (item["formula"], item["n"])
        cube = {i["n"]: i for i in items if i["formula"] == "hypercube-exact"}
        assert "exact" in cube[edge[0]] and "exact" not in cube[edge[1]]

    def test_huge_n_row(self, capsys):
        # Frozen from the implementation that built every integer, where
        # this command took 38-43 s on a 2-vCPU VM.
        assert main(["bounds", "--n", "10000000", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["10000000", "2.5e+155", "2.9e+2084",
                                    "3.7e+9542425", "4.4e+14313637"]

    def test_huge_curve_order_prints_what_a_moderate_one_does(self, capsys):
        # K stops changing past a small order, which bounds the work; built
        # at the full order, m = 10^7 took seconds and 10^8 over a minute.
        assert main(["bounds", "--n", "250", "--m", "64"]) == 0
        expected = capsys.readouterr()
        start = time.perf_counter()
        assert main(["bounds", "--n", "250", "--m", "1000000000"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr() == expected
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_limit_order(self, capsys):
        assert main(["bounds", "--n", "250", "--m", "limit",
                     "--format", "csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[2] == "8.5e+192"

    def test_custom_eps_and_errors(self, capsys):
        assert main(["bounds", "--n", "4", "--d", "2", "--eps", "1/4",
                     "--format", "csv"]) == 0
        capsys.readouterr()
        assert main(["bounds", "--eps", "0.3"]) == 1  # lexsort needs 1/(2k)
        assert "error:" in capsys.readouterr().err
        assert main(["bounds", "--n", ""]) == 1
        assert main(["bounds", "--m", "1"]) == 1  # eps=1/6 <= 2^-2

    @pytest.mark.parametrize("raw", ["1/0", "nan", "inf", "0.1.2"])
    def test_unparsable_eps_exits_1(self, raw, capsys):
        assert main(["bounds", "--eps", raw]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: epsilon must be an exact ratio such as 1/6 "
                                f"or 0.25, got '{raw}'\n")
        assert captured.out == ""

    def test_non_integer_curve_order_exits_1(self, capsys):
        assert main(["bounds", "--m", "x"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: curve order must be an integer or 'limit', got 'x'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("raw", ["abc", "1.5"])
    def test_non_integer_n_exits_1(self, raw, capsys):
        assert main(["bounds", "--n", raw]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: n must be a comma-separated list of integers, "
                                f"got '{raw}'\n")
        assert captured.out == ""


class TestGen:
    def test_generates_manifest_and_clouds(self, tmp_path, capsys):
        out = str(tmp_path / "ds" / "set.jsonl")
        assert main(["gen", "--clusters", "3", "--per-cluster", "4",
                     "--d", "2", "--n", "6", "--seed", "1", "--out", out]) == 0
        assert "wrote 12 clouds" in capsys.readouterr().out
        files = sorted(os.listdir(tmp_path / "ds"))
        assert files == [f"cloud_{i:04d}.csv" for i in range(12)] + ["set.jsonl"]
        X = read_cloud(tmp_path / "ds" / "cloud_0000.csv")
        assert X.shape == (2, 6)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_deterministic_across_directories(self, tmp_path, capsys):
        outs = []
        for sub in ("one", "two"):
            out = str(tmp_path / sub / "set.jsonl")
            assert main(["gen", "--clusters", "2", "--per-cluster", "2",
                         "--seed", "9", "--out", out]) == 0
            outs.append(tmp_path / sub)
        for name in ("cloud_0000.csv", "cloud_0003.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("sizes", [
        ["--clusters", "0"],
        ["--per-cluster", "0"],
        ["--clusters", "-2", "--per-cluster", "-3"],
        ["--d", "0"],
        ["--n", "0"],
    ], ids=["clusters-0", "per-cluster-0", "both-negative", "d-0", "n-0"])
    def test_bad_sizes_exit_1(self, tmp_path, capsys, sizes):
        assert main(["gen", "--clusters", "2", "--per-cluster", "2", *sizes,
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert capsys.readouterr().err == "error: sizes must be positive\n"
        assert os.listdir(tmp_path) == []  # no manifest, no cloud file

    def test_negative_spread_exits_1(self, tmp_path, capsys):
        assert main(["gen", "--clusters", "1", "--per-cluster", "2", "--spread", "-1",
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert capsys.readouterr().err == "error: spread must be non-negative\n"
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("spread", ["inf", "nan"])
    def test_non_finite_spread_exits_1(self, tmp_path, capsys, spread):
        assert main(["gen", "--clusters", "1", "--per-cluster", "2", "--spread", spread,
                     "--out", str(tmp_path / "x.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: spread must be finite, got {spread}\n"
        assert not (tmp_path / "x.jsonl").exists()


class TestVerify:
    @pytest.mark.parametrize("suite", list(verify.SUITES))
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS") and "FAIL" not in out

    def test_json_format(self, capsys):
        assert main(["verify", "--suite", "poor-c1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] for entry in payload)

    def test_failing_check_exits_2(self, capsys, monkeypatch):
        def broken(rng):
            raise AssertionError("deliberately broken")
        monkeypatch.setitem(verify.SUITES, "canon",
                            [("known-bad check", broken)])
        assert main(["verify", "--suite", "canon"]) == 2
        out = capsys.readouterr().out
        assert "FAIL known-bad check: deliberately broken" in out

    def test_raising_check_is_a_fail_line(self, capsys, monkeypatch):
        def crashes(rng):
            raise IndexError("index 9 is out of bounds")
        monkeypatch.setitem(verify.SUITES, "canon",
                            [("crashing check", crashes), ("fine check", lambda rng: None)])
        assert main(["verify", "--suite", "canon"]) == 2
        assert capsys.readouterr().out == ("FAIL crashing check: IndexError: index 9 is "
                                           "out of bounds\nPASS fine check\n")

    def test_unknown_suite_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err


class TestParsing:
    def test_no_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--zap"])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "canoncover.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("canonize", "dist", "coverage", "bounds", "gen", "verify"):
            assert name in proc.stdout

    def test_parser_is_built_once(self, monkeypatch, capsys):
        cli._parser.cache_clear()
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        try:
            assert main(["bounds", "--n", "10"]) == 0
            with pytest.raises(SystemExit):
                main(["bounds", "--zap"])
            assert main(["bounds", "--n", "20", "--format", "csv"]) == 0
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()

    def test_reused_parser_output_matches_fresh_process(self, tmp_path, capsys):
        # One process runs a good job, a parse error and another job on one
        # parser; each must print what a fresh process prints.
        train, test = _make_manifests(tmp_path)
        jobs = [["bounds", "--n", "250,500", "--format", "json"],
                ["coverage", "--train", train, "--metric"],
                ["coverage", "--train", train, "--test", test,
                 "--metric", "perm-sum", "--canon", "hilbert:4"]]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(canoncover.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for argv, code in zip(jobs, (0, 1, 0)):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "canoncover.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert rc == code, argv


# Runs in a fresh interpreter: the jobs that need no permutation quotient
# must leave scipy unimported, and the first perm-sum job must load it.
_IMPORT_PROBE = """
import sys

import canoncover
import canoncover.cli

a, b, work = sys.argv[1:]
jobs = [["bounds", "--n", "10,20"],
        ["gen", "--clusters", "2", "--per-cluster", "3", "--d", "2", "--n", "6",
         "--out", work + "/set.jsonl"],
        ["canonize", a, work + "/out.csv", "--method", "hilbert:4"],
        ["dist", a, b, "--metric", "inf"],
        ["coverage", "--train", work + "/set.jsonl", "--test", work + "/set.jsonl",
         "--metric", "frobenius", "--canon", "hilbert:4"]]
for argv in jobs:
    assert canoncover.cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, [m for m in sys.modules if m.startswith("scipy.")][:5]
assert canoncover.cli.main(["dist", a, b, "--metric", "perm-sum"]) == 0
assert "scipy.optimize" in sys.modules and "scipy.spatial.distance" in sys.modules
"""

# `bounds` in every format and every `--help` load neither numpy nor scipy,
# nor `dataclasses` or the `inspect` it imports; the first numpy job
# (`canonize`) then loads numpy.
_NUMPY_PROBE = """
import contextlib
import io
import sys

import canoncover
import canoncover.cli

work = sys.argv[1]
assert canoncover.SUITE_NAMES[-1] == "all" and canoncover.bounds_table
with contextlib.redirect_stdout(io.StringIO()):
    for fmt in ("text", "csv", "json"):
        assert canoncover.cli.main(["bounds", "--n", "10,2000", "--format", fmt]) == 0
    for command in ([], ["canonize"], ["dist"], ["coverage"], ["bounds"], ["gen"], ["verify"]):
        try:
            canoncover.cli.main([*command, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, command
        else:
            raise AssertionError(command)
loaded = [m for m in sys.modules
          if m.partition(".")[0] in ("numpy", "scipy", "dataclasses", "inspect")]
assert not loaded, loaded[:5]
with open(work + "/a.csv", "w", encoding="utf-8") as fh:
    fh.write("0.5,0.25\\n0.75,0.125\\n")
assert canoncover.cli.main(["canonize", work + "/a.csv", work + "/b.csv",
                            "--method", "hilbert:4"]) == 0
assert "numpy" in sys.modules
"""

# Only `bounds` (and `verify`, which checks the bounds) loads the bound
# calculators.
_NO_BOUNDS_PROBE = """
import sys

import canoncover.cli

work = sys.argv[1]
assert canoncover.cli.main(["canonize", work + "/a.csv", work + "/b.csv",
                            "--method", "hilbert:4"]) == 0
assert "canoncover.bounds" not in sys.modules
assert canoncover.cli.main(["gen", "--clusters", "2", "--per-cluster", "2", "--d", "2",
                            "--n", "4", "--out", work + "/set.jsonl"]) == 0
assert canoncover.cli.main(["dist", work + "/a.csv", work + "/b.csv", "--metric", "inf"]) == 0
assert canoncover.cli.main(["coverage", "--train", work + "/set.jsonl", "--test",
                            work + "/set.jsonl", "--metric", "inf",
                            "--output", work + "/report.json"]) == 0
assert "canoncover.bounds" not in sys.modules
"""


class TestImports:
    def test_bounds_and_help_never_load_numpy(self, tmp_path):
        proc = run_python(_NUMPY_PROBE, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == f"wrote {tmp_path}/b.csv and {tmp_path}/b.csv.group.json\n"

    def test_only_bounds_loads_the_bound_calculators(self, tmp_path):
        _write(tmp_path, "a.csv", np.array([[0.5, 0.75], [0.25, 0.125]]))
        proc = run_python(_NO_BOUNDS_PROBE, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_scipy_loads_only_for_permutation_quotients(self, tmp_path):
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(11)
        a = _write(tmp_path, "a.csv", rng.random((2, 7)))
        b = _write(tmp_path, "b.csv", rng.random((2, 7)))
        proc = run_python(_IMPORT_PROBE, a, b, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        cost = cdist(read_cloud(a).T, read_cloud(b).T)
        rows, cols = linear_sum_assignment(cost)
        expect = cost[rows, cols].sum() / cost.shape[1]
        assert proc.stdout.splitlines()[-1] == format_number(expect)
