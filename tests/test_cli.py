"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from canoncover import verify
from canoncover.cli import THREADS_ENV, main
from canoncover.cloudio import format_number, read_cloud, write_cloud, write_manifest
from canoncover.metrics import parse_metric


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

    def test_threads_env_var(self, tmp_path, capsys, monkeypatch):
        train, test = _make_manifests(tmp_path)
        out = str(tmp_path / "env.json")
        monkeypatch.setenv(THREADS_ENV, "2")
        assert main(["coverage", "--train", train, "--test", test,
                     "--metric", "inf", "--output", out]) == 0
        monkeypatch.setenv(THREADS_ENV, "bogus")
        assert main(["coverage", "--train", train, "--test", test,
                     "--metric", "inf"]) == 1
        assert "error:" in capsys.readouterr().err

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

    def test_bad_sizes_exit_1(self, tmp_path, capsys):
        assert main(["gen", "--clusters", "0", "--per-cluster", "2",
                     "--out", str(tmp_path / "x.jsonl")]) == 1


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
    @pytest.mark.parametrize("suite", ["hilbert", "canon", "metrics", "bounds"])
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
