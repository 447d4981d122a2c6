"""Containers, normalization, synthetic data, and file formats."""

import tracemalloc
import warnings

import numpy as np
import pytest

from canoncover import cloudio
from canoncover.cloudio import (
    format_number,
    read_cloud,
    read_manifest,
    write_cloud,
    write_manifest,
)
from canoncover.data import (
    CANON_CHOICES,
    Dataset,
    PointCloud,
    apply_canon,
    canonize_dataset,
    normalize_cloud,
    synthetic_dataset,
    synthetic_split,
)


class TestPointCloud:
    def test_shape_properties(self):
        pc = PointCloud(coords=np.zeros((3, 5)), label=2)
        assert (pc.d, pc.n, pc.label) == (3, 5, 2)

    def test_coerces_to_float(self):
        pc = PointCloud(coords=[[1, 2], [3, 4]])
        assert pc.coords.dtype == np.float64

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            PointCloud(coords=np.zeros(4))
        with pytest.raises(ValueError):
            PointCloud(coords=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(coords=np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            PointCloud(coords=np.zeros((2, 2)), label=-1)

    @pytest.mark.parametrize("coords, message", [
        (np.zeros(4), r"expected a d x n matrix with d, n >= 1, got shape \(4,\)"),
        (np.zeros((0, 3)), r"expected a d x n matrix with d, n >= 1, got shape \(0, 3\)"),
        (np.array([[np.nan, 0.0]]), "cloud contains non-finite entries"),
        (np.array([[0.0], [-np.inf]]), "cloud contains non-finite entries"),
    ])
    def test_rejects_with_the_cloud_gate_messages(self, coords, message):
        with pytest.raises(ValueError, match=message):
            PointCloud(coords=coords)

    def test_keeps_a_fortran_ordered_input_uncopied(self):
        coords = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        pc = PointCloud(coords=coords)
        assert pc.coords is coords and pc.coords.flags.f_contiguous


class TestDataset:
    def test_len_and_labels(self):
        ds = Dataset(items=[PointCloud(np.zeros((2, 3)), label=0),
                            PointCloud(np.ones((2, 1)))])
        assert len(ds) == 2
        assert ds.labels == [0, None]

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mix dimensions"):
            Dataset(items=[PointCloud(np.zeros((2, 3))),
                           PointCloud(np.zeros((3, 3)))])


class TestNormalizeCloud:
    def test_shift_and_scale(self, rng):
        coords = rng.normal(0.0, 5.0, size=(3, 40))
        out = normalize_cloud(coords)
        np.testing.assert_allclose(out.min(axis=1), 0.0, atol=1e-15)
        assert out.max() == pytest.approx(1.0)
        assert out.min() >= 0.0

    def test_shift_only(self, rng):
        coords = rng.normal(size=(2, 10))
        out = normalize_cloud(coords, divide_max_axis=False)
        np.testing.assert_allclose(out.min(axis=1), 0.0, atol=1e-15)
        spans = coords.max(axis=1) - coords.min(axis=1)
        np.testing.assert_allclose(out.max(axis=1), spans, atol=1e-12)

    def test_scale_preserves_shape_ratios(self, rng):
        coords = rng.random((2, 12)) * 7.0
        out = normalize_cloud(coords, shift_positive=False)
        np.testing.assert_allclose(out, coords / coords.max(), atol=1e-15)

    def test_constant_cloud_not_divided_by_zero(self):
        out = normalize_cloud(np.full((2, 4), 3.0))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_subsample(self, rng):
        coords = np.arange(20, dtype=float).reshape(2, 10)
        out = normalize_cloud(coords, sample_n=4, shift_positive=False,
                              divide_max_axis=False, rng=rng)
        assert out.shape == (2, 4)
        # Kept columns are original columns, in original order.
        cols = {tuple(coords[:, j]) for j in range(10)}
        assert all(tuple(out[:, j]) in cols for j in range(4))
        assert np.all(np.diff(out[0]) > 0)

    def test_subsample_full_size_needs_no_rng(self):
        coords = np.ones((2, 5))
        out = normalize_cloud(coords, sample_n=5, shift_positive=False,
                              divide_max_axis=False)
        np.testing.assert_array_equal(out, coords)

    def test_subsample_errors(self, rng):
        with pytest.raises(ValueError, match="exceeds available"):
            normalize_cloud(np.ones((2, 3)), sample_n=4, rng=rng)
        with pytest.raises(ValueError, match="needs an rng"):
            normalize_cloud(np.ones((2, 5)), sample_n=3)


class TestSynthetic:
    def test_shapes_labels_range(self):
        ds = synthetic_dataset(10, clusters=3, d=2, n_points=7, seed=0)
        assert len(ds) == 10
        assert ds.labels == [i % 3 for i in range(10)]
        for item in ds.items:
            assert item.coords.shape == (2, 7)
            assert item.coords.min() >= 0.0 and item.coords.max() <= 1.0

    def test_deterministic(self):
        a = synthetic_dataset(6, 2, 3, 5, seed=42)
        b = synthetic_dataset(6, 2, 3, 5, seed=42)
        for x, y in zip(a.items, b.items):
            np.testing.assert_array_equal(x.coords, y.coords)
        c = synthetic_dataset(6, 2, 3, 5, seed=43)
        assert any(not np.array_equal(x.coords, y.coords)
                   for x, y in zip(a.items, c.items))

    def test_split_shares_centers(self):
        train, test = synthetic_split(8, 4, clusters=2, d=2, n_points=50,
                                      seed=7, spread=0.01)
        combined = synthetic_dataset(12, 2, 2, 50, seed=7, spread=0.01)
        for item, ref in zip(train.items + test.items, combined.items):
            np.testing.assert_array_equal(item.coords, ref.coords)
        # With tiny spread, same-label items across the split are close.
        means = {label: [] for label in (0, 1)}
        for item in train.items + test.items:
            means[item.label].append(item.coords.mean(axis=1))
        for vals in means.values():
            assert np.max(np.abs(np.diff(np.array(vals), axis=0))) < 0.02

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synthetic_dataset(0, 1, 1, 1, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(1, 1, 0, 1, seed=0)


class TestApplyCanon:
    def test_sort_single_point(self):
        out, record = apply_canon(np.array([[3.0], [1.0], [2.0]]), "sort")
        np.testing.assert_array_equal(out, [[1.0], [2.0], [3.0]])
        assert record == {"method": "sort"}

    def test_sort_one_axis_cloud(self):
        out, _ = apply_canon(np.array([[3.0, 1.0, 2.0]]), "sort")
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_sort_rejects_matrices(self):
        with pytest.raises(ValueError, match="needs a vector"):
            apply_canon(np.ones((2, 3)), "sort")

    def test_lexsort_record_replays(self, rng):
        X = rng.random((3, 8))
        out, record = apply_canon(X, "lexsort")
        assert record["method"] == "lexsort"
        np.testing.assert_array_equal(out, X[:, record["perm"]])

    def test_hilbert_order_parse(self, rng):
        X = rng.random((2, 6))
        out, record = apply_canon(X, "hilbert:4")
        assert record["method"] == "hilbert:4"
        np.testing.assert_array_equal(out, X[:, record["perm"]])
        with pytest.raises(ValueError, match="needs an order"):
            apply_canon(X, "hilbert")

    def test_centralize_record_replays(self, rng):
        X = rng.random((3, 5))
        out, record = apply_canon(X, "centralize")
        shift = np.array(record["shift"])
        np.testing.assert_array_equal(out, X - shift[:, None])

    def test_pca_skew_record_replays(self, rng):
        for _ in range(20):
            X = rng.normal(size=(3, 30)) * np.array([[3.0], [1.5], [0.4]])
            out, record = apply_canon(X, "pca-skew")
            frame = np.array(record["frame"])
            shift = np.array(record["shift"])
            signs = np.array(record["signs"])
            replay = signs[:, None] * (frame @ X - shift[:, None])
            np.testing.assert_array_equal(out, replay)
            np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-9)
            assert set(signs.tolist()) <= {-1, 1}

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown canonization"):
            apply_canon(np.ones((2, 2)), "rotate")

    def test_choices_tuple(self):
        assert "lexsort" in CANON_CHOICES and "hilbert:<m>" in CANON_CHOICES


class TestCanonizeDataset:
    def test_preserves_labels_and_names(self):
        ds = synthetic_dataset(5, 2, 2, 6, seed=1, name="demo")
        out = canonize_dataset(ds, "lexsort")
        assert out.labels == ds.labels
        assert out.name == "demo:lexsort"
        for item, ref in zip(out.items, ds.items):
            np.testing.assert_array_equal(
                item.coords, apply_canon(ref.coords, "lexsort")[0])

    @pytest.mark.parametrize("d,m", [(1, 62), (2, 31), (3, 8), (4, 15)])
    def test_hilbert_stack_matches_apply_canon(self, d, m):
        ds = synthetic_dataset(9, 3, d, 12, seed=d)
        ds.items[0].coords[:, 0] = 0.0
        ds.items[0].coords[:, 1] = 1.0
        ds.items[1].coords[:, 3] = ds.items[1].coords[:, 4]
        ds.items[2].coords[:, 5] = np.floor(ds.items[2].coords[:, 6] * 2.0**m) / 2.0**m
        for sub in (Dataset(items=ds.items[:1]), ds):
            out = canonize_dataset(sub, f"hilbert:{m}")
            for item, ref in zip(out.items, sub.items):
                expected = apply_canon(ref.coords, f"hilbert:{m}")[0]
                assert np.array_equal(item.coords, expected)
                assert item.coords.flags["C_CONTIGUOUS"]
                assert item.label == ref.label

    def test_mixed_shapes_take_the_per_item_path(self, rng):
        ds = Dataset(items=[PointCloud(rng.random((2, n)), label=n) for n in (3, 5, 3, 1)])
        out = canonize_dataset(ds, "hilbert:6")
        assert out.labels == ds.labels
        for item, ref in zip(out.items, ds.items):
            assert np.array_equal(item.coords, apply_canon(ref.coords, "hilbert:6")[0])

    def test_empty_dataset(self):
        for spec in ("hilbert:4", "hilbert"):
            assert len(canonize_dataset(Dataset(), spec)) == 0

    @pytest.mark.parametrize("spec,coords", [
        ("hilbert", [[0.5, 0.25]]),
        ("hilbert:x", [[0.5, 0.25]]),
        ("hilbert:0", [[0.5, 0.25]]),
        ("hilbert:32", [[0.5, 0.25], [0.5, 0.75]]),
        ("hilbert:4", [[0.5, 1.25]]),
    ])
    def test_errors_match_apply_canon(self, spec, coords):
        coords = np.array(coords)
        with pytest.raises(ValueError) as per_item:
            apply_canon(coords, spec)
        ds = Dataset(items=[PointCloud(coords * 0.5), PointCloud(coords)])
        with pytest.raises(ValueError) as stacked:
            canonize_dataset(ds, spec)
        assert str(stacked.value) == str(per_item.value)


# Quirks the bulk parser rejects or that change the outcome; the line
# parser decides each of them. "+1" and padded cells are plain rows.
_CSV_QUIRKS = (None, None, None, "blank", "spaces", "underscore", "trailing-comma",
               "comment", "quoted", "separator", "nan", "inf", "ragged")


def _random_cloud_file(rng):
    """Text of a random cloud CSV with at most one quirk, and whether the
    bulk parser should read it without the line parser."""
    d = int(rng.integers(1, 6))
    n = 1 if rng.random() < 0.15 else int(rng.integers(1, 40))
    spellings = (repr, "{:.12g}".format, "{:+.3f}".format, " {:.5g}\t".format,
                 "{:.2e}".format, lambda v: "+1")
    rows = []
    for _ in range(n):
        values = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, size=d)
        rows.append([spellings[int(rng.integers(len(spellings)))](float(v))
                     for v in values])
    quirk = _CSV_QUIRKS[int(rng.integers(len(_CSV_QUIRKS)))]
    i, j = int(rng.integers(n)), int(rng.integers(d))
    lines = [",".join(r) for r in rows]
    if quirk in ("underscore", "quoted", "separator", "nan", "inf"):
        rows[i][j] = {"underscore": "1_0", "quoted": '"1"', "separator": "1\x1f",
                      "nan": "nan", "inf": "-inf"}[quirk]
        lines[i] = ",".join(rows[i])
    elif quirk == "trailing-comma":
        lines[i] += ","
    elif quirk == "ragged":
        lines[i] = ",".join(rows[i] + ["1"])
    elif quirk is not None:
        lines.insert(i, {"blank": "", "spaces": " \t ", "comment": "# comment"}[quirk])
    header = (None, ",".join("xyzwv"[:d]), "# comment", '"x"')[int(rng.integers(4))]
    if header is not None:
        lines.insert(0, header)
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    return text, quirk in (None, "nan", "inf")


# Edge files for `read_cloud`: (name, bytes, whether the line parser reads
# them rather than loadtxt).
_EDGE_FILES = [
    ("bom", "\ufeff1,2\n3,4\n".encode(), False),
    ("bom-header", "\ufeffx,y\n1,2\n3,4\n".encode(), False),
    ("bad-byte", b"1,2\n3,\xff\n", False),
    ("bad-byte-past-8k", b"1,2\n" * 3000 + b"\xfe3,4\n", False),
    ("bare-cr", b"1,2\r3,4\r", True),
    ("bare-cr-after-header", b"x,y\r1,2\n3,4\n", True),
    ("cr-crlf", b"1,2\r\r\n3,4\r\n", True),
    ("crlf", b"x,y\r\n1,2\r\n3,4\r\n", False),
    ("crlf-no-header", b"1,2\r\n3,4", False),
    *[(f"sep-{ord(c):x}-{where}", text.encode(), True)
      for c in "\x1c\x1d\x1e\x1f"
      for where, text in (("end", f"1,2{c}\n3,4\n"), ("cell", f"1,2\n3{c},4\n"))],
    ("header-only", b"x,y\n", True),
    ("header-only-no-newline", b"x,y", True),
    ("header-blank-second-line", b"x,y\n\n1,2\n3,4\n", True),
    ("no-trailing-newline", b"1,2\n3,4", False),
]
# Offset of the bad byte in each non-UTF-8 edge file, from the start of the file.
_BAD_BYTE_OFFSETS = {"bad-byte": 6, "bad-byte-past-8k": 12000}


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _text_reader_reference(path):
    """The line parser on the lines of a text-mode read, as `read_cloud`
    read files before it took the bytes."""
    with open(path, encoding="utf-8") as fh:
        return cloudio._parse_lines(path, fh.readlines())


class TestCloudCsv:
    def test_round_trip(self, tmp_path, rng):
        X = rng.random((3, 9))
        path = tmp_path / "cloud.csv"
        write_cloud(path, X)
        Y = read_cloud(path)
        np.testing.assert_allclose(Y, X, atol=1e-12)

    def test_write_read_write_is_stable(self, tmp_path, rng):
        # 12 significant digits reach a fixed point after one round trip.
        X = rng.normal(size=(2, 5)) * 1e3
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, X)
        write_cloud(b, read_cloud(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        np.testing.assert_array_equal(read_cloud(path), [[1.0, 3.0], [2.0, 4.0]])

    def test_one_point_per_row_orientation(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("1,2,3\n4,5,6\n")
        X = read_cloud(path)
        assert X.shape == (3, 2)  # two points in three dimensions
        np.testing.assert_array_equal(X[:, 0], [1.0, 2.0, 3.0])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("\n1,2\n\n3,4\n\n")
        assert read_cloud(path).shape == (2, 2)

    def test_mixed_widths_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="mixed column counts"):
            read_cloud(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_cloud(path)

    def test_bad_row_past_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nfoo,bar\n")
        with pytest.raises(ValueError, match="unparseable row"):
            read_cloud(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match="non-finite value"):
            read_cloud(path)

    @pytest.mark.parametrize("text", ["", "x,y\n", "x,y\n\n\n", "\n\n", "x,y\r\n  \r\n"])
    def test_no_data_rows_without_warning(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                read_cloud(path)
        assert str(exc.value) == f"{path}: no data rows"

    def test_bulk_read_matches_line_parser(self, tmp_path, monkeypatch):
        line_parser = cloudio._parse_lines
        fallbacks = []

        def spy(path, lines):
            fallbacks.append(path)
            return line_parser(path, lines)

        def outcome(read, path):
            try:
                return read(path)
            except ValueError as exc:
                return str(exc)

        def reference(path):
            with open(path, encoding="utf-8") as fh:
                return line_parser(path, fh)

        monkeypatch.setattr(cloudio, "_parse_lines", spy)
        rng = np.random.default_rng(2024)
        bulk_reads = 0
        for k in range(300):
            text, bulk = _random_cloud_file(rng)
            path = tmp_path / f"c{k}.csv"
            path.write_bytes(text.encode())
            fallbacks.clear()
            got, want = outcome(read_cloud, path), outcome(reference, path)
            if isinstance(want, str):
                assert isinstance(got, str) and got == want, text
            else:
                assert np.array_equal(got, want), text
                assert got.dtype == np.float64
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert got.flags.c_contiguous == want.flags.c_contiguous
            if bulk:
                assert not fallbacks, text
                bulk_reads += 1
        assert bulk_reads > 100

    @pytest.mark.parametrize("name,data,line_parsed", _EDGE_FILES,
                             ids=[f[0] for f in _EDGE_FILES])
    def test_edge_files_match_text_reader(self, tmp_path, monkeypatch, name, data,
                                          line_parsed):
        # A file read as bytes gives the result, or the error text, of the
        # line parser on a text-mode read. A non-UTF-8 byte gives an error
        # that names the file and the byte's offset in the whole file (the
        # text reader counts from the start of its 8 KiB chunk instead).
        # Only a bare CR line end or a \x1c-\x1f separator keeps an
        # otherwise good file off the loadtxt path.
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        if name in _BAD_BYTE_OFFSETS:
            offset = _BAD_BYTE_OFFSETS[name]
            want = (f"{path}: 'utf-8' codec can't decode byte {data[offset]:#x} "
                    f"in position {offset}: invalid start byte")
        else:
            want = _outcome(_text_reader_reference, path)
        fallbacks = []
        line_parser = cloudio._parse_lines
        monkeypatch.setattr(cloudio, "_parse_lines",
                            lambda p, lines: fallbacks.append(p) or line_parser(p, lines))
        got = _outcome(read_cloud, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want) and got.flags.f_contiguous
        assert bool(fallbacks) == line_parsed

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_write_cloud_blocks_match_one_call(self, tmp_path, d):
        block = cloudio._WRITE_ROWS
        rng = np.random.default_rng(d)
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            X = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-5, 6, size=(d, n))
            row = ",".join(["%.12g"] * d) + "\n"
            expected = ((row * n) % tuple(X.T.ravel().tolist())).encode()
            for layout in (np.ascontiguousarray, np.asfortranarray):
                path = tmp_path / f"w{d}_{n}.csv"
                write_cloud(path, layout(X))
                assert path.read_bytes() == expected, (d, n, layout.__name__)

    # On a 3 x 200000 cloud (4.8 MB of float64, a 9 MB file) the writer
    # holds one block of text at a time and the reader the file's bytes
    # plus the array it grows. The whole text at once, or a list of
    # per-line strings, exceeds either bound several times.
    def test_write_cloud_peak_memory(self, tmp_path):
        X = np.random.default_rng(5).random((3, 200_000))
        write_cloud(tmp_path / "first.csv", X)
        assert _traced_peak(lambda: write_cloud(tmp_path / "big.csv", X)) < X.nbytes // 4
        assert (tmp_path / "big.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_read_cloud_peak_memory(self, tmp_path):
        X = np.random.default_rng(5).random((3, 200_000))
        path = tmp_path / "big.csv"
        write_cloud(path, X)
        read_cloud(path)
        assert _traced_peak(lambda: read_cloud(path)) < path.stat().st_size + 2 * X.nbytes

    def test_format_number(self):
        assert format_number(0.5) == "0.5"
        assert format_number(1.0 / 3.0) == "0.333333333333"
        assert format_number(1e-20) == "1e-20"

    def test_write_cloud_bytes_match_format_number(self, tmp_path, rng):
        X = np.array([[0.5, 1.0 / 3.0, 1e-20, -0.0, 7.0],
                      [1e300, -2.5e-7, 123456789.123456789, 0.1, -1.0]])
        X = np.concatenate([X, rng.normal(size=(2, 20)) * 1e4], axis=1)
        path = tmp_path / "w.csv"
        write_cloud(path, X)
        expected = "".join(",".join(format_number(v) for v in X[:, j]) + "\n"
                           for j in range(X.shape[1]))
        assert path.read_bytes() == expected.encode("utf-8")
        assert path.read_text().startswith("0.5,1e+300\n0.333333333333,-2.5e-07\n")


class TestManifest:
    def _write_clouds(self, tmp_path, clouds):
        entries = []
        for i, X in enumerate(clouds):
            name = f"c{i}.csv"
            write_cloud(tmp_path / name, X)
            entries.append((name, i % 2))
        return entries

    def test_round_trip_relative_paths(self, tmp_path, rng):
        clouds = [rng.random((2, 4)) for _ in range(3)]
        entries = self._write_clouds(tmp_path, clouds)
        manifest = tmp_path / "set.jsonl"
        write_manifest(manifest, entries)
        ds = read_manifest(manifest)
        assert len(ds) == 3 and ds.labels == [0, 1, 0]
        assert ds.name == "set.jsonl"
        for item, X in zip(ds.items, clouds):
            np.testing.assert_allclose(item.coords, X, atol=1e-12)

    def test_normalization_line_applies(self, tmp_path):
        X = np.array([[2.0, 4.0], [6.0, 8.0]])
        write_cloud(tmp_path / "c0.csv", X)
        manifest = tmp_path / "set.jsonl"
        write_manifest(manifest, [("c0.csv", None)],
                       normalization={"shift_positive": True,
                                      "divide_max_axis": True})
        ds = read_manifest(manifest)
        np.testing.assert_allclose(ds.items[0].coords,
                                   normalize_cloud(X), atol=1e-15)

    def test_normalization_subsample_uses_rng(self, tmp_path):
        write_cloud(tmp_path / "c0.csv", np.arange(12, dtype=float).reshape(2, 6))
        manifest = tmp_path / "set.jsonl"
        write_manifest(manifest, [("c0.csv", 0)],
                       normalization={"sample_n": 3, "shift_positive": False,
                                      "divide_max_axis": False})
        with pytest.raises(ValueError, match="needs an rng"):
            read_manifest(manifest)
        ds = read_manifest(manifest, rng=np.random.default_rng(0))
        assert ds.items[0].coords.shape == (2, 3)

    def test_missing_cloud_file(self, tmp_path):
        manifest = tmp_path / "set.jsonl"
        write_manifest(manifest, [("absent.csv", 0)])
        with pytest.raises(OSError):
            read_manifest(manifest)

    def test_entry_without_path_rejected(self, tmp_path):
        manifest = tmp_path / "set.jsonl"
        manifest.write_text('{"label": 3}\n')
        with pytest.raises(ValueError, match="missing 'path'"):
            read_manifest(manifest)

    @pytest.mark.parametrize("line, message", [
        ('{"normalization": {"sample_n": 0}}', "sample_n must be a positive integer, got 0"),
        ('{"normalization": {"sample_n": -1}}', "sample_n must be a positive integer, got -1"),
        ('{"normalization": {"sample_n": "x"}}',
         "sample_n must be a positive integer, got 'x'"),
        ('{"normalization": {"sample_n": 2.5}}', "sample_n must be a positive integer, got 2.5"),
        ('{"normalization": {"sample_n": true}}',
         "sample_n must be a positive integer, got True"),
        ('{"normalization": [1]}', "normalization must be a JSON object, got list"),
        ('{"normalization": "x"}', "normalization must be a JSON object, got str"),
        ('{"normalization": {"shift_positive": "no"}}',
         "shift_positive must be true or false, got 'no'"),
        ('{"normalization": {"divide_max_axis": 0}}',
         "divide_max_axis must be true or false, got 0"),
        ('{"normalization": {"sampel_n": 3, "shift_positve": false}}',
         "unknown normalization key 'sampel_n'; "
         "allowed: sample_n, shift_positive, divide_max_axis"),
        ('{"normalization": {"sample_n": 2, "scale": true}}',
         "unknown normalization key 'scale'; "
         "allowed: sample_n, shift_positive, divide_max_axis"),
        ('{"path": 5}', "'path' must be a string, got 5"),
        ('{"path": "c0.csv", "label": [1, 2]}',
         "label must be a non-negative integer or null, got [1, 2]"),
        ('{"path": "c0.csv", "label": {"id": 1}}',
         "label must be a non-negative integer or null, got {'id': 1}"),
        ('{"path": "c0.csv", "label": "x"}',
         "label must be a non-negative integer or null, got 'x'"),
        ('{"path": "c0.csv", "label": "1"}',
         "label must be a non-negative integer or null, got '1'"),
        ('{"path": "c0.csv", "label": 2.5}',
         "label must be a non-negative integer or null, got 2.5"),
        ('{"path": "c0.csv", "label": 2.0}',
         "label must be a non-negative integer or null, got 2.0"),
        ('{"path": "c0.csv", "label": true}',
         "label must be a non-negative integer or null, got True"),
        ('{"path": "c0.csv", "label": -1}',
         "label must be a non-negative integer or null, got -1"),
        ('[{"path": "c0.csv"}]', "expected a JSON object, got list"),
    ])
    def test_malformed_line_rejected(self, tmp_path, line, message):
        write_cloud(tmp_path / "c0.csv", np.arange(6, dtype=float).reshape(2, 3))
        manifest = tmp_path / "set.jsonl"
        manifest.write_text('{"path": "c0.csv", "label": 0}\n' + line + "\n")
        with pytest.raises(ValueError) as exc:
            read_manifest(manifest, rng=np.random.default_rng(0))
        assert str(exc.value) == f"{manifest}:2: {message}"

    @pytest.mark.parametrize("label, expect", [("", None), (', "label": null', None),
                                               (', "label": 0', 0), (', "label": 7', 7)])
    def test_valid_labels_load(self, tmp_path, label, expect):
        write_cloud(tmp_path / "c0.csv", np.arange(6, dtype=float).reshape(2, 3))
        manifest = tmp_path / "set.jsonl"
        manifest.write_text('{"path": "c0.csv"%s}\n' % label)
        assert read_manifest(manifest).labels == [expect]

    def test_sample_n_above_point_count_names_manifest_and_cloud(self, tmp_path):
        write_cloud(tmp_path / "c0.csv", np.arange(6, dtype=float).reshape(2, 3))
        manifest = tmp_path / "set.jsonl"
        manifest.write_text('{"normalization": {"sample_n": 9}}\n'
                            '{"path": "c0.csv", "label": 0}\n')
        with pytest.raises(ValueError) as exc:
            read_manifest(manifest, rng=np.random.default_rng(0))
        assert str(exc.value) == (f"{manifest}:2: {tmp_path / 'c0.csv'}: "
                                  "sample_n = 9 exceeds available points (3)")

    @pytest.mark.parametrize("options", ["null", "{}"])
    def test_empty_normalization_applies_defaults(self, tmp_path, options):
        X = np.array([[2.0, 4.0], [6.0, 8.0]])
        write_cloud(tmp_path / "c0.csv", X)
        manifest = tmp_path / "set.jsonl"
        manifest.write_text('{"normalization": %s}\n{"path": "c0.csv"}\n' % options)
        assert np.array_equal(read_manifest(manifest).items[0].coords, normalize_cloud(X))

    def test_invalid_json_rejected(self, tmp_path):
        manifest = tmp_path / "set.jsonl"
        manifest.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_manifest(manifest)
