import csv
import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

from rdec import data
from rdec.data import (
    DataFormatError,
    Dataset,
    SubsampleSpec,
    filter_classes,
    load_csv,
    load_idx,
    read_idx,
    read_labels,
    save_csv,
    save_idx,
    scale_pixels,
    subsample,
    write_csv,
)

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def write_idx_pair(tmp_path, pixels, labels, gz=False, images_magic=IMAGES_MAGIC):
    """pixels: (n, rows, cols) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    images = struct.pack(">iiii", images_magic, n, rows, cols) + pixels.tobytes()
    label_bytes = struct.pack(">ii", LABELS_MAGIC, n) + bytes(labels)
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lab_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    if gz:
        img_path.write_bytes(gzip.compress(images))
        lab_path.write_bytes(gzip.compress(label_bytes))
    else:
        img_path.write_bytes(images)
        lab_path.write_bytes(label_bytes)
    return img_path, lab_path


@pytest.fixture
def two_image_fixture(tmp_path):
    pixels = np.array(
        [[[0, 51], [102, 153]], [[204, 255], [0, 255]]], dtype=np.uint8
    )
    labels = [7, 2]
    return write_idx_pair(tmp_path, pixels, labels), pixels, labels


class TestLoadIdx:
    def test_known_pixels_and_labels(self, two_image_fixture):
        (img, lab), pixels, labels = two_image_fixture
        ds = load_idx(img, lab)
        assert ds.features.shape == (2, 4)
        np.testing.assert_allclose(
            ds.features, pixels.reshape(2, 4).astype(float) / 255.0
        )
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.class_counts == {2: 1, 7: 1}

    @pytest.mark.parametrize("gz", [False, True])
    def test_read_keeps_the_bytes_and_load_scales_them(self, tmp_path, gz):
        # every byte value; load_idx must equal the float64-first formula bit for bit
        pixels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img, lab = write_idx_pair(tmp_path, pixels, [3, 1, 4, 1], gz=gz)
        raw = read_idx(img, lab, name="raw")
        assert raw.features.dtype == np.uint8 and raw.labels.dtype == np.int64
        assert raw.features.tobytes() == pixels.tobytes() and raw.features.shape == (4, 64)
        np.testing.assert_array_equal(raw.labels, [3, 1, 4, 1])
        assert raw.name == "raw"
        scaled = load_idx(img, lab)
        expected = pixels.reshape(4, 64).astype(np.float64) / 255.0
        assert scaled.features.dtype == np.float64
        assert scaled.features.tobytes() == expected.tobytes()
        assert scale_pixels(raw).features.tobytes() == expected.tobytes()

    def test_load_makes_one_float_copy(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(3000, 28, 28), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0] * 3000)
        tracemalloc.start()
        try:
            ds = load_idx(img, lab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float64 rows and the file's bytes; a second float64 copy would not fit
        assert peak < ds.features.nbytes + 2 * pixels.nbytes

    def test_gzip_transparent(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 0], gz=True)
        ds = load_idx(img, lab)
        assert ds.n == 3 and ds.dim == 4

    def test_bad_magic_names_offset(self, tmp_path):
        img, lab = write_idx_pair(
            tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0], images_magic=0x1234
        )
        with pytest.raises(DataFormatError, match="offset 0"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which, keep, message", [
        ("labels", 9, "truncated label data, wanted 2 bytes, got 1"),
        ("images", 10, "truncated image dimensions, wanted 12 bytes, got 6"),
    ])
    def test_truncated_labels_or_header(self, tmp_path, which, keep, message):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        path = img if which == "images" else lab
        path.write_bytes(path.read_bytes()[:keep])  # the headers are 16 and 8 bytes
        with pytest.raises(DataFormatError, match=message):
            load_idx(img, lab)

    @pytest.mark.parametrize("damage, reason", [
        ("cut", "Compressed file ended before the end-of-stream marker was reached"),
        ("flipped", "CRC check failed 0x"),
        ("flipped-with-trailing-bytes", "CRC check failed 0x"),
    ], ids=["cut", "flipped", "flipped-with-trailing-bytes"])
    def test_damaged_gzip_is_a_format_error_naming_the_file(self, tmp_path, damage, reason):
        # cut, it was a bare EOFError (exit 1) naming no file; with one byte
        # flipped it loaded, one pixel changed, as the CRC was never read, and
        # so it did with trailing bytes, which kept the CRC out of reach
        pixels = np.arange(200, dtype=np.uint8).reshape(50, 2, 2)
        img, lab = write_idx_pair(tmp_path, pixels, [0] * 50)
        trailing = bytes(5) if damage.endswith("trailing-bytes") else b""
        # a stored deflate block holds the file's bytes as they are
        content = bytearray(gzip.compress(img.read_bytes() + trailing, compresslevel=0))
        if damage == "cut":
            content = content[: len(content) // 2]
        else:
            content[len(content) // 2] ^= 1
        img.write_bytes(bytes(content))
        with pytest.raises(DataFormatError) as info:
            read_idx(img, lab)
        assert str(info.value).startswith(f"{img}: bad gzip stream: {reason}")

    @pytest.mark.parametrize("gz", [False, True])
    def test_bytes_past_the_payload_are_ignored(self, tmp_path, gz):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        img, lab = write_idx_pair(tmp_path, pixels, [0, 1])
        content = img.read_bytes() + b"trailing"
        img.write_bytes(gzip.compress(content) if gz else content)
        assert read_idx(img, lab).features.tobytes() == pixels.tobytes()

    def test_negative_dimension_is_a_format_error(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        img.write_bytes(struct.pack(">iiii", IMAGES_MAGIC, -1, -1, 4) + bytes(4))
        with pytest.raises(DataFormatError, match=r"negative image dimension .* \[-1, -1, 4\]"):
            load_idx(img, lab)

    @pytest.mark.parametrize("gz", [False, True])
    def test_oversized_header_is_a_truncated_file(self, tmp_path, gz):
        # 2**31 - 1 images of 32768 x 32768 pixels over a 100-byte payload: the
        # claimed size never sizes a buffer, so this is no MemoryError
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0], gz=gz)
        content = struct.pack(">iiii", IMAGES_MAGIC, 2**31 - 1, 32768, 32768) + bytes(100)
        img.write_bytes(gzip.compress(content) if gz else content)
        with pytest.raises(DataFormatError) as info:
            read_idx(img, lab)
        assert str(info.value) == (f"{img}: truncated image data, wanted "
                                   "2305843008139952128 bytes, got 100")

    @pytest.mark.parametrize("gz", [False, True])
    def test_payloads_beyond_one_read_chunk(self, tmp_path, monkeypatch, gz):
        monkeypatch.setattr(data, "READ_CHUNK", 7)
        pixels = np.arange(150, dtype=np.uint8).reshape(6, 5, 5)
        img, lab = write_idx_pair(tmp_path, pixels, [1, 2, 3, 4, 5, 6], gz=gz)
        ds = read_idx(img, lab)
        assert ds.features.tobytes() == pixels.tobytes()
        np.testing.assert_array_equal(ds.labels, [1, 2, 3, 4, 5, 6])
        content = img.read_bytes()
        content = (gzip.decompress(content) if gz else content)[:-12]
        img.write_bytes(gzip.compress(content) if gz else content)
        with pytest.raises(DataFormatError, match="truncated image data, wanted 150 bytes, "
                                                  "got 138$"):
            read_idx(img, lab)

    def test_zero_pixel_images_are_a_format_error(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 0, 4), dtype=np.uint8), [0, 1])
        with pytest.raises(DataFormatError) as info:
            load_idx(img, lab)
        assert str(info.value) == f"{img}: images have no pixels, header [2, 0, 4]"

    def test_zero_count_files_load(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 2, 3), dtype=np.uint8), [])
        ds = load_idx(img, lab)
        assert ds.features.shape == (0, 6) and ds.features.dtype == np.float64
        assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 0])
        _, lab = write_idx_pair(
            tmp_path / "..", np.zeros((3, 2, 2), dtype=np.uint8), [0, 0, 1]
        )
        with pytest.raises(DataFormatError, match="count mismatch"):
            load_idx(img, lab)

    def test_save_round_trip(self, two_image_fixture, tmp_path):
        (img, lab), _, _ = two_image_fixture
        ds = load_idx(img, lab)
        out_img = tmp_path / "out-images"
        out_lab = tmp_path / "out-labels"
        save_idx(ds, out_img, out_lab)
        again = load_idx(out_img, out_lab)
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert out_img.read_bytes() == img.read_bytes()

    def test_save_bytes_are_the_rounded_clipped_pixels(self, rng, tmp_path):
        features = rng.uniform(-0.5, 1.5, size=(40, 16))
        # exact halves check numpy's round-half-to-even; the ends check the clip
        features[0] = (np.arange(16) + 0.5) / 255.0
        features[1, :4] = [-1.0, 0.0, 1.0, 2.0]
        ds = Dataset(features, np.arange(40) % 10)
        save_idx(ds, tmp_path / "img", tmp_path / "lab")
        pixels = np.clip(np.round(features * 255.0), 0, 255).astype(np.uint8)
        header = struct.pack(">iiii", IMAGES_MAGIC, 40, 4, 4)
        assert (tmp_path / "img").read_bytes() == header + pixels.tobytes()

    def test_save_in_chunks_writes_the_whole_array_bytes(self, rng, tmp_path, monkeypatch):
        # 7-row chunks split the 40 rows into 6, the last one short
        features = rng.uniform(-0.5, 1.5, size=(40, 16))
        ds = Dataset(features, np.arange(40) % 10)
        save_idx(ds, tmp_path / "whole-img", tmp_path / "whole-lab")
        monkeypatch.setattr(data, "SAVE_CHUNK", 7)
        # column-major features still give row-major bytes
        save_idx(Dataset(np.asfortranarray(features), ds.labels), tmp_path / "img",
                 tmp_path / "lab")
        pixels = np.clip(np.round(features * 255.0), 0, 255).astype(np.uint8)
        header = struct.pack(">iiii", IMAGES_MAGIC, 40, 4, 4)
        assert (tmp_path / "img").read_bytes() == header + pixels.tobytes()
        assert (tmp_path / "img").read_bytes() == (tmp_path / "whole-img").read_bytes()
        assert (tmp_path / "lab").read_bytes() == (tmp_path / "whole-lab").read_bytes()

    def test_save_round_trips_non_square_rows(self, rng, tmp_path):
        # 10 pixels are no square: the header says 3 images of 1 x 10
        pixels = rng.integers(0, 256, size=(3, 10), dtype=np.uint8)
        save_idx(Dataset(pixels, np.arange(3)), tmp_path / "img", tmp_path / "lab")
        assert ((tmp_path / "img").read_bytes()
                == struct.pack(">iiii", IMAGES_MAGIC, 3, 1, 10) + pixels.tobytes())
        back = read_idx(tmp_path / "img", tmp_path / "lab")
        np.testing.assert_array_equal(back.features, pixels)
        np.testing.assert_array_equal(back.labels, np.arange(3))

    def test_save_rejects_labels_outside_a_byte(self, rng, tmp_path):
        # uint8 would wrap them: [300, -1] read back as [44, 255]
        ds = Dataset(rng.random((3, 4)), np.array([1, 300, -1]))
        with pytest.raises(ValueError, match="label 300 at row 1 is outside 0..255"):
            save_idx(ds, tmp_path / "img", tmp_path / "lab")
        assert list(tmp_path.iterdir()) == []

    def test_save_holds_one_float_copy_of_the_features(self, rng, tmp_path):
        ds = Dataset(rng.random((3050, 784)), np.arange(3050) % 10)
        tracemalloc.start()
        try:
            save_idx(ds, tmp_path / "img", tmp_path / "lab")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One float64 chunk of 1024 rows plus its uint8 pixels and their bytes;
        # a float64 copy of all 3050 rows is 2.98 chunks.
        assert peak < 0.5 * ds.features.nbytes
        # the rows span three chunks and give the bytes of the whole-array formula
        pixels = np.clip(np.round(ds.features * 255.0), 0, 255).astype(np.uint8)
        assert (tmp_path / "img").read_bytes()[16:] == pixels.tobytes()

    @pytest.mark.parametrize("gz", [False, True])
    def test_read_then_save_writes_the_bytes_read(self, tmp_path, monkeypatch, gz):
        # uint8 rows are written as they are; 3-row chunks split the 4 rows in two
        monkeypatch.setattr(data, "SAVE_CHUNK", 3)
        pixels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img, lab = write_idx_pair(tmp_path, pixels, [3, 1, 4, 255], gz=gz)
        save_idx(read_idx(img, lab), tmp_path / "img", tmp_path / "lab")
        plain = gzip.decompress if gz else bytes
        assert (tmp_path / "img").read_bytes() == plain(img.read_bytes())
        assert (tmp_path / "lab").read_bytes() == plain(lab.read_bytes())

    def test_save_needs_labels(self, rng, tmp_path):
        with pytest.raises(ValueError, match="^save_idx needs labels$"):
            save_idx(Dataset(rng.random((3, 4)), None), tmp_path / "img", tmp_path / "lab")
        assert list(tmp_path.iterdir()) == []

    def test_save_rejects_integer_features_other_than_bytes(self, tmp_path):
        ds = Dataset(np.full((2, 4), 7, dtype=np.int64), np.array([0, 1]))
        with pytest.raises(ValueError, match="needs features scaled to \\[0, 1\\], got int64"):
            save_idx(ds, tmp_path / "img", tmp_path / "lab")
        assert list(tmp_path.iterdir()) == []


class TestLoadCsv:
    def test_exact_values(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.5,2.0,0\n-1.0,0.25,1\n3.0,4.0,0\n")
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(
            ds.features, [[1.5, 2.0], [-1.0, 0.25], [3.0, 4.0]]
        )
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_no_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.labels is None
        assert ds.features.shape == (2, 2)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named 'label'"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("text, label_column", [("label\n0\n1\n", "label"),
                                                    ("\n\n", None)])
    def test_no_feature_column(self, tmp_path, text, label_column):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_csv(path, label_column=label_column)
        # a file of blank lines has no header row at all
        message = "no feature columns in header" if text.strip() else "empty file"
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, compress):
        # Excel's "CSV UTF-8" files start with U+FEFF; 'label' was not found
        content = "\ufefflabel,f0,f1\n0,1.5,2\n1,3,4\n".encode()
        path = tmp_path / "data.csv"
        path.write_bytes(gzip.compress(content) if compress else content)
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [3.0, 4.0]])
        assert ds.labels.tolist() == [0, 1]

    def test_blank_lines_are_skipped(self, tmp_path):
        # a trailing blank line was a ragged row with 0 cells
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1\n0,1,2\n\n1,3,4\n\n")
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels.tolist() == [0, 1]

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        # the first blank line was read as an empty header
        path = tmp_path / "data.csv"
        path.write_text("\nlabel,a\n0,1\n1,2\n")
        ds = load_csv(path, label_column="label")
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_array_equal(load_csv(path).features, [[0.0, 1.0], [1.0, 2.0]])

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: empty file"

    def test_lines_are_counted_from_the_top_of_the_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\nlabel,a\n0,1\n\n1,oops\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path, label_column="label")
        assert str(info.value) == f"{path}:6: non-numeric cell 'oops' in column 'a'"

    def test_a_quoted_cell_spanning_lines_counts_its_lines(self, tmp_path):
        # records were counted, not lines: the bad row was reported as line 3
        path = tmp_path / "data.csv"
        path.write_text('a,b\n"1\n",2\n3,oops\n')
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:4: non-numeric cell 'oops' in column 'b'"

    def test_a_row_of_empty_cells_is_malformed(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n,,\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: non-numeric cell '' in column 'a'"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="oops"):
            load_csv(path)

    def test_first_malformed_row_in_file_order_is_reported(self, tmp_path):
        # a ragged row used to be reported before a non-numeric cell above it
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,oops\n4,5\n6\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: non-numeric cell 'oops' in column 'b'"

    # each reached K-means or pretraining and failed there, exit 1
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_non_finite_feature_named_by_line_and_column(self, tmp_path, cell, label_column):
        path = tmp_path / "data.csv"
        path.write_text(f"label,a,b\n0,1.0,2.0\n1,3.0,{cell}\n0,oops,2.0\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path, label_column=label_column)
        assert str(info.value) == f"{path}:3: non-finite cell '{cell}' in column 'b'"

    # 1e20 is integral but beyond int64; it was cast to -2**63 with a warning
    @pytest.mark.parametrize("label", ["1.5", "nan", "inf", "1e20", "9223372036854775808"])
    def test_non_integer_label_named_by_line_and_column(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"a,label\n1.0,2\n3.0,{label}\n")
        with pytest.raises(ValueError) as info:
            load_csv(path, label_column="label")
        assert str(info.value) == (f"{path}:3: label '{label}' in column 'label' "
                                   "is not an int64 integer")

    @pytest.mark.parametrize("label", ["9007199254740993", "-9223372036854775808",
                                       "9223372036854775807"])
    def test_every_int64_label_is_exact(self, tmp_path, label):
        # through float64 the first read ...992 and the last fell outside int64
        path = tmp_path / "data.csv"
        path.write_text(f"a,label\n1.0,{label}\n2.0,3.0\n3.0,1e3\n")
        ds = load_csv(path, label_column="label")
        assert ds.labels.tolist() == [int(label), 3, 1000]

    def test_round_trip_with_writer(self, tmp_path, rng):
        ds = Dataset(
            features=rng.standard_normal((5, 3)),
            labels=rng.integers(0, 3, size=5),
            name="roundtrip",
        )
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_write_csv_bytes(self, tmp_path):
        # plain text, whatever the name
        for path in (tmp_path / "out.csv", tmp_path / "out.csv.gz"):
            write_csv(path, ("a", "b,c", "d"), [(None, np.float64(0.1), 3)])
            assert path.read_bytes() == b"a,\"b,c\",d\n,0.1,3\n"

    def test_gzip_round_trip(self, tmp_path, rng):
        ds = Dataset(features=rng.standard_normal((4, 2)), labels=None)
        save_csv(ds, tmp_path / "out.csv")
        path = tmp_path / "out.csv.gz"
        path.write_bytes(gzip.compress((tmp_path / "out.csv").read_bytes()))
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)

    @pytest.mark.parametrize("written, read", [("out.csv.gz", "out.csv"),
                                               ("out.csv", "out.csv.gz")])
    def test_gzip_is_sniffed_not_named(self, tmp_path, rng, written, read):
        # content gzipped as the written name says, read under the other name
        ds = Dataset(features=rng.standard_normal((4, 2)), labels=np.arange(4))
        save_csv(ds, tmp_path / "plain")
        content = (tmp_path / "plain").read_bytes()
        gzipped = written.endswith(".gz")
        (tmp_path / read).write_bytes(gzip.compress(content) if gzipped else content)
        back = load_csv(tmp_path / read, label_column="label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


# One-column files that both text readers read as the values 1, 2, 3.
AWKWARD_TEXT = {
    "gzip": "v\n1\n2\n3\n",
    "byte-order-mark": "\ufeffv\n1\n2\n3\n",
    "blank-lines": "\n \t\nv\n\n1\n  \n2\n\n3\n\n",
    "crlf": "v\r\n1\r\n\r\n2\r\n3\r\n",
    "quoted-cell-spanning-lines": 'v\n"1\n"\n2\n3\n',
}


@pytest.mark.parametrize("case", AWKWARD_TEXT)
@pytest.mark.parametrize("read, values, bad", [
    (lambda path: load_csv(path).features.ravel().tolist(), [1.0, 2.0, 3.0],
     "non-numeric cell 'oops' in column 'v'"),
    (lambda path: read_labels(path).tolist(), [1, 2, 3], "'oops' is not an int64 integer"),
], ids=["load_csv", "read_labels"])
def test_the_text_readers_agree(tmp_path, case, read, values, bad):
    text = AWKWARD_TEXT[case]
    path = tmp_path / "in.csv"
    encode = (lambda text: gzip.compress(text.encode())) if case == "gzip" else str.encode
    path.write_bytes(encode(text))
    assert read(path) == values
    # a bad row after the file's last line is reported on the line after it
    path.write_bytes(encode(text + "oops\n"))
    lineno = text.count("\n") + 1
    with pytest.raises(DataFormatError) as info:
        read(path)
    assert str(info.value) == f"{path}:{lineno}: {bad}"


@pytest.mark.parametrize("read", [load_csv, read_labels])
def test_a_cut_gzip_text_file_is_a_format_error_naming_it(tmp_path, read):
    # it was a bare EOFError (exit 1) naming no file
    content = gzip.compress("".join(f"{i}\n" for i in range(1000)).encode())
    path = tmp_path / "in.csv.gz"
    path.write_bytes(content[: len(content) // 2])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: bad gzip stream: "
                                              "Compressed file ended"):
        read(path)


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
OVER_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
# 10 000 rows run past the text reader's first 8 KiB decoding chunk
LONG = b"v\n" + b"1\n" * 10_000 + b"1\xff\n"


@pytest.mark.parametrize("read", [load_csv, read_labels])
@pytest.mark.parametrize("content, lineno, error", [
    (b"v\n1\n\xff\n", 3, NOT_UTF8.format(0)),
    (b"v\n" + b"1" * (csv.field_size_limit() + 1) + b"\n", 2, OVER_LIMIT),
    (LONG, 10_002, NOT_UTF8.format(1)),
    (gzip.compress(LONG), 10_002, NOT_UTF8.format(1)),
    (b"v\n" + b"1\n" * 5 + b"1" * (csv.field_size_limit() + 1) + b"\n", 7, OVER_LIMIT),
    (b"v\r1\r1\xff\r", 3, NOT_UTF8.format(1)),  # lines end at a bare \r, as csv counts them
    (b"v\r\n1\r\n1\xff\r\n", 3, NOT_UTF8.format(1)),
], ids=["not-utf-8", "over-limit-cell", "not-utf-8-past-a-chunk", "not-utf-8-past-a-chunk-gzip",
        "over-limit-cell-after-rows", "not-utf-8-cr-line-ends", "not-utf-8-crlf-line-ends"])
def test_undecodable_text_is_a_format_error_naming_the_file(tmp_path, read, content, lineno,
                                                            error):
    # a decoding error names the line, and a byte position within that line
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    with pytest.raises(DataFormatError) as info:
        read(path)
    assert str(info.value) == f"{path}:{lineno}: {error}"


class TestFilterConcat:
    def test_filter_keeps_order(self):
        ds = Dataset(
            features=np.arange(10.0).reshape(5, 2),
            labels=np.array([0, 6, 3, 6, 0]),
        )
        kept = filter_classes(ds, [0, 6])
        np.testing.assert_array_equal(kept.labels, [0, 6, 6, 0])
        np.testing.assert_array_equal(kept.features[:, 0], [0.0, 2.0, 6.0, 8.0])

    def test_filter_missing_class(self):
        ds = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]))
        with pytest.raises(ValueError, match="absent"):
            filter_classes(ds, [0, 9])

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_filter_equals_a_mask_selection(self, rng, dtype):
        labels = rng.integers(0, 5, size=300)
        features = rng.integers(0, 256, size=(300, 16)).astype(dtype)
        kept = filter_classes(Dataset(features, labels), [3, 0])
        mask = (labels == 0) | (labels == 3)
        assert kept.features.dtype == dtype
        assert kept.features.tobytes() == features[mask].tobytes()
        assert kept.labels.tobytes() == labels[mask].tobytes()

    @pytest.mark.parametrize("select", [
        lambda ds: filter_classes(ds, [0, 2]),
        lambda ds: subsample(ds, SubsampleSpec(mode="single_class", r_min=0.5,
                                               target_class=1)),
        lambda ds: subsample(ds, SubsampleSpec(mode="explicit_counts", counts=[2, 3, 4])),
        lambda ds: subsample(ds, SubsampleSpec(mode="interpolated", r_min=0.5)),
    ], ids=["filter_classes", "single_class", "explicit_counts", "interpolated"])
    def test_selection_keeps_the_name(self, rng, select):
        ds = Dataset(rng.standard_normal((30, 2)), np.arange(30) % 3, name="raw")
        assert select(ds).name == "raw"


def blob_dataset(rng, counts):
    labels = np.concatenate([np.full(c, k) for k, c in enumerate(counts)])
    features = rng.standard_normal((labels.size, 3))
    return Dataset(features=features, labels=labels.astype(np.int64), name="blobs")


def row_hashes(ds):
    return {row.tobytes() for row in ds.features}


class TestSubsample:
    def test_single_class_exact_count(self, rng):
        ds = blob_dataset(rng, [403, 200, 100])
        spec = SubsampleSpec(mode="single_class", r_min=0.1, target_class=0, seed=1)
        out = subsample(ds, spec)
        assert out.class_counts == {0: round(0.1 * 403), 1: 200, 2: 100}

    def test_rows_are_subset_by_hash(self, rng):
        ds = blob_dataset(rng, [50, 50])
        spec = SubsampleSpec(mode="single_class", r_min=0.5, target_class=1, seed=3)
        out = subsample(ds, spec)
        assert row_hashes(out) <= row_hashes(ds)

    def test_explicit_counts(self, rng):
        ds = blob_dataset(rng, [40, 40, 40])
        spec = SubsampleSpec(mode="explicit_counts", counts=[10, 30, 5], seed=0)
        out = subsample(ds, spec)
        assert out.class_counts == {0: 10, 1: 30, 2: 5}

    def test_explicit_counts_exceed_available(self, rng):
        ds = blob_dataset(rng, [4, 4])
        spec = SubsampleSpec(mode="explicit_counts", counts=[10, 2], seed=0)
        with pytest.raises(ValueError, match="requested 10 of 4"):
            subsample(ds, spec)

    def test_explicit_counts_wrong_length(self, rng):
        ds = blob_dataset(rng, [4, 4])
        spec = SubsampleSpec(mode="explicit_counts", counts=[1, 2, 3], seed=0)
        with pytest.raises(ValueError, match="counts for 2 classes"):
            subsample(ds, spec)

    def test_interpolated_rmin_one_is_identity(self, rng):
        ds = blob_dataset(rng, [30, 30, 30])
        out = subsample(ds, SubsampleSpec(mode="interpolated", r_min=1.0, seed=5))
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_interpolated_retention_matches_linear_formula(self, rng):
        # aggregate over 50 seeds: per-class keeps within binomial 3 sigma
        counts = [300, 300, 300]
        ds = blob_dataset(rng, counts)
        r_min = 0.2
        seeds = 50
        kept = np.zeros(3)
        for seed in range(seeds):
            out = subsample(ds, SubsampleSpec(mode="interpolated", r_min=r_min, seed=seed))
            for cls, cnt in out.class_counts.items():
                kept[cls] += cnt
        for k in range(3):
            p = r_min + k * (1 - r_min) / 2
            mean = seeds * counts[k] * p
            sigma = np.sqrt(seeds * counts[k] * p * (1 - p))
            assert abs(kept[k] - mean) <= 3 * sigma

    def test_seeded_reproducible_and_seed_sensitive(self, rng):
        ds = blob_dataset(rng, [100, 100])
        spec_a = SubsampleSpec(mode="single_class", r_min=0.3, target_class=0, seed=7)
        out1 = subsample(ds, spec_a)
        out2 = subsample(ds, spec_a)
        np.testing.assert_array_equal(out1.features, out2.features)
        spec_b = SubsampleSpec(mode="single_class", r_min=0.3, target_class=0, seed=8)
        out3 = subsample(ds, spec_b)
        assert not np.array_equal(out1.features, out3.features)

    def test_original_order_preserved(self, rng):
        ds = blob_dataset(rng, [60, 60])
        out = subsample(
            ds, SubsampleSpec(mode="single_class", r_min=0.5, target_class=0, seed=2)
        )
        # features of the untouched class appear in original relative order
        orig = ds.features[ds.labels == 1]
        kept = out.features[out.labels == 1]
        np.testing.assert_array_equal(kept, orig)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubsampleSpec(mode="bogus")
        with pytest.raises(ValueError):
            SubsampleSpec(mode="interpolated", r_min=0.0)
        with pytest.raises(ValueError):
            SubsampleSpec(mode="single_class", r_min=0.5)
        with pytest.raises(ValueError):
            SubsampleSpec(mode="explicit_counts")
        with pytest.raises(ValueError, match=r"^subsample counts must be >= 0, got \[-1, 5\]$"):
            SubsampleSpec(mode="explicit_counts", counts=[-1, 5])
        with pytest.raises(ValueError, match=r"^subsample seed must be >= 0, got -1$"):
            SubsampleSpec(mode="interpolated", r_min=0.5, seed=-1)

    def test_unlabeled_rejected(self, rng):
        ds = Dataset(features=rng.standard_normal((5, 2)), labels=None)
        with pytest.raises(ValueError):
            subsample(ds, SubsampleSpec(mode="interpolated", r_min=0.5))
