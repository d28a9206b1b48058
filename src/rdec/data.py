"""Dataset ingestion (IDX, CSV and label files) and imbalanced subsampling.

A data or label file is opened by ``_open_maybe_gzip``, gunzipped if it starts
with the gzip signature, and read by one of two readers. ``read_exact``
reads bytes: IDX headers and payloads (big-endian, magic-checked) and model
files, so no header sizes a buffer. ``_rows`` reads text: the non-blank CSV
rows, each with the file line it ends on, for ``load_csv`` and for
``read_labels``, which reads a label file as a one-column CSV file;
``parse_int64`` reads labels exactly. Pixels are scaled to [0, 1] by
dividing by 255; ``read_idx`` keeps bytes, so rows are selected by label
before the one float64 copy of the kept rows, and ``save_idx`` writes bytes
back as read. Every CSV file rdec writes goes through ``write_csv`` (plain
text, ``\\n`` line ends). A malformed input file raises ``DataFormatError``:
the opener for a cut or corrupt gzip stream (it reads each stream to its end,
so a gzip CRC is checked past trailing bytes), ``_rows`` for text that is not
UTF-8 or a CSV cell over ``csv.field_size_limit()``, naming the line.
"""

from __future__ import annotations

import csv
import gzip
import math
import struct
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

SUBSAMPLE_MODES = ("single_class", "explicit_counts", "interpolated")


class DataFormatError(ValueError):
    """Malformed input data file."""


@dataclass
class Dataset:
    """Rows of features with optional labels. ``features`` is float64, or
    the uint8 pixels of ``read_idx`` before ``scale_pixels``."""

    features: np.ndarray  # (n, d) float64, or uint8 pixels
    labels: np.ndarray | None  # (n,) int64 or None
    name: str = "dataset"

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> dict[int, int]:
        if self.labels is None:
            return {}
        return {int(k): int(v) for k, v in sorted(Counter(self.labels.tolist()).items())}


@dataclass
class SubsampleSpec:
    mode: str
    r_min: float = 1.0
    target_class: int | None = None
    counts: list[int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SUBSAMPLE_MODES:
            raise ValueError(f"unknown subsample mode {self.mode!r}")
        if not 0.0 < self.r_min <= 1.0:
            raise ValueError(f"r_min must be in (0, 1], got {self.r_min}")
        if self.mode == "single_class" and self.target_class is None:
            raise ValueError("single_class mode needs target_class")
        if self.mode == "explicit_counts" and not self.counts:
            raise ValueError("explicit_counts mode needs counts")
        if self.counts and min(self.counts) < 0:
            raise ValueError(f"subsample counts must be >= 0, got {self.counts}")
        if self.seed < 0:
            raise ValueError(f"subsample seed must be >= 0, got {self.seed}")


@contextmanager
def _open_maybe_gzip(path, mode="rb", **text_options):
    """The file, gunzipped if gzip by content. Once the block exits cleanly the
    rest of the stream is read, and ignored, so every gzip member's CRC is
    checked. A cut or corrupt gzip stream, in the block or there, is a
    DataFormatError that starts with the path."""
    with open(path, "rb") as probe:
        opener = gzip.open if probe.read(2) == b"\x1f\x8b" else open
    try:
        with opener(path, mode, **text_options) as fh:
            yield fh
            while fh.read(1 << 16):  # small: a gzip read allocates its size, even at the end
                pass
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"{path}: bad gzip stream: {exc}") from None


READ_CHUNK = 1 << 24  # bytes per read in read_exact


def read_exact(fh, size: int, what: str) -> bytes:
    """The next ``size`` bytes of binary file ``fh``, read ``READ_CHUNK`` at a
    time, so a size its header claims never sizes a buffer; short, it raises."""
    chunks, got = [], 0
    while got < size:
        chunk = fh.read(min(READ_CHUNK, size - got))
        if not chunk:
            raise DataFormatError(f"{fh.name}: truncated {what}, wanted {size} bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def parse_int64(text: str) -> int | None:
    """The int64 integer ``text`` spells, read exactly as a ``Decimal`` (``7``,
    ``3.0``, ``1e3``), never a float64; else None. A non-number raises ValueError."""
    float(text)  # raises ValueError on text that is not a number; the value is unused
    number = Decimal(text)
    exact = number.is_finite() and number == number.to_integral_value()
    return int(number) if exact and -2**63 <= number < 2**63 else None


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by the dimensions in its header;
    the low byte of the magic number is the number of dimensions."""
    with _open_maybe_gzip(path) as fh:
        (found,) = struct.unpack(">i", read_exact(fh, 4, f"{what} magic"))
        if found != magic:
            raise DataFormatError(f"{path}: bad {what} magic 0x{found:08x} at offset 0, "
                                  f"expected 0x{magic:08x}")
        ndim = magic & 0xFF
        shape = list(struct.unpack(f">{ndim}i", read_exact(fh, 4 * ndim, f"{what} dimensions")))
        if min(shape) < 0:
            raise DataFormatError(f"{path}: negative {what} dimension in header {shape}")
        raw = read_exact(fh, math.prod(shape), f"{what} data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def read_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Read an IDX image/label pair as flattened uint8 rows, unscaled, with
    int64 labels."""
    pixels = _read_idx(images_path, IMAGES_MAGIC, "image")
    labels = _read_idx(labels_path, LABELS_MAGIC, "label").astype(np.int64)
    if pixels.shape[0] != labels.shape[0]:
        raise DataFormatError(f"count mismatch: {pixels.shape[0]} images ({images_path}) vs "
                              f"{labels.shape[0]} labels ({labels_path})")
    # the row width is spelled out: reshape cannot infer a -1 for zero rows
    rows = pixels.reshape(pixels.shape[0], math.prod(pixels.shape[1:]))
    if rows.shape[1] == 0:
        raise DataFormatError(f"{images_path}: images have no pixels, header {list(pixels.shape)}")
    return Dataset(features=rows, labels=labels, name=name)


def scale_pixels(ds: Dataset) -> Dataset:
    """The dataset with its uint8 pixels scaled to [0, 1] as float64."""
    return Dataset(features=ds.features / 255.0, labels=ds.labels, name=ds.name)


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Load an IDX image/label pair as flattened rows scaled to [0, 1]."""
    return scale_pixels(read_idx(images_path, labels_path, name))


# Rows per float64 temporary in save_idx: 1024 rows of 784 pixels are 6.4 MB,
# whatever the number of rows saved.
SAVE_CHUNK = 1024


def _to_bytes(features: np.ndarray) -> bytes:
    """Row-major pixel bytes: uint8 as is, floats scaled by 255, rounded half
    to even and clipped to 0..255 in one float64 temporary, freed on return."""
    if features.dtype == np.uint8:
        return features.tobytes()
    pixels = features * 255.0
    np.round(pixels, out=pixels)
    np.clip(pixels, 0, 255, out=pixels)
    return pixels.astype(np.uint8).tobytes()


def save_idx(ds: Dataset, images_path, labels_path) -> None:
    """Write a dataset back to an IDX pair of side x side images, or of 1 x d
    ones when the width d is no square: uint8 pixels as they are, or floats in
    [0, 1] scale rescaled to bytes (values outside are clipped). IDX-read rows
    round-trip exactly, as bytes or as k/255."""
    if ds.labels is None:
        raise ValueError("save_idx needs labels")
    if ds.features.dtype != np.uint8 and not np.issubdtype(ds.features.dtype, np.floating):
        raise ValueError(f"save_idx needs features scaled to [0, 1], got "
                         f"{ds.features.dtype} values; scale_pixels scales read_idx rows")
    bad = np.flatnonzero((ds.labels < 0) | (ds.labels > 255))
    if bad.size:
        raise ValueError(f"label {ds.labels[bad[0]]} at row {bad[0]} is outside "
                         f"0..255, the range of an IDX label byte")
    side = math.isqrt(ds.dim)
    shape = (side, side) if side * side == ds.dim else (1, ds.dim)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGES_MAGIC, ds.n, *shape))
        for start in range(0, ds.n, SAVE_CHUNK):
            fh.write(_to_bytes(ds.features[start : start + SAVE_CHUNK]))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", LABELS_MAGIC, ds.n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def _rows(path):
    """``(line, cells)`` for each non-blank row of a CSV file, ``line`` the file
    line the row ends on; a blank row has no cells, or one of only whitespace.
    A cell over the field limit or text not UTF-8 is a DataFormatError naming the line."""
    with _open_maybe_gzip(path, "rt", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if len(cells) > 1 or cells and cells[0].strip():
                    yield reader.line_num, cells
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # at a position in the decoder's chunk: find its line
            with _open_maybe_gzip(path, "rt", newline="", encoding="latin-1") as text:
                for lineno, line in enumerate(text, 1):  # latin-1 keeps bytes; lines as above
                    try:  # no line end byte is in a UTF-8 multi-byte sequence
                        line.encode("latin-1").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            raise


def read_labels(path) -> np.ndarray:
    """One exact int64 integer per non-blank row of a one-column CSV file, after
    an optional non-numeric header row."""
    values = []
    for index, (lineno, cells) in enumerate(_rows(path)):
        text = ",".join(cells).strip()  # a row of several cells is no integer either
        try:
            value = parse_int64(text)
        except ValueError:
            if index == 0:  # header row
                continue
            value = None
        if value is None:
            raise DataFormatError(f"{path}:{lineno}: {text!r} is not an int64 integer")
        values.append(value)
    return np.array(values, dtype=np.int64)


def load_csv(path, label_column: str | None = None, name: str = "csv") -> Dataset:
    """Load a rectangular numeric CSV with a header row; ``_rows`` skips blank rows.

    When label_column is given, that column becomes the integer labels (each
    an int64 integer, parsed exactly by ``parse_int64``) and the remaining
    columns the features. Rows are checked and converted to float64 as read; the
    first malformed one in file order (ragged, a non-numeric or non-finite
    feature, a label not an int64) raises DataFormatError.
    """
    rows = _rows(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise DataFormatError(f"{path}: no column named {label_column!r} in header")
        if len(header) == 1:  # a header row holds at least one cell
            raise DataFormatError(f"{path}: no feature columns in header")
        label_idx = header.index(label_column)
    features, labels = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{lineno}: ragged row with {len(row)} cells, "
                                  f"header has {len(header)}")
        try:
            values = np.array(row, dtype=np.float64)
        except ValueError:
            for col, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: non-numeric cell {cell!r} "
                                          f"in column {header[col]!r}") from None
            raise
        if label_idx is not None:
            labels.append(parse_int64(row[label_idx]))
            if labels[-1] is None:
                raise DataFormatError(f"{path}:{lineno}: label {row[label_idx]!r} "
                                      f"in column {label_column!r} is not an int64 integer")
        if not np.isfinite(values).all():  # the label, if any, is an int64 by now
            col = int(np.isfinite(values).argmin())
            raise DataFormatError(f"{path}:{lineno}: non-finite cell {row[col]!r} "
                                  f"in column {header[col]!r}")
        features.append(values if label_idx is None else np.delete(values, label_idx))
    if not features:
        raise DataFormatError(f"{path}: no data rows")
    labels = None if label_idx is None else np.array(labels, dtype=np.int64)
    return Dataset(features=np.stack(features), labels=labels, name=name)


def _csv_cell(value) -> str:
    """Floats as the repr of a Python float, None empty, the rest as str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header and rows as plain-text CSV: ``\\n`` line ends, cells as
    ``_csv_cell`` spells them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(map(_csv_cell, header))
        writer.writerows(map(_csv_cell, row) for row in rows)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write features (and labels, when present) as CSV; floats round-trip."""
    header = [f"f{i}" for i in range(ds.dim)]
    rows = (row.tolist() for row in ds.features)
    if ds.labels is not None:
        header.append(label_column)
        rows = ([*cells, label] for cells, label in zip(rows, ds.labels))
    write_csv(path, header, rows)


def filter_classes(ds: Dataset, keep) -> Dataset:
    """Keep only rows whose label is in `keep`, preserving order."""
    if ds.labels is None:
        raise ValueError("filter_classes needs a labeled dataset")
    keep = [int(k) for k in keep]
    missing = set(keep) - set(np.unique(ds.labels).tolist())
    if missing:
        raise ValueError(f"classes {sorted(missing)} absent from {ds.name}")
    return _take(ds, np.flatnonzero(np.isin(ds.labels, keep)))


def _take(ds: Dataset, indices: np.ndarray) -> Dataset:
    """The labeled rows at `indices`, in their original order."""
    indices = np.sort(indices)
    return Dataset(features=ds.features[indices], labels=ds.labels[indices], name=ds.name)


def subsample(ds: Dataset, spec: SubsampleSpec) -> Dataset:
    """Produce an imbalanced variant of a labeled dataset.

    single_class: downsample one class to round(r_min * count), others intact.
    explicit_counts: sample each class without replacement to a given count.
    interpolated: keep class k of C independently with probability
        r_min + k (1 - r_min) / (C - 1), so the lowest class is retained at
        rate r_min and the highest at rate 1.
    """
    if ds.labels is None:
        raise ValueError("subsample needs a labeled dataset")
    rng = np.random.default_rng(spec.seed)
    classes = np.unique(ds.labels)

    if spec.mode == "single_class":
        if spec.target_class not in classes:
            raise ValueError(f"class {spec.target_class} absent from {ds.name}")
        target_idx = np.flatnonzero(ds.labels == spec.target_class)
        want = int(round(spec.r_min * len(target_idx)))
        kept_target = rng.choice(target_idx, size=want, replace=False)
        others = np.flatnonzero(ds.labels != spec.target_class)
        return _take(ds, np.concatenate([kept_target, others]))

    if spec.mode == "explicit_counts":
        if len(spec.counts) != len(classes):
            raise ValueError(
                f"{len(spec.counts)} counts for {len(classes)} classes in {ds.name}"
            )
        picks = []
        for cls, want in zip(classes, spec.counts):
            idx = np.flatnonzero(ds.labels == cls)
            if want > len(idx):
                raise ValueError(
                    f"class {int(cls)}: requested {want} of {len(idx)} available"
                )
            picks.append(rng.choice(idx, size=want, replace=False))
        return _take(ds, np.concatenate(picks))

    # interpolated; rng.random() < 1.0 always holds, so rate-1 classes keep every row
    keep_mask = np.zeros(ds.n, dtype=bool)
    denom = max(len(classes) - 1, 1)
    for k, cls in enumerate(classes):
        prob = spec.r_min + k * (1.0 - spec.r_min) / denom
        idx = np.flatnonzero(ds.labels == cls)
        keep_mask[idx] = rng.random(len(idx)) < prob
    return _take(ds, np.flatnonzero(keep_mask))
