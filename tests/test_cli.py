import contextlib
import gzip
import hashlib
import io
import json
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from rdec import cli, data, trainer
from rdec.cli import PARSERS, SCHEMA, TRAINING_KEYS, ExperimentConfig, load_config, main
from rdec.data import (
    DataFormatError,
    Dataset,
    SubsampleSpec,
    filter_classes,
    load_csv,
    load_idx,
    read_idx,
    save_csv,
    save_idx,
    scale_pixels,
    subsample,
)
from rdec.dec import InfiniteDivergenceError
from rdec.network import Network, build_network, encode, load_model, save_model
from rdec.trainer import TrainConfig


@pytest.fixture(scope="module")
def idx_fixture(tmp_path_factory):
    """120 tiny 4x4 'images': class 0 bright top-left, class 1 bottom-right."""
    root = tmp_path_factory.mktemp("idxdata")
    rng = np.random.default_rng(0)
    n_per = 60
    images = np.zeros((2 * n_per, 16))
    labels = np.zeros(2 * n_per, dtype=np.int64)
    for i in range(n_per):
        img = rng.uniform(0.0, 0.15, size=(4, 4))
        img[:2, :2] += rng.uniform(0.6, 0.85)
        images[i] = img.ravel()
        img = rng.uniform(0.0, 0.15, size=(4, 4))
        img[2:, 2:] += rng.uniform(0.6, 0.85)
        images[n_per + i] = img.ravel()
        labels[n_per + i] = 1
    ds = Dataset(features=np.clip(images, 0, 1), labels=labels, name="toy")
    img_path = root / "images-idx3-ubyte"
    lab_path = root / "labels-idx1-ubyte"
    save_idx(ds, img_path, lab_path)
    return img_path, lab_path


@pytest.fixture(scope="module", autouse=True)
def pretrain_lr():
    """Every pretraining run here steps at SGD rate 0.1, not the 784-pixel
    ``trainer.PRETRAIN_LR``: the fixture's images have 16 pixels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "PRETRAIN_LR", 0.1)
        yield


BASE_CONFIG = """
data.images = {images}
data.labels = {labels}
k = 2
latent_dim = 2
seed = 3
method = rdec
gamma = 1
tau = 10
max_iter = 40
batch_size = 32
pretrain.epochs = 2
kmeans.restarts = 5
model = {model}
"""


def write_config(tmp_path, idx_fixture, name="exp.cfg", extra="", model="model.bin"):
    img, lab = idx_fixture
    text = BASE_CONFIG.format(images=img, labels=lab, model=model) + extra
    path = tmp_path / name
    path.write_text(text)
    return path


class TestPretrainCommand:
    def test_writes_model_and_log(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "model.bin").is_file()
        log = json.loads((out / "pretrain_log.json").read_text())
        assert len(log["epochs"]) == 2
        assert (out / "manifest.json").is_file()
        assert (out / "config.txt").read_text() == cfg.read_text()

    def test_same_seed_byte_identical_model(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["pretrain", "--config", str(cfg), "--out", str(out_a)])
        main(["pretrain", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()

    def test_missing_dataset_exits_2_no_outputs(self, tmp_path, idx_fixture):
        img, lab = idx_fixture
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            BASE_CONFIG.format(images=tmp_path / "nope", labels=lab, model="m.bin")
        )
        out = tmp_path / "never"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, idx_fixture):
    tmp = tmp_path_factory.mktemp("pre")
    cfg = write_config(tmp, idx_fixture)
    out = tmp / "pre"
    assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "model.bin"


@pytest.fixture(scope="module")
def unlabeled_csv(tmp_path_factory):
    """80 rows of 4 features in two blobs of 40, with no label column."""
    path = tmp_path_factory.mktemp("unlabeled") / "rows.csv"
    rng = np.random.default_rng(0)
    centers = np.repeat([[0.2, 0.2, 0.8, 0.8], [0.8, 0.8, 0.2, 0.2]], 40, axis=0)
    save_csv(Dataset(centers + rng.normal(0.0, 0.05, size=(80, 4)), None), path)
    return path


class TestTrainCommand:
    def test_kmeans_needs_no_model(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture, extra="\n", model="absent.bin")
        out = tmp_path / "km"
        code = main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "kmeans"
        assert report["final_metrics"]["acc"] >= 0.9
        assert (out / "assignments.csv").read_text().splitlines()[0] == "assignment"
        assert (out / "metrics.csv").is_file()
        assert (out / "curves.csv").is_file()
        assert not (out / "embeddings.csv").exists()

    @pytest.mark.parametrize("method", ["kmeans", "ae_kmeans", "dec", "rdec"])
    def test_unlabeled_csv_trains_without_metrics(self, tmp_path, unlabeled_csv, method):
        model = tmp_path / "pre" / "model.bin"
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"data.path = {unlabeled_csv}\nk = 2\n"
                       f"latent_dim = 2\nmethod = {method}\ntau = 5\nmax_iter = 20\n"
                       f"batch_size = 16\npretrain.epochs = 2\nmodel = {model}\n")
        if method != "kmeans":
            assert main(["pretrain", "--config", str(cfg), "--out", str(model.parent)]) == 0
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "metrics.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["final_metrics"] is None
        assert report["checkpoints"]
        assert all(c["acc"] is None and c["ari"] is None for c in report["checkpoints"])
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0].endswith(",acc")
        assert all(line.endswith(",") for line in curves[1:])
        if method == "kmeans":
            assert not (out / "embeddings.csv").exists()
        else:
            emb = (out / "embeddings.csv").read_text().splitlines()
            assert (emb[0], len(emb)) == ("z0,z1,assignment", 81)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["training"] == asdict(load_config(cfg).train)
        assert "subsample" not in manifest

    def test_csv_with_byte_order_mark_and_blank_lines(self, tmp_path, idx_fixture):
        # the mark hid the label column and a blank line was a ragged row: exit 2
        save_csv(load_idx(*idx_fixture), tmp_path / "plain.csv")
        text = (tmp_path / "plain.csv").read_text()
        (tmp_path / "marked.csv").write_bytes(("\ufeff" + text + "\n").encode())
        for name in ("plain", "marked"):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"data.path = {tmp_path / name}.csv\n"
                           "data.label_column = label\nk = 2\nmethod = kmeans\n")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "marked" / "assignments.csv").read_bytes()
                == (tmp_path / "plain" / "assignments.csv").read_bytes())

    def test_rdec_end_to_end(self, tmp_path, idx_fixture, pretrained):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "rdec"
        assert report["stop_reason"] in ("converged", "max_iterations")
        assert len(report["checkpoints"]) >= 1
        lines = (out / "assignments.csv").read_text().splitlines()
        assert len(lines) == 121
        # latent dim 2: embedding dump present with one row per sample
        emb = (out / "embeddings.csv").read_text().splitlines()
        assert emb[0] == "z0,z1,assignment,label"
        assert len(emb) == 121
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "iteration,clustering_loss,vat_loss,total_loss,acc"
        assert len(curves) >= 2

    def test_embeddings_are_the_encoder_outputs(self, tmp_path, idx_fixture, pretrained):
        # ae_kmeans leaves the loaded encoder unchanged, so the dump must equal its encode
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        out = tmp_path / "ae"
        assert main(["train", "--config", str(cfg), "--set", "method=ae_kmeans",
                     "--out", str(out)]) == 0
        rows = (out / "embeddings.csv").read_text().splitlines()[1:]
        z = np.array([[float(cell) for cell in row.split(",")[:2]] for row in rows])
        encoder, _ = load_model(pretrained)
        expected = encode(encoder, load_idx(*idx_fixture).features)
        assert z.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("keys", [("data.images",), ("data.labels",),
                                      ("data.images", "data.labels")])
    def test_empty_file_list_exits_2(self, tmp_path, idx_fixture, capsys, keys):
        img, lab = idx_fixture
        cfg = write_config(tmp_path, ("," if "data.images" in keys else img,
                                      "," if "data.labels" in keys else lab))
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(out)]) == 2
        assert keys[0] in capsys.readouterr().err
        assert not out.exists()

    # an empty model read as the working directory ("input files not found: .")
    @pytest.mark.parametrize("assignments", [("model=",)])
    def test_empty_key_exits_2(self, tmp_path, idx_fixture, capsys, assignments):
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "r"
        sets = [arg for assignment in assignments for arg in ("--set", assignment)]
        assert main(["train", "--config", str(cfg), *sets, "--out", str(out)]) == 2
        key = assignments[-1].removesuffix("=")
        assert capsys.readouterr().err == f"error: config key {key!r} is missing or empty\n"
        assert not out.exists()

    def test_empty_out_falls_back_to_runs_command(self, tmp_path, idx_fixture, monkeypatch):
        # it published a hidden ".-<timestamp>" directory in the working directory
        cfg = write_config(tmp_path, idx_fixture)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--set", "out="]) == 0
        assert (tmp_path / "runs" / "train" / "manifest.json").is_file()
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_image_files_of_different_widths_exit_2(self, tmp_path, idx_fixture, capsys):
        # 24-pixel images, then the fixture's 16-pixel ones
        wide, wide_labels = tmp_path / "wide", tmp_path / "wide-labels"
        wide.write_bytes(struct.pack(">iiii", 0x803, 3, 4, 6) + bytes(72))
        wide_labels.write_bytes(struct.pack(">ii", 0x801, 3) + bytes(3))
        img, lab = idx_fixture
        cfg = write_config(tmp_path, (f"{wide},{img}", f"{wide_labels},{lab}"))
        out = tmp_path / "r"
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: data.images: {wide} has 24-pixel images, "
                                           f"{img} has 16-pixel images\n")
        assert not out.exists()

    def test_idx_pairs_join_in_order(self, tmp_path, monkeypatch):
        # pair p holds rows whose first pixels and labels count on from 10 * p
        files = []
        for pair, rows in enumerate((2, 3, 1)):
            pixels = np.arange(rows * 4, dtype=np.uint8).reshape(rows, 4) + 10 * pair
            files.append((tmp_path / f"images{pair}", tmp_path / f"labels{pair}"))
            save_idx(Dataset(pixels, np.arange(rows) + 10 * pair), *files[-1])
        images, labels = ([str(path) for path in column] for column in zip(*files))
        ds = cli._read_idx_files(images, labels, name="three")
        assert ds.name == "three" and ds.features.dtype == np.uint8
        assert ds.features[:, 0].tolist() == [0, 4, 10, 14, 18, 20]
        assert ds.labels.tolist() == [0, 1, 10, 11, 12, 20]
        # a third image file of another width is named with the first
        save_idx(Dataset(np.zeros((1, 9), dtype=np.uint8), np.zeros(1, dtype=np.int64)),
                 *files[2])
        with pytest.raises(cli.ConfigError) as info:
            cli._read_idx_files(images, labels, name="three")
        assert str(info.value) == (f"data.images: {images[0]} has 4-pixel images, "
                                   f"{images[2]} has 9-pixel images")
        # one pair is returned as read
        read = Dataset(np.zeros((1, 4), dtype=np.uint8), np.zeros(1, dtype=np.int64))
        monkeypatch.setattr(cli, "read_idx", lambda *args, **kwargs: read)
        assert cli._read_idx_files(images[:1], labels[:1], name="one") is read

    def test_method_and_gamma_overrides(self, tmp_path, idx_fixture, pretrained):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        out = tmp_path / "dec"
        code = main(["train", "--config", str(cfg), "--set", "method=dec",
                     "--set", "gamma=0", "--set", "max_iter=20", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "dec"
        assert all(rec["vat_loss"] == 0.0 for rec in report["iterations"])
        assert len(report["iterations"]) <= 20
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["settings"]["gamma"], manifest["settings"]["max_iter"]) == (0.0, 20)
        assert (out / "config.txt").read_text() == cfg.read_text()

    def test_never_overwrites_run_dir(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "same"
        main(["train", "--config", str(cfg), "--set", "method=kmeans", "--out", str(out)])
        main(["train", "--config", str(cfg), "--set", "method=kmeans", "--out", str(out)])
        # a trailing slash must not put the suffixed run inside the existing one
        main(["train", "--config", str(cfg), "--set", "method=kmeans", "--out", f"{out}/"])
        siblings = [p for p in tmp_path.iterdir() if p.name.startswith("same")]
        assert len(siblings) == 3
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_latent_dim_mismatch_exits_2(self, tmp_path, idx_fixture, pretrained,
                                         capsys, monkeypatch):
        # The model's embedding width is checked before the data loads.
        loads = []
        monkeypatch.setattr(cli, "read_idx", lambda *args, **kwargs: loads.append(args))
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra="")
        text = cfg.read_text().replace("latent_dim = 2", "latent_dim = 5")
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "model embeds to 2 dims, config says 5" in capsys.readouterr().err
        assert loads == []
        assert not (tmp_path / "r").exists()

    def test_model_for_other_inputs_exits_2(self, tmp_path, idx_fixture, capsys):
        # The fixture's images have 16 pixels; this model reads 25.
        model = tmp_path / "wide.bin"
        save_model(model, *build_network(25, 2, seed=0))
        cfg = write_config(tmp_path, idx_fixture, model=str(model))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: model expects 25-dim inputs, dataset has 16\n"
        assert not (tmp_path / "r").exists()

    def test_unknown_key_exits_2(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture, extra="bogus_key = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_duplicate_key_exits_2(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture, extra="seed = 4\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_method_exits_2(self, tmp_path, idx_fixture, capsys):
        cfg = write_config(tmp_path, idx_fixture)
        cfg.write_text(cfg.read_text().replace("method = rdec", "method = spectral"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "spectral" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_kmeans_restarts_exits_2_before_the_data_loads(self, tmp_path, idx_fixture,
                                                                capsys, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "read_idx", no_load)
        cfg = write_config(tmp_path, idx_fixture)
        cfg.write_text(cfg.read_text().replace("kmeans.restarts = 5", "kmeans.restarts = 0"))
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(tmp_path / "r")]) == 2
        assert "kmeans_restarts" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, method, key, value", [
        ("train", "kmeans", "k", 0),
        ("train", "dec", "k", 1),
        ("train", "rdec", "k", 1),
        ("pretrain", "rdec", "latent_dim", 0),
    ])
    def test_too_small_k_or_latent_dim_exits_2(self, tmp_path, idx_fixture, pretrained,
                                               capsys, command, method, key, value):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        text = cfg.read_text().replace("method = rdec", f"method = {method}")
        cfg.write_text(text.replace(f"{key} = 2", f"{key} = {value}"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_unknown_optimizer_kind_exits_2(self, tmp_path, idx_fixture, capsys, command):
        # Both phases always use SGD momentum: no optimizer key is left to set.
        cfg = write_config(tmp_path, idx_fixture, extra="finetune.optimizer = sgd_momentum\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "unknown key 'finetune.optimizer'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    @pytest.mark.parametrize("case", ["idx-bad-magic", "idx-truncated", "csv-ragged",
                                      "csv-non-numeric", "csv-fraction-label",
                                      "csv-non-finite", "idx-oversized-header",
                                      "idx-oversized-header-gz", "idx-cut-gz"])
    def test_malformed_data_file_exits_2(self, tmp_path, idx_fixture, capsys, command,
                                         case):
        img, lab = idx_fixture
        if case.startswith("idx"):
            bad = tmp_path / "images-idx3-ubyte"
            if case == "idx-bad-magic":
                bad.write_bytes(struct.pack(">i", 0x801) + img.read_bytes()[4:])
                message = f"{bad}: bad image magic 0x00000801 at offset 0, expected 0x00000803"
            elif case.startswith("idx-oversized-header"):
                # a header that claims more than any file holds was a MemoryError, exit 1
                content = struct.pack(">iiii", 0x803, 2**31 - 1, 32768, 32768) + bytes(100)
                bad.write_bytes(gzip.compress(content) if case.endswith("gz") else content)
                message = (f"{bad}: truncated image data, wanted 2305843008139952128 bytes, "
                           "got 100")
            elif case == "idx-cut-gz":  # it was a bare EOFError naming no file, exit 1
                content = gzip.compress(img.read_bytes())
                bad.write_bytes(content[: len(content) // 2])
                message = (f"{bad}: bad gzip stream: Compressed file ended before the "
                           "end-of-stream marker was reached")
            else:
                bad.write_bytes(img.read_bytes()[:-5])
                message = f"{bad}: truncated image data, wanted 1920 bytes, got 1915"
            cfg = write_config(tmp_path, (bad, lab))
        else:
            last_row, message = {
                "csv-ragged": ("3.0", "ragged row with 1 cells, header has 2"),
                "csv-non-numeric": ("oops,1", "non-numeric cell 'oops' in column 'a'"),
                "csv-fraction-label": ("3.0,1.5", "label '1.5' in column 'label' is not "
                                                  "an int64 integer"),
                # pretrain stopped at its first batch and train in K-means, exit 1
                "csv-non-finite": ("nan,1", "non-finite cell 'nan' in column 'a'"),
            }[case]
            path = tmp_path / "in.csv"
            path.write_text(f"a,label\n1.0,0\n{last_row}\n")
            message = f"{path}:3: {message}"
            cfg = tmp_path / "csv.cfg"
            cfg.write_text(f"data.path = {path}\n"
                           "data.label_column = label\nk = 2\n")
        cfg.write_text(cfg.read_text() + "subsample.mode = interpolated\n")
        assert main([command, "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    @pytest.mark.parametrize("case", ["csv-label-only", "csv-header-only", "idx-no-pixels",
                                      "idx-no-rows"])
    def test_data_without_features_or_rows_exits_2(self, tmp_path, capsys, command, case):
        if case.startswith("csv"):
            path = tmp_path / "in.csv"
            if case == "csv-label-only":
                path.write_text("label\n0\n1\n0\n1\n")
                message = f"{path}: no feature columns in header"
            else:
                path.write_text("a,label\n")
                message = f"{path}: no data rows"
            cfg = tmp_path / "csv.cfg"
            cfg.write_text(f"data.path = {path}\n"
                           "data.label_column = label\nk = 2\n")
        else:
            images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
            if case == "idx-no-pixels":  # four 0x0 images
                images.write_bytes(struct.pack(">iiii", 0x803, 4, 0, 0))
                labels.write_bytes(struct.pack(">ii", 0x801, 4) + bytes(4))
                message = f"{images}: images have no pixels, header [4, 0, 0]"
            else:
                save_idx(Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64)), images,
                         labels)
                message = "the data supplies no rows"
            cfg = write_config(tmp_path, (images, labels))
        if command == "subsample":
            cfg.write_text(cfg.read_text() + "subsample.mode = interpolated\n")
        assert main([command, "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("case", ["bad-magic", "network-count", "truncated",
                                      "unknown-activation", "oversized-layer", "no-layers",
                                      "encoder-chain", "decoder-chain",
                                      "decoder-not-mirrored", "decoder-latent",
                                      "non-finite"])
    def test_malformed_model_file_exits_2(self, tmp_path, idx_fixture, capsys, monkeypatch,
                                          case):
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "read_idx", no_load)
        model = tmp_path / "model.bin"
        # a 16-500-500-2000-2 encoder and its 2-2000-500-500-16 decoder
        encoder, decoder = build_network(16, 2, seed=0)
        if case == "no-layers":
            encoder = Network([])
            message = f"{model}: encoder has no layers"
        elif case == "encoder-chain":
            encoder.layers[1].weight = np.zeros((400, 500))
            message = f"{model}: encoder layer 2 has fan-in 400, layer 1 has fan-out 500"
        elif case == "decoder-chain":
            decoder.layers[2].weight = np.zeros((400, 500))
            message = f"{model}: decoder layer 3 has fan-in 400, layer 2 has fan-out 500"
        elif case == "decoder-not-mirrored":
            decoder = build_network(25, 2, seed=0)[1]
            message = f"{model}: decoder layer 4 has fan-out 25, the encoder's input width is 16"
        elif case == "decoder-latent":
            decoder = build_network(16, 3, seed=0)[1]
            message = f"{model}: decoder layer 1 has fan-in 3, the encoder's output width is 2"
        elif case == "non-finite":  # it loaded, and K-means failed on the embedding, exit 1
            encoder.layers[0].weight[3, 7] = np.nan
            message = f"{model}: encoder layer 1 holds non-finite values"
        save_model(model, encoder, decoder)
        data = bytearray(model.read_bytes())
        # magic (8 bytes), network count (4), then the encoder's layer count
        # (4) and its first layer header: fan-in, fan-out, activation code
        if case == "bad-magic":
            data[:8] = b"NOTAMODL"
            message = f"{model}: bad model magic b'NOTAMODL', expected b'RDECNET1'"
        elif case == "network-count":
            data[8:12] = struct.pack("<I", 3)
            message = f"{model}: expected encoder+decoder, found 3 networks"
        elif case == "truncated":
            del data[100:]
            message = f"{model}: truncated model file, wanted 64000 bytes, got 48"
        elif case == "unknown-activation":
            data[24] = 7
            message = f"{model}: unknown activation code 7"
        elif case == "oversized-layer":
            # a fan-in of 2**32 - 1 declares a 17 TB first weight matrix
            data[16:20] = struct.pack("<I", 2**32 - 1)
            message = (f"{model}: truncated model file, wanted {8 * (2**32 - 1) * 500} bytes, "
                       f"got {len(data) - 52}")
        model.write_bytes(bytes(data))
        cfg = write_config(tmp_path, idx_fixture, model=str(model))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("method, rows, assignments", [
        ("kmeans", 120, []),
        ("dec", 120, []),
        ("rdec", 60, ["data.classes=1"]),
    ], ids=["kmeans", "dec", "rdec-one-class"])
    def test_k_beyond_the_rows_exits_2(self, tmp_path, idx_fixture, pretrained, capsys,
                                       monkeypatch, method, rows, assignments):
        def no_clustering(*args, **kwargs):
            raise AssertionError("clustering ran")

        monkeypatch.setattr(cli, "run_clustering", no_clustering)
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "r"),
                "--set", f"method={method}", "--set", f"k={rows + 1}"]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: k={rows + 1} exceeds the {rows} rows the data supplies\n")
        assert not (tmp_path / "r").exists()

    def test_a_diverging_run_still_exits_1(self, tmp_path, idx_fixture, capsys,
                                           monkeypatch):
        # InfiniteDivergenceError is a ValueError, but not a bad input
        def diverge(*args, **kwargs):
            raise InfiniteDivergenceError("q is zero on the support of p")

        monkeypatch.setattr(cli, "run_clustering", diverge)
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "error: InfiniteDivergenceError: q is zero on the support of p\n")
        assert not (tmp_path / "r").exists()


class TestRunOutputs:
    @pytest.mark.parametrize("capture", ["capsys", "redirect_stderr"])
    def test_progress_lines_go_to_the_current_stderr(self, tmp_path, idx_fixture, capsys,
                                                     capture):
        cfg = write_config(tmp_path, idx_fixture, model=str(tmp_path / "pre" / "model.bin"))
        argvs = [["pretrain", "--config", str(cfg), "--out", str(tmp_path / "pre")],
                 ["train", "--config", str(cfg), "--set", "method=dec",
                  "--out", str(tmp_path / "dec")]]
        if capture == "capsys":
            assert [main(argv) for argv in argvs] == [0, 0]
            err = capsys.readouterr().err
        else:
            with contextlib.redirect_stderr(io.StringIO()) as stream:
                assert [main(argv) for argv in argvs] == [0, 0]
            err = stream.getvalue()
        epochs = json.loads((tmp_path / "pre" / "pretrain_log.json").read_text())["epochs"]
        checkpoints = json.loads((tmp_path / "dec" / "report.json").read_text())["checkpoints"]
        assert len(epochs) == 2 and len(checkpoints) >= 2
        lines = err.splitlines()
        assert lines[:2] == [f"[pretrain] epoch {e['epoch']}: loss {e['loss']:.6f}"
                             for e in epochs]
        first, second = checkpoints[:2]
        assert lines[2] == f"[finetune] iter 0: loss {first['loss']:.6f} acc {first['acc']:.4f}"
        assert lines[3] == (f"[finetune] iter {second['iteration']}: loss {second['loss']:.6f} "
                            f"acc {second['acc']:.4f} delta {second['label_change_rate']:.4f}")
        assert len(lines) == 2 + len(checkpoints)

    def test_curves_columns_are_the_iteration_record_fields(self, tmp_path, idx_fixture,
                                                            pretrained):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        names = [f.name for f in fields(trainer.IterationRecord)]
        header, *rows = (line.split(",") for line in
                         (out / "curves.csv").read_text().splitlines())
        assert header == names + ["acc"]
        records = json.loads((out / "report.json").read_text())["iterations"]
        assert len(rows) == len(records) > 0
        for row, record in zip(rows, records):
            assert [float(cell) for cell in row[:-1]] == [record[name] for name in names]


# Every training key set away from its default, and the TrainConfig it must give.
NON_DEFAULT_TRAINING = """
method = dec
seed = 7
gamma = 0.5
epsilon = 0.25
xi = 4
tau = 9
max_iter = 33
batch_size = 17
pretrain.epochs = 11
kmeans.restarts = 3
"""

NON_DEFAULT_TRAIN_CONFIG = TrainConfig(
    method="dec", seed=7, gamma=0.5, epsilon=0.25, xi=4.0,
    tau=9, max_iter=33, batch_size=17, pretrain_epochs=11, kmeans_restarts=3,
)


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_spells_out_the_defaults(path):
    # A shipped config runs at the TrainConfig defaults but for its method, gamma
    # and seed, and restates none of them: TrainConfig alone spells them out.
    cfg = load_config(path)
    train = cfg.train
    assert train == replace(TrainConfig(), method=train.method, gamma=train.gamma,
                            seed=train.seed)
    defaults = asdict(TrainConfig())
    assert [key for key, value in cfg.settings.items()
            if key in TRAINING_KEYS and key not in ("method", "seed")
            and value == defaults[TRAINING_KEYS[key]]] == []


SINGLE_CLASS_0 = {"mode": "single_class", "r_min": 0.1, "target_class": 0, "counts": None,
                  "seed": 1234}
IMBALL_COUNTS = {"mode": "explicit_counts", "r_min": 1.0, "target_class": None,
                 "counts": [10, 30, 50, 1000, 200, 500, 300, 6000, 4000, 800], "seed": 1234}
INTERPOLATED_01 = {"mode": "interpolated", "r_min": 0.1, "target_class": None, "counts": None,
                   "seed": 1234}
# What each shipped config's subsample.* keys resolve to; None without a mode.
SHIPPED_SUBSAMPLE = {
    "mnist06_dec.cfg": None,
    "mnist06_imb_dec.cfg": SINGLE_CLASS_0,
    "mnist06_imb_pretrain.cfg": SINGLE_CLASS_0,
    "mnist06_imb_rdec.cfg": SINGLE_CLASS_0,
    "mnist06_pretrain.cfg": None,
    "mnist06_rdec.cfg": None,
    "mnist_ae_kmeans.cfg": None,
    "mnist_dec.cfg": None,
    "mnist_imb0_dec.cfg": SINGLE_CLASS_0,
    "mnist_imb0_pretrain.cfg": SINGLE_CLASS_0,
    "mnist_imb0_rdec.cfg": SINGLE_CLASS_0,
    "mnist_imball_dec.cfg": IMBALL_COUNTS,
    "mnist_imball_pretrain.cfg": IMBALL_COUNTS,
    "mnist_imball_rdec.cfg": IMBALL_COUNTS,
    "mnist_kmeans.cfg": None,
    "mnist_pretrain.cfg": None,
    "mnist_rdec.cfg": None,
    "mnist_rmin01_dec.cfg": INTERPOLATED_01,
    "mnist_rmin01_pretrain.cfg": INTERPOLATED_01,
    "mnist_rmin01_rdec.cfg": INTERPOLATED_01,
}


def test_every_shipped_config_has_a_subsample_pin():
    assert sorted(SHIPPED_SUBSAMPLE) == [path.name for path in CONFIGS]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_resolves_its_subsample_spec(path):
    spec = load_config(path).subsample
    expected = SHIPPED_SUBSAMPLE[path.name]
    assert (None if spec is None else vars(spec)) == expected


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_reads_its_idx_files(path, tmp_path, monkeypatch):
    # The files are named relative to the working directory; empty ones stand in.
    monkeypatch.chdir(tmp_path)
    cfg = load_config(path)
    images, labels = cfg.settings["data.images"], cfg.settings["data.labels"]
    for name in images + labels:
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).touch()
    source = cli._data_source(cfg)
    assert source.files == [Path(name) for name in images + labels]
    assert source.outputs == {"images": "images-idx3-ubyte", "labels": "labels-idx1-ubyte"}
    assert source.save is save_idx
    assert (source.load.func, source.load.args) == (
        cli._read_idx_files, (images, labels, cfg.settings["data.name"]))
    # an empty data.path is unset: the IDX pairs are still read
    assert cli._data_source(load_config(path, ["data.path="])).files == source.files


def test_every_subsample_key_lands_on_its_field(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text("subsample.mode = explicit_counts\nsubsample.r_min = 0.5\n"
                    "subsample.target_class = 3\nsubsample.counts = 4,5\n"
                    "subsample.seed = 9\nseed = 7\n")
    cfg = load_config(path)
    assert ({key for key in cfg.settings if key.startswith("subsample.")}
            == {key for key in SCHEMA if key.startswith("subsample.")})
    assert vars(cfg.subsample) == {"mode": "explicit_counts", "r_min": 0.5,
                                   "target_class": 3, "counts": [4, 5], "seed": 9}


def test_subsample_seed_defaults_to_the_training_seed():
    spec = ExperimentConfig(settings={"subsample.mode": "interpolated", "seed": 7}).subsample
    assert (spec.seed, spec.r_min) == (7, 1.0)


class TestTrainConfigMapping:
    def test_every_training_key_lands_on_its_field(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(NON_DEFAULT_TRAINING)
        cfg = load_config(path)
        assert set(cfg.settings) == set(TRAINING_KEYS)
        train = cfg.train
        assert train == NON_DEFAULT_TRAIN_CONFIG
        assert (cfg.train.seed, cfg.train.method) == (7, "dec")

    def test_every_field_is_set_by_exactly_one_key(self):
        assert sorted(TRAINING_KEYS.values()) == sorted(f.name for f in fields(TrainConfig))
        # each key's name and parser, as the hand-written table spelled them
        assert {key: PARSERS[key] for key in TRAINING_KEYS} == {
            "method": str, "gamma": float, "epsilon": float, "xi": float,
            "tau": int, "max_iter": int, "batch_size": int,
            "pretrain.epochs": int, "kmeans.restarts": int, "seed": int,
        }
        assert len(PARSERS) == len(SCHEMA) + len(TRAINING_KEYS) == 15 + 10

    def test_empty_config_gives_the_defaults(self, tmp_path):
        assert ExperimentConfig().train == TrainConfig()
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing set\n")
        cfg = load_config(path)
        assert cfg.train == TrainConfig()
        assert (cfg.train.seed, cfg.train.method) == (TrainConfig().seed, TrainConfig().method)

    def test_each_key_changes_only_its_field(self):
        defaults = TrainConfig()
        base = ExperimentConfig(settings={"epsilon": 0.5}).train
        assert base == replace(defaults, epsilon=0.5)
        epochs = ExperimentConfig(settings={"pretrain.epochs": 5}).train
        assert epochs == replace(defaults, pretrain_epochs=5)

    @pytest.mark.parametrize("command, extra", [
        ("pretrain", ""),
        ("train", "method = kmeans\n"),
        ("subsample", "subsample.mode = explicit_counts\nsubsample.counts = 10,25\n"),
    ])
    def test_each_command_resolves_its_inputs_once(self, tmp_path, idx_fixture,
                                                   monkeypatch, command, extra):
        calls = {"TrainConfig": 0, "_data_source": 0}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counting("TrainConfig")
        counting("_data_source")
        cfg = write_config(tmp_path, idx_fixture)
        cfg.write_text(cfg.read_text().replace("method = rdec\n", "") + extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert calls == {"TrainConfig": 1, "_data_source": 1}

    def test_bad_vat_value_is_a_config_error(self, tmp_path, idx_fixture, capsys,
                                             monkeypatch):
        # Each exits 2 with the message TrainConfig raises before the data loads.
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "read_idx", no_load)
        for line, message in [("epsilon = 0", "epsilon must be positive, got 0.0"),
                              ("xi = -1", "xi must be positive, got -1.0"),
                              ("gamma = nan", "gamma must be finite, got nan"),
                              ("epsilon = inf", "epsilon must be finite, got inf")]:
            cfg = write_config(tmp_path, idx_fixture)
            # the line takes the place of the base config's gamma
            cfg.write_text(cfg.read_text().replace("gamma = 1\n", "") + line + "\n")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "r").exists()


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


class TestSetOption:
    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    @pytest.mark.parametrize("assignments, message", [
        (["seed=9", "bogus=1"], "--set:2: unknown key 'bogus'"),
        (["alpha=2"], "--set:1: unknown key 'alpha'"),  # fixed at 1, as in DEC
        (["ip=1"], "--set:1: unknown key 'ip'"),  # VAT probes once
        (["s=2"], "--set:1: unknown key 's'"),  # DEC's square
        (["pretrain.momentum=0.9"], "--set:1: unknown key 'pretrain.momentum'"),  # fixed at 0.9
        (["finetune.momentum=0.9"], "--set:1: unknown key 'finetune.momentum'"),  # fixed at 0.9
        (["sigma=0.01"], "--set:1: unknown key 'sigma'"),  # DEC's stop threshold
        (["finetune.lr=0.01"], "--set:1: unknown key 'finetune.lr'"),  # fixed at 0.01
        (["pretrain.lr=1.0"], "--set:1: unknown key 'pretrain.lr'"),  # fixed at 1.0
        (["gamma=high"], "--set:1: bad value for gamma: "
                         "could not convert string to float: 'high'"),
        (["seed=9", "tau=5", "seed=10"], "--set:3: duplicate key 'seed'"),
        (["gamma"], "--set:1: expected 'key = value', got 'gamma'"),
        (["gamma=-1"], "gamma must be >= 0, got -1.0"),
        # data.path, set and non-empty, chooses CSV, else the IDX keys are read
        (["data.format=parquet"], "--set:1: unknown key 'data.format'"),
        (["data.format=csv"], "--set:1: unknown key 'data.format'"),
        (["data.format="], "--set:1: unknown key 'data.format'"),
        (["data.images=a,b"], "2 image files vs 1 label files"),
        (["subsample.mode=bogus"], "unknown subsample mode 'bogus'"),
        (["subsample.r_min=0"], "r_min must be in (0, 1], got 0.0"),
        (["subsample.mode=single_class"], "single_class mode needs target_class"),
        (["subsample.counts="], "explicit_counts mode needs counts"),
        (["subsample.counts=-1,5"], "subsample counts must be >= 0, got [-1, 5]"),
        (["subsample.seed=-1"], "subsample seed must be >= 0, got -1"),
    ], ids=["unknown-key", "alpha", "ip", "s", "pretrain-momentum", "finetune-momentum",
            "sigma", "finetune-lr", "pretrain-lr", "bad-value", "duplicate", "no-equals",
            "invalid", "unknown-format", "format-csv", "format-empty", "image-label-counts",
            "subsample-mode", "subsample-r-min", "single-class-no-target",
            "explicit-counts-no-counts", "negative-count", "negative-subsample-seed"])
    def test_error_exits_2_before_the_data_loads(self, tmp_path, idx_fixture, capsys,
                                                 monkeypatch, command, assignments,
                                                 message):
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "read_idx", no_load)
        cfg = write_config(tmp_path, idx_fixture,
                           extra="subsample.mode = explicit_counts\nsubsample.counts = 10,25\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "r")]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    @pytest.mark.parametrize("assignments, key", [
        (["subsample.r_min=0.1"], "subsample.r_min"),
        (["subsample.seed=5", "subsample.counts=1,2"], "subsample.seed"),
    ], ids=["r-min", "first-of-two"])
    def test_a_subsample_key_without_a_mode_exits_2_before_the_data_loads(
            self, tmp_path, idx_fixture, capsys, monkeypatch, command, assignments, key):
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "read_idx", no_load)
        cfg = write_config(tmp_path, idx_fixture)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "r")]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {key} is set but subsample.mode is not\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    @pytest.mark.parametrize("assignments, message", [
        (["data.classes=0,11"], "classes [11] absent from dataset"),
        (["subsample.mode=single_class", "subsample.target_class=11"],
         "class 11 absent from dataset"),
        (["subsample.counts=10,25,5"], "3 counts for 2 classes in dataset"),
        (["subsample.counts=10,61"], "class 1: requested 61 of 60 available"),
        # {csv} is a CSV with no label column
        (["data.path={csv}", "data.classes=0"],
         "filter_classes needs a labeled dataset"),
        (["data.path={csv}", "subsample.mode=single_class",
          "subsample.target_class=0"], "subsample needs a labeled dataset"),
    ], ids=["absent-class", "absent-target-class", "counts-length", "too-many-rows",
            "unlabeled-classes", "unlabeled-subsample"])
    def test_config_the_data_cannot_supply_exits_2(self, tmp_path, idx_fixture, unlabeled_csv,
                                                   capsys, command, assignments, message):
        cfg = write_config(tmp_path, idx_fixture,
                           extra="subsample.mode = explicit_counts\nsubsample.counts = 10,25\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "r"),
                "--set", "method=kmeans"]
        for assignment in assignments:
            argv += ["--set", assignment.format(csv=unlabeled_csv)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_set_beats_the_file_value(self, tmp_path, idx_fixture):
        # the file says seed = 3; '#' starts a comment as in a config file
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--set", "seed = 5  # as a config line"]) == 0
        five = tmp_path / "five.cfg"
        five.write_text(cfg.read_text().replace("seed = 3", "seed = 5"))
        assert main(["pretrain", "--config", str(five), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "model.bin").read_bytes()
                == (tmp_path / "b" / "model.bin").read_bytes())
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert (manifest["seed"], manifest["settings"]["seed"]) == (5, 5)
        assert (tmp_path / "a" / "config.txt").read_text() == cfg.read_text()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--gamma"), ("train", "--max-iter"), ("train", "--seed"), ("train", "--s"),
        ("pretrain", "--seed"), ("subsample", "--seed"),
    ])
    def test_a_removed_flag_exits_2(self, tmp_path, idx_fixture, capsys, command, flag):
        cfg = write_config(tmp_path, idx_fixture)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg), flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    def test_help_lists_config_out_and_set(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--out", "--set"}

    def test_a_shipped_config_runs_on_other_files(self, tmp_path, idx_fixture):
        # The fixture's classes become 0 and 6, the classes the 0/6 configs keep.
        ds = load_idx(*idx_fixture)
        images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
        save_idx(Dataset(ds.features, np.where(ds.labels == 1, 6, 0)), images, labels)
        files = ["--set", f"data.images={images}", "--set", f"data.labels={labels}"]
        assert main(["pretrain", "--config", str(SHIPPED / "mnist06_imb_pretrain.cfg"),
                     "--out", str(tmp_path / "pre"), *files,
                     "--set", "pretrain.epochs=2"]) == 0
        model = tmp_path / "pre" / "model.bin"
        config = SHIPPED / "mnist06_imb_rdec.cfg"
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                     *files, "--set", f"model={model}", "--set", "max_iter=5"]) == 0
        run = tmp_path / "run"
        report = json.loads((run / "report.json").read_text())
        assert report["method"] == "rdec"
        # single_class keeps round(0.1 * 60) = 6 rows of class 0 and all 60 of class 6
        assert report["n"] == 66
        assert set(report["final_metrics"]["per_class"]) == {"0", "6"}
        assert len(report["iterations"]) == 5
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config_file"] == str(config)
        assert (run / "config.txt").read_text() == config.read_text()
        expected = {**load_config(config).settings, "data.images": [str(images)],
                    "data.labels": [str(labels)], "model": str(model), "max_iter": 5,
                    "out": str(run)}
        assert manifest["settings"] == {key: expected[key] for key in sorted(expected)}
        assert sorted(manifest["input_sha256"]) == sorted(map(str, (images, labels, model)))

    def test_data_path_alone_switches_a_shipped_config_to_csv(self, tmp_path, idx_fixture):
        # The IDX pair and a CSV file of the same rows give the same assignments.
        csv = tmp_path / "rows.csv"
        save_csv(load_idx(*idx_fixture), csv)
        config = SHIPPED / "mnist_kmeans.cfg"
        source = cli._data_source(load_config(config, [f"data.path={csv}"]))
        assert (source.files, source.outputs) == ([csv], {"csv": "data.csv"})
        common = ["train", "--config", str(config), "--set", "k=2",
                  "--set", "kmeans.restarts=1"]
        img, lab = idx_fixture
        assert main([*common, "--set", f"data.images={img}", "--set", f"data.labels={lab}",
                     "--out", str(tmp_path / "idx")]) == 0
        assert main([*common, "--set", f"data.path={csv}", "--set", "data.label_column=label",
                     "--out", str(tmp_path / "csv")]) == 0
        manifest = json.loads((tmp_path / "csv" / "manifest.json").read_text())
        assert list(manifest["input_sha256"]) == [str(csv)]
        assert ((tmp_path / "csv" / "assignments.csv").read_bytes()
                == (tmp_path / "idx" / "assignments.csv").read_bytes())


class TestEvalCommand:
    def test_perfect_and_permuted(self, tmp_path, capsys):
        (tmp_path / "assign.csv").write_text("assignment\n1\n1\n0\n0\n")
        (tmp_path / "labels.csv").write_text("label\n0\n0\n1\n1\n")
        code = main(["eval", str(tmp_path / "assign.csv"), str(tmp_path / "labels.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "acc: 1.000000" in out

    def test_crosswise_ari(self, tmp_path, capsys):
        (tmp_path / "assign.csv").write_text("0\n1\n0\n1\n")
        (tmp_path / "labels.csv").write_text("0\n0\n1\n1\n")
        out_dir = tmp_path / "m"
        code = main(["eval", str(tmp_path / "assign.csv"),
                     str(tmp_path / "labels.csv"), "--out", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ari: -0.500000" in printed
        assert (out_dir / "metrics.csv").is_file()

    def test_out_never_overwrites(self, tmp_path, capsys):
        (tmp_path / "assign.csv").write_text("0\n1\n0\n1\n")
        (tmp_path / "labels.csv").write_text("0\n0\n1\n1\n")
        out_dir = tmp_path / "m"
        out_dir.mkdir()
        (out_dir / "metrics.csv").write_text("old\n")
        assert main(["eval", str(tmp_path / "assign.csv"),
                     str(tmp_path / "labels.csv"), "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.csv").read_text() == "old\n"
        (sibling,) = [p for p in tmp_path.iterdir() if p.name.startswith("m-")]
        assert (sibling / "metrics.csv").read_text().startswith("metric,class,value\n")
        assert str(sibling / "metrics.csv") in capsys.readouterr().out

    def test_out_writes_manifest(self, tmp_path):
        assign, labels = tmp_path / "assign.csv", tmp_path / "labels.csv"
        assign.write_text("0\n1\n0\n1\n")
        labels.write_text("0\n0\n1\n1\n")
        out_dir = tmp_path / "m"
        assert main(["eval", str(assign), str(labels), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "metrics.csv"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "eval"

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert manifest["input_sha256"] == {str(assign): sha(assign), str(labels): sha(labels)}
        assert manifest["output_sha256"] == {"metrics.csv": sha(out_dir / "metrics.csv")}

    def test_length_mismatch_exits_2(self, tmp_path):
        (tmp_path / "a.csv").write_text("0\n1\n")
        (tmp_path / "l.csv").write_text("0\n1\n1\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 2

    def test_empty_files_exit_2_before_any_metric(self, tmp_path, monkeypatch, capsys):
        def no_metric(*args, **kwargs):
            raise AssertionError("a metric ran on empty input")

        monkeypatch.setattr(cli.metrics, "accuracy", no_metric)
        monkeypatch.setattr(cli.metrics, "adjusted_rand_index", no_metric)
        (tmp_path / "a.csv").write_text("")
        (tmp_path / "l.csv").write_text("label\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 2
        err = capsys.readouterr().err
        assert "no values" in err and "l.csv" in err
        # one value each: ARI's ValueError made it a runtime failure, exit 1
        (tmp_path / "a.csv").write_text("3\n")
        (tmp_path / "l.csv").write_text("label\n0\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 2
        assert capsys.readouterr().err == (f"error: one value in {tmp_path / 'a.csv'} and "
                                           f"{tmp_path / 'l.csv'}; the metrics need at "
                                           "least two\n")

    @pytest.mark.parametrize("text, lineno, value", [
        ("0\n1.5\n2.7\n", 2, "1.5"),  # fractions were truncated to 0, 1, 2
        ("nan\n0\n1\n", 1, "nan"),  # a first-line NaN was skipped as a header
        ("0\ninf\n1\n", 2, "inf"),  # an infinity was a bare OverflowError
        ("0\n1e20\n1\n", 2, "1e20"),  # beyond int64: an OverflowError, exit 1
        ("0\n9223372036854775808\n1\n", 2, "9223372036854775808"),
    ], ids=["fraction", "first-line-nan", "infinity", "beyond-int64", "just-beyond-int64"])
    def test_non_integer_value_is_rejected_by_file_and_line(self, tmp_path, capsys,
                                                           text, lineno, value):
        assign, labels = tmp_path / "a.csv", tmp_path / "l.csv"
        assign.write_text(text)
        labels.write_text("0\n1\n2\n")
        assert main(["eval", str(assign), str(labels)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {assign}:{lineno}: {value!r} is not an int64 integer\n"

    def test_every_int64_value_is_exact(self, tmp_path, capsys):
        # through float64 the first read 9007199254740992 and the last was rejected
        values = ["9007199254740993", "-9223372036854775808", "9223372036854775807"]
        path = tmp_path / "l.csv"
        path.write_text("label\n" + "\n".join(values) + "\n3.0\n1e3\n")
        assert data.read_labels(path).tolist() == [*map(int, values), 3, 1000]
        path.write_text("\n".join(values * 2) + "\n")
        assert main(["eval", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "acc: 1.000000" in out and "\n9223372036854775807,1.000000," in out

    def test_gzipped_label_file(self, tmp_path, capsys):
        # read with a plain open(), it was a UnicodeDecodeError, exit 1
        (tmp_path / "a.csv").write_text("assignment\n1\n1\n0\n0\n")
        (tmp_path / "l.csv.gz").write_bytes(gzip.compress(b"label\n0\n0\n1\n1\n"))
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv.gz")]) == 0
        assert "acc: 1.000000" in capsys.readouterr().out

    def test_header_after_a_blank_line(self, tmp_path, capsys):
        # the header was read as a value: "a.csv:2: 'assignment' is not an int64 integer"
        (tmp_path / "a.csv").write_text("\nassignment\n1\n0\n1\n")
        # a line of whitespace is blank, before the header and after it
        (tmp_path / "l.csv").write_text("  \nlabel\n1\n \t\n0\n1\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 0
        assert "acc: 1.000000" in capsys.readouterr().out

    def test_byte_order_mark_before_a_headerless_label_file(self, tmp_path, capsys):
        # the first value was skipped as a header: 4 assignments vs 3 labels, exit 2
        (tmp_path / "a.csv").write_text("1\n1\n0\n0\n")
        (tmp_path / "l.csv").write_bytes("\ufeff0\n0\n1\n1\n".encode())
        assert data.read_labels(tmp_path / "l.csv").tolist() == [0, 0, 1, 1]
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 0
        assert "acc: 1.000000" in capsys.readouterr().out

    def test_a_label_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        # it was a bare UnicodeDecodeError, exit 1, naming no file
        (tmp_path / "a.csv").write_text("0\n1\n")
        (tmp_path / "l.csv").write_bytes(b"label\n0\n\xff\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'l.csv'}:3: 'utf-8' codec "
                                           "can't decode byte 0xff in position 0: "
                                           "invalid start byte\n")

    def test_a_bad_label_file_is_a_data_format_error(self, tmp_path):
        (tmp_path / "l.csv").write_text("0\n1.5\n")
        with pytest.raises(DataFormatError, match=r"l\.csv:2: '1\.5' is not an int64 integer$"):
            data.read_labels(tmp_path / "l.csv")


class TestSubsampleCommand:
    def test_explicit_counts_manifest(self, tmp_path, idx_fixture):
        cfg = write_config(
            tmp_path, idx_fixture,
            extra="subsample.mode = explicit_counts\nsubsample.counts = 10,25\n",
        )
        out = tmp_path / "sub"
        assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["class_counts_after"] == {"0": 10, "1": 25}
        reduced = load_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")
        assert reduced.class_counts == {0: 10, 1: 25}

    def test_interpolated_rmin_one_unchanged(self, tmp_path, idx_fixture):
        cfg = write_config(
            tmp_path, idx_fixture,
            extra="subsample.mode = interpolated\nsubsample.r_min = 1.0\n",
        )
        out = tmp_path / "sub"
        assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["class_counts_after"] == manifest["class_counts_before"]

    def test_same_seed_identical_result(self, tmp_path, idx_fixture):
        cfg = write_config(
            tmp_path, idx_fixture,
            extra="subsample.mode = single_class\nsubsample.r_min = 0.5\n"
                  "subsample.target_class = 0\nsubsample.seed = 9\n",
        )
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "images-idx3-ubyte").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_output_keeps_the_label_column(self, tmp_path, idx_fixture):
        # the same data.label_column must read the input and the subsampled file
        save_csv(load_idx(*idx_fixture), tmp_path / "in.csv", label_column="cls")
        common = "data.label_column = cls\nk = 2\nmethod = kmeans\n"
        sub_cfg = tmp_path / "sub.cfg"
        sub_cfg.write_text(common + f"data.path = {tmp_path / 'in.csv'}\n"
                           "subsample.mode = single_class\nsubsample.r_min = 0.5\n"
                           "subsample.target_class = 0\n")
        assert main(["subsample", "--config", str(sub_cfg),
                     "--out", str(tmp_path / "sub")]) == 0
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(common + f"data.path = {tmp_path / 'sub' / 'data.csv'}\n")
        assert main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "km")]) == 0
        report = json.loads((tmp_path / "km" / "report.json").read_text())
        assert report["n"] == 90
        assert report["final_metrics"] is not None

    def test_csv_output_has_newline_line_ends(self, tmp_path, idx_fixture):
        original = load_idx(*idx_fixture)
        save_csv(original, tmp_path / "in.csv", label_column="cls")
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("data.label_column = cls\n"
                       f"data.path = {tmp_path / 'in.csv'}\nsubsample.mode = single_class\n"
                       "subsample.r_min = 0.5\nsubsample.target_class = 0\n"
                       "subsample.seed = 3\n")
        assert main(["subsample", "--config", str(cfg), "--out", str(tmp_path / "sub")]) == 0
        written = tmp_path / "sub" / "data.csv"
        assert b"\r" not in written.read_bytes()
        back = load_csv(written, label_column="cls")
        want = subsample(original, SubsampleSpec("single_class", r_min=0.5, target_class=0,
                                                 seed=3))
        np.testing.assert_array_equal(back.features, want.features)
        np.testing.assert_array_equal(back.labels, want.labels)

    def test_requires_mode(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["subsample", "--config", str(cfg)]) == 2

    def test_keeps_images_that_are_not_square(self, tmp_path):
        # 20 images of 4 x 6 pixels; the kept rows are written as 1 x 24 images
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(20, 4, 6), dtype=np.uint8)
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">iiii", 0x803, 20, 4, 6) + pixels.tobytes())
        labels.write_bytes(struct.pack(">ii", 0x801, 20) + bytes([0, 1] * 10))
        cfg = tmp_path / "sub.cfg"
        cfg.write_text(f"data.images = {images}\ndata.labels = {labels}\n"
                       "subsample.mode = explicit_counts\nsubsample.counts = 3,10\n")
        out = tmp_path / "sub"
        assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0
        kept = read_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")
        want = subsample(read_idx(images, labels), load_config(cfg).subsample)
        assert kept.features.shape == (13, 24)
        np.testing.assert_array_equal(kept.features, want.features)
        np.testing.assert_array_equal(kept.labels, want.labels)

    @pytest.mark.parametrize("classes", [None, [0, 2]], ids=["all", "classes-0-2"])
    @pytest.mark.parametrize("mode", ["single_class", "explicit_counts", "interpolated"])
    def test_writes_the_selected_input_rows(self, tmp_path, mode, classes):
        # Each input row's first two pixels spell its index, so every output
        # row names the input row it must be a byte-exact copy of.
        n = 300
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        pixels[:, 0], pixels[:, 1] = np.arange(n) // 256, np.arange(n) % 256
        labels = rng.integers(0, 3, size=n).astype(np.uint8)
        images, label_file = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">iiii", 0x803, n, 4, 4) + pixels.tobytes())
        label_file.write_bytes(struct.pack(">ii", 0x801, n) + labels.tobytes())
        settings = {
            "single_class": "subsample.target_class = 2\nsubsample.r_min = 0.3\n",
            "explicit_counts": "subsample.counts = 20,30\n" if classes
                               else "subsample.counts = 20,30,40\n",
            "interpolated": "subsample.r_min = 0.2\n",
        }[mode]
        cfg = tmp_path / "sub.cfg"
        cfg.write_text(f"data.images = {images}\n"
                       f"data.labels = {label_file}\nsubsample.mode = {mode}\n"
                       f"subsample.seed = 7\n{settings}"
                       + (f"data.classes = {','.join(map(str, classes))}\n" if classes else ""))
        out = tmp_path / "sub"
        assert main(["subsample", "--config", str(cfg), "--out", str(out)]) == 0

        written = read_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")
        index = written.features[:, 0].astype(np.int64) * 256 + written.features[:, 1]
        assert np.all(np.diff(index) > 0)  # input order
        assert written.features.tobytes() == pixels[index].tobytes()
        np.testing.assert_array_equal(written.labels, labels[index])
        # the rows are those that subsample picks by label from the kept classes
        rows = Dataset(np.arange(n, dtype=np.float64)[:, None], labels.astype(np.int64))
        if classes:
            rows = filter_classes(rows, classes)
        picked = subsample(rows, load_config(cfg).subsample)
        np.testing.assert_array_equal(index, picked.features[:, 0])


def joined(parts):
    """The datasets' rows and labels in order, named as the first."""
    return Dataset(np.concatenate([part.features for part in parts]),
                   np.concatenate([part.labels for part in parts]), name=parts[0].name)


class TestDataPathMemory:
    """The IDX path keeps rows as bytes until the kept ones are chosen, then
    makes one float64 copy of them; the CSV path converts each row as read."""

    @pytest.fixture(scope="class")
    def two_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mem")
        rng = np.random.default_rng(5)
        files = []
        for name, n in (("train", 3000), ("t10k", 1000)):
            images, labels = root / f"{name}-images", root / f"{name}-labels"
            images.write_bytes(struct.pack(">iiii", 0x803, n, 28, 28)
                               + rng.integers(0, 256, size=n * 784, dtype=np.uint8).tobytes())
            labels.write_bytes(struct.pack(">ii", 0x801, n)
                               + rng.integers(0, 4, size=n, dtype=np.uint8).tobytes())
            files.append((images, labels))
        return files

    @pytest.mark.parametrize("settings", [
        "subsample.mode = single_class\nsubsample.target_class = 0\nsubsample.r_min = 0.1\n",
        "subsample.mode = explicit_counts\nsubsample.counts = 300,200,100\n",
        "subsample.mode = interpolated\nsubsample.r_min = 0.5\n",
    ], ids=["single_class", "explicit_counts", "interpolated"])
    def test_one_float_copy_of_the_kept_rows(self, tmp_path, two_files, settings):
        (train_images, train_labels), (test_images, test_labels) = two_files
        cfg_path = tmp_path / "mem.cfg"
        cfg_path.write_text(f"data.name = mem\n"
                            f"data.images = {train_images},{test_images}\n"
                            f"data.labels = {train_labels},{test_labels}\n"
                            f"data.classes = 0,1,2\nsubsample.seed = 3\n{settings}")
        cfg = load_config(cfg_path)
        source = cli._data_source(cfg)
        tracemalloc.start()
        try:
            ds = cli.load_dataset(cfg, source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # the float64-first path: every row scaled on load, then selected
        old = joined([load_idx(images, labels, name="mem") for images, labels in two_files])
        old = subsample(filter_classes(old, [0, 1, 2]), cfg.subsample)
        assert ds.features.dtype == np.float64 and ds.features.shape == old.features.shape
        assert ds.features.tobytes() == old.features.tobytes()
        np.testing.assert_array_equal(ds.labels, old.labels)
        assert ds.labels.dtype == np.int64 and ds.name == old.name
        # The kept rows in float64 and up to three byte copies of the files.
        # Scaling every row on load held two float64 copies of all 4000 rows.
        file_bytes = sum(p.stat().st_size for pair in two_files for p in pair)
        assert peak < ds.features.nbytes + 3 * file_bytes

    def test_subsample_writes_the_kept_bytes_without_a_float_copy(self, tmp_path,
                                                                  two_files):
        (train_images, train_labels), (test_images, test_labels) = two_files
        cfg_path = tmp_path / "sub.cfg"
        cfg_path.write_text(f"data.images = {train_images},{test_images}\n"
                            f"data.labels = {train_labels},{test_labels}\n"
                            "subsample.mode = single_class\nsubsample.target_class = 0\n"
                            "subsample.r_min = 0.1\nsubsample.seed = 3\n")
        out = tmp_path / "sub"
        tracemalloc.start()
        try:
            assert main(["subsample", "--config", str(cfg_path), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # the float64 path: the kept rows scaled, then rescaled to bytes
        kept = subsample(joined([read_idx(images, labels) for images, labels in two_files]),
                         load_config(cfg_path).subsample)
        save_idx(scale_pixels(kept), tmp_path / "images", tmp_path / "labels")
        assert (out / "images-idx3-ubyte").read_bytes() == (tmp_path / "images").read_bytes()
        assert (out / "labels-idx1-ubyte").read_bytes() == (tmp_path / "labels").read_bytes()
        # one float64 copy of the kept rows would not fit
        assert peak < 8 * kept.features.size

    def test_csv_rows_are_parsed_as_read(self, tmp_path):
        # Holding every cell as text before one conversion peaked at 11.5x
        # the float64 features; parsed row by row, the rows and their stack
        # peak near 2.2x.
        rng = np.random.default_rng(5)
        path = tmp_path / "rows.csv"
        save_csv(Dataset(rng.random((2000, 196)), rng.integers(0, 10, size=2000)), path)
        tracemalloc.start()
        try:
            ds = load_csv(path, label_column="label")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (2000, 196) and ds.labels.shape == (2000,)
        assert peak < 3 * ds.features.nbytes


class TestRunDirectory:
    def test_failed_write_leaves_no_file(self, tmp_path, idx_fixture, monkeypatch):
        def broken_save_model(path, encoder, decoder):
            with open(path, "wb") as fh:
                fh.write(b"partial")
            raise RuntimeError("write failed")

        monkeypatch.setattr("rdec.cli.save_model", broken_save_model)
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert list(tmp_path.glob(".pre-*")) == []
        monkeypatch.undo()
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "pre"]

    def test_failed_manifest_write_leaves_no_directory(self, tmp_path, idx_fixture,
                                                       monkeypatch):
        # report.json and the CSVs are written before the manifest fails
        def broken_manifest(*args, **kwargs):
            raise RuntimeError("manifest write failed")

        monkeypatch.setattr("rdec.cli._write_manifest", broken_manifest)
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "km"
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(out)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_default_run_dir_and_missing_parent(self, tmp_path, idx_fixture, monkeypatch):
        # no --out and no out key: runs/pretrain, runs/ created on the way
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert main(["pretrain", "--config", str(cfg)]) == 0
        first, second = sorted((tmp_path / "runs").iterdir())
        assert first.name == "pretrain"
        assert second.name.startswith("pretrain-")
        for run in (first, second):
            assert (run / "manifest.json").is_file()
        # published with the mode mkdir gives, not mkdtemp's private 0o700
        (tmp_path / "probe").mkdir()
        assert first.stat().st_mode == (tmp_path / "probe").stat().st_mode

    def test_out_flag_is_the_manifest_out_setting(self, tmp_path, idx_fixture):
        # the manifest recorded the config's out, not the directory --out published
        cfg = write_config(tmp_path, idx_fixture, extra=f"out = {tmp_path / 'from-config'}\n")
        out = tmp_path / "from-flag"
        assert main(["train", "--config", str(cfg), "--set", "method=kmeans",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["out"] == str(out)
        assert (out / "config.txt").read_text() == cfg.read_text()
        assert not (tmp_path / "from-config").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "subsample"])
    def test_manifest_hashes_every_output(self, tmp_path, idx_fixture, pretrained, command):
        extra = "subsample.mode = explicit_counts\nsubsample.counts = 10,25\n"
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra=extra if command == "subsample" else "")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        hashes = json.loads((out / "manifest.json").read_text())["output_sha256"]
        assert set(hashes) == {p.name for p in out.iterdir()} - {"manifest.json"}
        for name, digest in hashes.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command, subsampled", [
        ("pretrain", False), ("pretrain", True), ("train", False), ("train", True),
        ("subsample", True),
    ])
    def test_manifest_records_the_resolved_settings(self, tmp_path, idx_fixture, pretrained,
                                                    command, subsampled):
        # BASE_CONFIG sets neither epsilon nor xi; the manifest records them all the same
        extra = "subsample.mode = explicit_counts\nsubsample.counts = 10,25\n"
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra=extra if subsampled else "")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--set", "max_iter=3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = load_config(cfg, ["max_iter=3"])
        assert manifest["training"] == asdict(resolved.train)
        assert list(manifest["training"]) == [f.name for f in fields(TrainConfig)]
        assert (manifest["training"]["xi"], manifest["training"]["max_iter"]) == (
            TrainConfig().xi, 3)
        assert manifest.get("subsample") == (vars(resolved.subsample) if subsampled else None)
        # the settings stay the keys as set
        assert "xi" not in manifest["settings"] and manifest["settings"]["max_iter"] == 3


class TestProcessLevel:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdec.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pretrain" in proc.stdout

    def test_imports_load_no_numpy_before_threads_are_pinned(self):
        # A finder sees the first numpy import and prints the BLAS pin it finds.
        code = (
            "import os, sys\n"
            "for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
            "    os.environ.pop(var, None)\n"
            "os.environ['RDEC_NUM_THREADS'] = '1'\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print('numpy', os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Probe())\n"
            "import rdec\n"
            "print('rdec', 'numpy' in sys.modules)\n"
            "import rdec.cli\n"
            "print('rdec.cli', 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["numpy 1", "rdec True", "rdec.cli True"]

    @pytest.mark.parametrize("module", ["rdec.trainer", "rdec.cli"])
    def test_a_library_import_pins_every_blas_variable_before_numpy(self, module):
        # The pin replaces values already set, and numpy first loads after it.
        code = (
            "import os, sys\n"
            "BLAS = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')\n"
            "for var in BLAS:\n"
            "    os.environ[var] = '3'\n"
            "os.environ['RDEC_NUM_THREADS'] = '1'\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            print(*(os.environ.get(var) for var in BLAS))\n"
            "sys.meta_path.insert(0, Probe())\n"
            f"import {module}\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1 1 1"]

    def test_imports_load_no_scipy(self):
        # ACC's assignment is solved in-repo, so the runtime needs numpy only.
        code = (
            "import sys\n"
            "import rdec.cli, rdec.trainer, rdec.metrics\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
