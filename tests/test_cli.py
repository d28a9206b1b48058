import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rdec import cli, trainer
from rdec.cli import SCHEMA, ExperimentConfig, load_config, main
from rdec.data import Dataset, load_idx, save_csv, save_idx
from rdec.network import encode, load_model
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


BASE_CONFIG = """
data.format = idx
data.images = {images}
data.labels = {labels}
k = 2
latent_dim = 2
seed = 3
method = rdec
gamma = 1
tau = 10
sigma = 0.01
max_iter = 40
batch_size = 32
pretrain.epochs = 2
pretrain.lr = 0.1
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


class TestTrainCommand:
    def test_kmeans_needs_no_model(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture, extra="\n", model="absent.bin")
        out = tmp_path / "km"
        code = main(["train", "--config", str(cfg), "--method", "kmeans",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "kmeans"
        assert report["final_metrics"]["acc"] >= 0.9
        assert (out / "assignments.csv").read_text().splitlines()[0] == "assignment"
        assert (out / "metrics.csv").is_file()
        assert (out / "curves.csv").is_file()
        assert not (out / "embeddings.csv").exists()

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
        assert main(["train", "--config", str(cfg), "--method", "ae_kmeans",
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
        assert main(["train", "--config", str(cfg), "--method", "kmeans",
                     "--out", str(out)]) == 2
        assert keys[0] in capsys.readouterr().err
        assert not out.exists()

    def test_method_and_gamma_overrides(self, tmp_path, idx_fixture, pretrained):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained))
        out = tmp_path / "dec"
        code = main(["train", "--config", str(cfg), "--method", "dec",
                     "--gamma", "0", "--max-iter", "20", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "dec"
        assert all(rec["vat_loss"] == 0.0 for rec in report["iterations"])

    def test_never_overwrites_run_dir(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        out = tmp_path / "same"
        main(["train", "--config", str(cfg), "--method", "kmeans", "--out", str(out)])
        main(["train", "--config", str(cfg), "--method", "kmeans", "--out", str(out)])
        # a trailing slash must not put the suffixed run inside the existing one
        main(["train", "--config", str(cfg), "--method", "kmeans", "--out", f"{out}/"])
        siblings = [p for p in tmp_path.iterdir() if p.name.startswith("same")]
        assert len(siblings) == 3
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_latent_dim_mismatch_exits_2(self, tmp_path, idx_fixture, pretrained,
                                         capsys, monkeypatch):
        # The model's embedding width is checked before the data loads.
        loads = []
        monkeypatch.setattr(cli, "load_idx", lambda *args, **kwargs: loads.append(args))
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra="")
        text = cfg.read_text().replace("latent_dim = 2", "latent_dim = 5")
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "model embeds to 2 dims, config says 5" in capsys.readouterr().err
        assert loads == []
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


    def test_negative_finetune_lr_exits_2_before_any_encode(self, tmp_path, idx_fixture,
                                                            pretrained, capsys, monkeypatch):
        def no_encode(*args):
            raise AssertionError("encode ran")

        monkeypatch.setattr(cli, "encode", no_encode)
        monkeypatch.setattr(trainer, "encode", no_encode)
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra="finetune.lr = -1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "finetune_lr" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_zero_kmeans_restarts_exits_2_before_the_data_loads(self, tmp_path, idx_fixture,
                                                                capsys, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_idx", no_load)
        cfg = write_config(tmp_path, idx_fixture)
        cfg.write_text(cfg.read_text().replace("kmeans.restarts = 5", "kmeans.restarts = 0"))
        assert main(["train", "--config", str(cfg), "--method", "kmeans",
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


# Every training key set away from its default, and the TrainConfig it must give.
NON_DEFAULT_TRAINING = """
method = dec
seed = 7
gamma = 0.5
s = 3
epsilon = 0.25
xi = 4
ip = 2
tau = 9
sigma = 0.2
max_iter = 33
batch_size = 17
pretrain.epochs = 11
pretrain.lr = 0.003
pretrain.momentum = 0.8
finetune.lr = 0.002
finetune.momentum = 0.6
kmeans.restarts = 3
"""

NON_DEFAULT_TRAIN_CONFIG = TrainConfig(
    method="dec", seed=7, gamma=0.5, s=3.0, epsilon=0.25, xi=4.0, ip=2,
    tau=9, sigma=0.2, max_iter=33, batch_size=17, pretrain_epochs=11,
    pretrain_lr=0.003, pretrain_momentum=0.8, finetune_lr=0.002, finetune_momentum=0.6,
    kmeans_restarts=3,
)


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_spells_out_the_defaults(path):
    cfg = load_config(path)
    train = cfg.train
    assert train == replace(TrainConfig(), method=train.method, gamma=train.gamma,
                            seed=train.seed)


class TestTrainConfigMapping:
    def test_every_training_key_lands_on_its_field(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(NON_DEFAULT_TRAINING)
        cfg = load_config(path)
        assert set(cfg.settings) == {key for key, (_, dest) in SCHEMA.items() if dest}
        train = cfg.train
        assert train == NON_DEFAULT_TRAIN_CONFIG
        assert (cfg.train.seed, cfg.train.method) == (7, "dec")

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
        lr = ExperimentConfig(settings={"pretrain.lr": 0.5}).train
        assert lr == replace(defaults, pretrain_lr=0.5)

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
        # Each exits 2 with TrainConfig.validate's message before the data loads.
        def no_load(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_idx", no_load)
        for line, message in [("epsilon = 0", "epsilon must be positive, got 0.0"),
                              ("xi = -1", "xi must be positive, got -1.0"),
                              ("ip = 0", "ip must be >= 1, got 0")]:
            cfg = write_config(tmp_path, idx_fixture, extra=line + "\n")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "r").exists()


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

    @pytest.mark.parametrize("text, lineno, value", [
        ("0\n1.5\n2.7\n", 2, "1.5"),  # fractions were truncated to 0, 1, 2
        ("nan\n0\n1\n", 1, "nan"),  # a first-line NaN was skipped as a header
        ("0\ninf\n1\n", 2, "inf"),  # an infinity was a bare OverflowError
    ], ids=["fraction", "first-line-nan", "infinity"])
    def test_non_integer_value_is_rejected_by_file_and_line(self, tmp_path, capsys,
                                                           text, lineno, value):
        assign, labels = tmp_path / "a.csv", tmp_path / "l.csv"
        assign.write_text(text)
        labels.write_text("0\n1\n2\n")
        assert main(["eval", str(assign), str(labels)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: ValueError: {assign}:{lineno}: "
                                f"non-integer value {value!r}\n")


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
        common = "data.format = csv\ndata.label_column = cls\nk = 2\nmethod = kmeans\n"
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

    def test_requires_mode(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["subsample", "--config", str(cfg)]) == 2


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
        assert main(["train", "--config", str(cfg), "--method", "kmeans",
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
