import json
import subprocess
import sys

import numpy as np
import pytest

from rdec.cli import SCHEMA, ExperimentConfig, load_config, main
from rdec.data import Dataset, load_idx, save_idx
from rdec.trainer import OptimizerSpec, TrainConfig
from rdec.vat import VatConfig


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
        siblings = [p for p in tmp_path.iterdir() if p.name.startswith("same")]
        assert len(siblings) == 2

    def test_latent_dim_mismatch_exits_2(self, tmp_path, idx_fixture, pretrained):
        cfg = write_config(tmp_path, idx_fixture, model=str(pretrained),
                           extra="")
        text = cfg.read_text().replace("latent_dim = 2", "latent_dim = 5")
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 2

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


    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_unknown_optimizer_kind_exits_2(self, tmp_path, idx_fixture, capsys, command):
        cfg = write_config(tmp_path, idx_fixture, extra="finetune.optimizer = rmsprop\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "rmsprop" in capsys.readouterr().err
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
patience = 5
pretrain.epochs = 11
pretrain.optimizer = adam
pretrain.lr = 0.003
pretrain.momentum = 0.8
pretrain.beta1 = 0.7
pretrain.beta2 = 0.99
finetune.optimizer = adam
finetune.lr = 0.002
finetune.momentum = 0.6
kmeans.restarts = 3
"""

NON_DEFAULT_TRAIN_CONFIG = TrainConfig(
    method="dec", seed=7, gamma=0.5, s=3.0,
    vat=VatConfig(epsilon=0.25, xi=4.0, ip=2),
    tau=9, sigma=0.2, max_iter=33, batch_size=17, patience=5, pretrain_epochs=11,
    pretrain_optimizer=OptimizerSpec(kind="adam", lr=0.003, momentum=0.8,
                                     beta1=0.7, beta2=0.99),
    finetune_optimizer=OptimizerSpec(kind="adam", lr=0.002, momentum=0.6),
    kmeans_restarts=3,
)


class TestTrainConfigMapping:
    def test_every_training_key_lands_on_its_field(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(NON_DEFAULT_TRAINING)
        cfg = load_config(path)
        assert set(cfg.settings) == {key for key, (_, dest) in SCHEMA.items() if dest}
        train = cfg.train_config()
        assert train == NON_DEFAULT_TRAIN_CONFIG
        assert (cfg.seed, cfg.method) == (7, "dec")

    def test_empty_config_gives_the_defaults(self, tmp_path):
        assert ExperimentConfig().train_config() == TrainConfig()
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing set\n")
        cfg = load_config(path)
        assert cfg.train_config() == TrainConfig()
        assert (cfg.seed, cfg.method) == (TrainConfig().seed, TrainConfig().method)

    def test_each_key_changes_only_its_field(self):
        defaults = TrainConfig()
        base = ExperimentConfig(settings={"epsilon": 0.5}).train_config()
        assert base.vat == VatConfig(epsilon=0.5)
        assert (base.pretrain_optimizer, base.finetune_optimizer) == (
            defaults.pretrain_optimizer, defaults.finetune_optimizer)
        lr = ExperimentConfig(settings={"pretrain.lr": 0.5}).train_config()
        assert lr.pretrain_optimizer == OptimizerSpec(kind="sgd_momentum", lr=0.5)
        assert lr.finetune_optimizer == defaults.finetune_optimizer

    def test_bad_vat_value_is_a_config_error(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture, extra="epsilon = 0\n")
        assert main(["train", "--config", str(cfg)]) == 2


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

    def test_length_mismatch_exits_2(self, tmp_path):
        (tmp_path / "a.csv").write_text("0\n1\n")
        (tmp_path / "l.csv").write_text("0\n1\n1\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "l.csv")]) == 2


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

    def test_requires_mode(self, tmp_path, idx_fixture):
        cfg = write_config(tmp_path, idx_fixture)
        assert main(["subsample", "--config", str(cfg)]) == 2


class TestProcessLevel:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdec.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "pretrain" in proc.stdout

    def test_thread_env_var_is_applied_before_numpy(self):
        code = (
            "import os; os.environ['RDEC_NUM_THREADS'] = '1'; "
            "import rdec.cli; "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.split() == ["1", "1"]
