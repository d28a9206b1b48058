"""Experiment command line: pretrain, train, eval, subsample.

Configs are flat ``key = value`` text files (``#`` starts a comment);
unknown keys are rejected. Shipped baseline configs live in ``configs/``.
Every run directory is self-describing: it holds a copy of the config,
the resolved settings, the seed, and content hashes of all input files.
Existing run directories are never overwritten; a timestamp suffix is
appended instead.

Exit codes: 0 success, 1 runtime failure, 2 config/validation failure.
``RDEC_NUM_THREADS`` pins the BLAS thread count (matmul reductions stay
deterministic for a fixed thread count).
"""

from __future__ import annotations

import os


def _pin_threads() -> None:
    want = os.environ.get("RDEC_NUM_THREADS")
    if want:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = want


_pin_threads()  # must run before numpy initializes its BLAS

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics
from .data import (
    Dataset,
    SubsampleSpec,
    concat,
    filter_classes,
    load_csv,
    load_idx,
    save_csv,
    save_idx,
    subsample,
)
from .network import build_network, encode, load_model, save_model
from .trainer import METHODS, TrainConfig, pretrain, run_clustering


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip() != ""]


# Every legal config key with its parser and, for training settings, the
# dotted TrainConfig field it sets. Dotted prefixes group related
# settings; values are plain text after the first '='.
SCHEMA = {
    "data.format": (str, None),
    "data.images": (_parse_str_list, None),
    "data.labels": (_parse_str_list, None),
    "data.path": (str, None),
    "data.label_column": (str, None),
    "data.classes": (_parse_int_list, None),
    "data.name": (str, None),
    "subsample.mode": (str, None),
    "subsample.r_min": (float, None),
    "subsample.target_class": (int, None),
    "subsample.counts": (_parse_int_list, None),
    "subsample.seed": (int, None),
    "method": (str, "method"),
    "k": (int, None),
    "latent_dim": (int, None),
    "seed": (int, "seed"),
    "model": (str, None),
    "out": (str, None),
    "gamma": (float, "gamma"),
    "s": (float, "s"),
    "epsilon": (float, "vat.epsilon"),
    "xi": (float, "vat.xi"),
    "ip": (int, "vat.ip"),
    "tau": (int, "tau"),
    "sigma": (float, "sigma"),
    "max_iter": (int, "max_iter"),
    "batch_size": (int, "batch_size"),
    "patience": (int, "patience"),
    "pretrain.epochs": (int, "pretrain_epochs"),
    "pretrain.optimizer": (str, "pretrain_optimizer.kind"),
    "pretrain.lr": (float, "pretrain_optimizer.lr"),
    "pretrain.momentum": (float, "pretrain_optimizer.momentum"),
    "pretrain.beta1": (float, "pretrain_optimizer.beta1"),
    "pretrain.beta2": (float, "pretrain_optimizer.beta2"),
    "finetune.optimizer": (str, "finetune_optimizer.kind"),
    "finetune.lr": (float, "finetune_optimizer.lr"),
    "finetune.momentum": (float, "finetune_optimizer.momentum"),
    "kmeans.restarts": (int, "kmeans_restarts"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value lines into a typed settings dict."""
    settings: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in settings:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            settings[key] = SCHEMA[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return settings


@dataclass
class ExperimentConfig:
    settings: dict = field(default_factory=dict)
    config_text: str = ""
    config_path: str | None = None

    def get(self, key, default=None):
        return self.settings.get(key, default)

    def require(self, key):
        if key not in self.settings:
            raise ConfigError(f"missing required config key {key!r}")
        return self.settings[key]

    @property
    def seed(self) -> int:
        return self.train_config().seed

    @property
    def method(self) -> str:
        return self.train_config().method

    def train_config(self) -> TrainConfig:
        """TrainConfig defaults, overridden by the training keys present."""
        cfg = TrainConfig()
        try:
            for key, value in self.settings.items():
                field_path = SCHEMA[key][1]
                if field_path is not None:
                    cfg = _replace_field(cfg, field_path, value)
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cfg


def _replace_field(obj, field_path: str, value):
    """Copy of a dataclass with the dotted field ``field_path`` set to value."""
    name, _, rest = field_path.partition(".")
    if rest:
        value = _replace_field(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    settings = parse_config_text(text, source=str(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            settings[key] = value
    cfg = ExperimentConfig(settings=settings, config_text=text, config_path=str(path))
    cfg.train_config()  # validate before any compute
    return cfg


def _existing_paths(cfg: ExperimentConfig, *, need_model: bool) -> list[Path]:
    """Validate that every input file exists; returns them for hashing."""
    paths: list[Path] = []
    fmt = cfg.require("data.format")
    if fmt == "idx":
        images = cfg.require("data.images")
        labels = cfg.require("data.labels")
        if len(images) != len(labels):
            raise ConfigError(
                f"{len(images)} image files vs {len(labels)} label files"
            )
        paths += [Path(p) for p in images + labels]
    elif fmt == "csv":
        paths.append(Path(cfg.require("data.path")))
    else:
        raise ConfigError(f"unknown data.format {fmt!r}")
    if need_model:
        paths.append(Path(cfg.require("model")))
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise ConfigError(f"input files not found: {', '.join(missing)}")
    return paths


def _load_filtered(cfg: ExperimentConfig) -> Dataset:
    """Load the dataset files and keep the configured classes, if any."""
    fmt = cfg.require("data.format")
    name = cfg.get("data.name", "dataset")
    if fmt == "idx":
        images = cfg.require("data.images")
        labels = cfg.require("data.labels")
        ds = load_idx(images[0], labels[0], name=name)
        for img, lab in zip(images[1:], labels[1:]):
            ds = concat(ds, load_idx(img, lab, name=name))
    else:
        ds = load_csv(cfg.require("data.path"), cfg.get("data.label_column"), name=name)
    classes = cfg.get("data.classes")
    if classes:
        ds = filter_classes(ds, classes)
    return ds


def _subsample_spec(cfg: ExperimentConfig) -> SubsampleSpec:
    return SubsampleSpec(
        mode=cfg.require("subsample.mode"),
        r_min=cfg.get("subsample.r_min", 1.0),
        target_class=cfg.get("subsample.target_class"),
        counts=cfg.get("subsample.counts"),
        seed=cfg.get("subsample.seed", cfg.seed),
    )


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    """Load, optionally class-filter, and optionally subsample the dataset."""
    ds = _load_filtered(cfg)
    if cfg.get("subsample.mode"):
        ds = subsample(ds, _subsample_spec(cfg))
    return ds


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _unique_dir(base) -> Path:
    path = Path(base)
    if not path.exists():
        return path
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = Path(f"{base}-{stamp}")
    counter = 0
    while candidate.exists():
        counter += 1
        candidate = Path(f"{base}-{stamp}-{counter}")
    return candidate


def _write_manifest(out: Path, cfg: ExperimentConfig, command: str,
                    input_paths: list[Path], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config_file": cfg.config_path,
        "settings": {k: cfg.settings[k] for k in sorted(cfg.settings)},
        "input_sha256": {str(p): _sha256(p) for p in input_paths},
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    manifest.update(extra or {})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out / "config.txt").write_text(cfg.config_text)


def _progress_printer(stream=sys.stderr):
    def report(event: dict) -> None:
        if event["phase"] == "pretrain":
            print(f"[pretrain] epoch {event['epoch']}: loss {event['loss']:.6f}",
                  file=stream)
        else:
            parts = [f"[finetune] iter {event['iteration']}: loss {event['loss']:.6f}"]
            if event.get("acc") is not None:
                parts.append(f"acc {event['acc']:.4f}")
            if event.get("label_change_rate") is not None:
                parts.append(f"delta {event['label_change_rate']:.4f}")
            print(" ".join(parts), file=stream)
        stream.flush()

    return report


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    input_paths = _existing_paths(cfg, need_model=False)
    out = _unique_dir(cfg.get("out", "runs/pretrain") if args.out is None else args.out)
    ds = load_dataset(cfg)
    train_cfg = cfg.train_config()
    latent = cfg.get("latent_dim", 10)
    encoder, decoder = build_network(ds.dim, latent, cfg.seed)

    epochs_log: list[dict] = []
    printer = _progress_printer()

    def log_epoch(event: dict) -> None:
        epochs_log.append({"epoch": event["epoch"], "loss": event["loss"]})
        printer(event)

    final_loss = pretrain(encoder, decoder, ds.features, train_cfg, progress=log_epoch)

    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.bin"
    save_model(model_path, encoder, decoder)
    (out / "pretrain_log.json").write_text(
        json.dumps({"epochs": epochs_log, "final_reconstruction_loss": final_loss},
                   indent=2) + "\n"
    )
    _write_manifest(out, cfg, "pretrain", input_paths)
    print(f"model written to {model_path} (final reconstruction loss {final_loss:.6f})")
    return 0


def _final_metrics(ds: Dataset, assignments: np.ndarray) -> dict | None:
    if ds.labels is None:
        return None
    acc, mapping = metrics.accuracy(ds.labels, assignments)
    ari = metrics.adjusted_rand_index(ds.labels, assignments)
    per_class = {}
    for cls in sorted(np.unique(ds.labels).tolist()):
        recall, precision, f_measure = metrics.per_class_prf(
            ds.labels, assignments, mapping, cls
        )
        per_class[int(cls)] = {
            "recall": recall, "precision": precision, "f_measure": f_measure,
        }
    return {"acc": acc, "ari": ari, "mapping": {str(k): v for k, v in mapping.items()},
            "per_class": per_class}


def _write_metrics_csv(path: Path, final: dict) -> None:
    lines = ["metric,class,value"]
    lines.append(f"acc,,{final['acc']!r}")
    lines.append(f"ari,,{final['ari']!r}")
    for cls, prf in final["per_class"].items():
        for key in ("recall", "precision", "f_measure"):
            lines.append(f"{key},{cls},{prf[key]!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_curves_csv(path: Path, report) -> None:
    # acc is the most recent checkpoint value at each iteration (step curve)
    acc_at = {c.iteration: c.acc for c in report.checkpoints}
    lines = ["iteration,clustering_loss,vat_loss,total_loss,acc"]
    current_acc = ""
    for rec in report.iterations:
        if rec.iteration in acc_at and acc_at[rec.iteration] is not None:
            current_acc = repr(acc_at[rec.iteration])
        lines.append(
            f"{rec.iteration},{rec.clustering_loss!r},{rec.vat_loss!r},"
            f"{rec.total_loss!r},{current_acc}"
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    method = cfg.method
    needs_model = method in ("dec", "rdec", "ae_kmeans")
    input_paths = _existing_paths(cfg, need_model=needs_model)
    out = _unique_dir(cfg.get("out", "runs/train") if args.out is None else args.out)

    ds = load_dataset(cfg)
    train_cfg = cfg.train_config()
    k = cfg.get("k", 10)
    encoder = None
    if needs_model:
        encoder, _ = load_model(cfg.require("model"))
        if encoder.input_dim != ds.dim:
            raise ConfigError(
                f"model expects {encoder.input_dim}-dim inputs, dataset has {ds.dim}"
            )
        latent = cfg.get("latent_dim")
        if latent is not None and encoder.output_dim != latent:
            raise ConfigError(
                f"model embeds to {encoder.output_dim} dims, config says {latent}"
            )

    assignments, report = run_clustering(
        method, ds.features, k, train_cfg, encoder=encoder,
        labels=ds.labels, progress=_progress_printer(),
    )

    out.mkdir(parents=True, exist_ok=True)
    final = _final_metrics(ds, assignments)
    payload = report.to_dict()
    payload["final_metrics"] = final
    payload["n"] = ds.n
    payload["k"] = k
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / "assignments.csv").write_text(
        "assignment\n" + "\n".join(str(int(a)) for a in assignments) + "\n"
    )
    if final is not None:
        _write_metrics_csv(out / "metrics.csv", final)
    _write_curves_csv(out / "curves.csv", report)
    if encoder is not None and encoder.output_dim == 2:
        z = encode(encoder, ds.features)
        lines = ["z0,z1,assignment" + (",label" if ds.labels is not None else "")]
        for i in range(ds.n):
            row = f"{z[i, 0]!r},{z[i, 1]!r},{int(assignments[i])}"
            if ds.labels is not None:
                row += f",{int(ds.labels[i])}"
            lines.append(row)
        (out / "embeddings.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, cfg, "train", input_paths)

    summary = f"method {method}: stop {report.stop_reason}, " \
              f"{report.wall_clock_seconds:.1f}s"
    if final is not None:
        summary += f", acc {final['acc']:.4f}, ari {final['ari']:.4f}"
    print(summary)
    print(f"run directory: {out}")
    return 0


def _read_label_file(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(int(float(text)))
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise ValueError(f"{path}:{lineno}: non-numeric value {text!r}") from None
    return np.array(values, dtype=np.int64)


def cmd_eval(args) -> int:
    assignments = _read_label_file(args.assignments)
    labels = _read_label_file(args.labels)
    if len(assignments) != len(labels):
        raise ConfigError(
            f"length mismatch: {len(assignments)} assignments vs {len(labels)} labels"
        )
    ds = Dataset(features=np.zeros((len(labels), 1)), labels=labels)
    final = _final_metrics(ds, assignments)
    print(f"acc: {final['acc']:.6f}")
    print(f"ari: {final['ari']:.6f}")
    print("class,recall,precision,f_measure")
    for cls, prf in final["per_class"].items():
        print(f"{cls},{prf['recall']:.6f},{prf['precision']:.6f},{prf['f_measure']:.6f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_metrics_csv(out / "metrics.csv", final)
    return 0


def cmd_subsample(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.get("subsample.mode") is None:
        raise ConfigError("subsample command needs subsample.mode in the config")
    input_paths = _existing_paths(cfg, need_model=False)
    out = _unique_dir(cfg.get("out", "runs/subsample") if args.out is None else args.out)

    full = _load_filtered(cfg)
    spec = _subsample_spec(cfg)
    reduced = subsample(full, spec)

    out.mkdir(parents=True, exist_ok=True)
    fmt = cfg.require("data.format")
    if fmt == "idx":
        files = {
            "images": str(out / "images-idx3-ubyte"),
            "labels": str(out / "labels-idx1-ubyte"),
        }
        save_idx(reduced, files["images"], files["labels"])
    else:
        files = {"csv": str(out / "data.csv")}
        save_csv(reduced, files["csv"])
    _write_manifest(
        out, cfg, "subsample", input_paths,
        extra={
            "subsample": vars(spec),
            "class_counts_before": full.class_counts,
            "class_counts_after": reduced.class_counts,
            "output_files": files,
        },
    )
    print(f"subsampled {full.n} -> {reduced.n} rows; outputs in {out}")
    return 0


def _overrides(args) -> dict:
    mapping = {
        "seed": getattr(args, "seed", None),
        "method": getattr(args, "method", None),
        "gamma": getattr(args, "gamma", None),
        "epsilon": getattr(args, "epsilon", None),
        "s": getattr(args, "s", None),
        "tau": getattr(args, "tau", None),
        "max_iter": getattr(args, "max_iter", None),
    }
    return {k: v for k, v in mapping.items() if v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdec",
        description="Deep embedded clustering experiments with adversarial regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_train_flags=False):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if with_train_flags:
            p.add_argument("--method", choices=METHODS, default=None)
            p.add_argument("--gamma", type=float, default=None)
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--s", type=float, default=None)
            p.add_argument("--tau", type=int, default=None)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=None)

    p_pre = sub.add_parser("pretrain", help="train the autoencoder, write a model file")
    add_common(p_pre)
    p_pre.set_defaults(func=cmd_pretrain)

    p_train = sub.add_parser("train", help="run a clustering method, write a run directory")
    add_common(p_train, with_train_flags=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score an assignments file against labels")
    p_eval.add_argument("assignments", help="file with one cluster id per line")
    p_eval.add_argument("labels", help="file with one true label per line")
    p_eval.add_argument("--out", default=None, help="directory for metrics.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_sub = sub.add_parser("subsample", help="write an imbalanced dataset variant")
    add_common(p_sub)
    p_sub.set_defaults(func=cmd_subsample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
