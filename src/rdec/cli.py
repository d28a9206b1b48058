"""Experiment command line: pretrain, train, eval, subsample.

Configs are flat ``key = value`` text files (``#`` starts a comment);
unknown keys are rejected. Shipped baseline configs live in ``configs/``.
Every run directory is self-describing: it holds the command, content
hashes of all input files and of every file it holds, and, for commands
that read a config, a copy of it, the resolved settings and the seed. It
appears whole or not at all: its files go to a hidden staging directory
beside it, ``manifest.json`` last, and one rename publishes it. Existing
run directories, ``eval --out``'s included, are never overwritten; a
timestamp suffix is appended instead.

Exit codes: 0 success, 1 runtime failure, 2 config/validation failure.
``RDEC_NUM_THREADS`` pins the BLAS thread count (matmul reductions stay
deterministic for a fixed thread count). The ``rdec`` package applies it on
its first import, before numpy loads, for this CLI and library scripts alike.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce
from pathlib import Path
from typing import Callable, NamedTuple

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
from .trainer import ENCODER_METHODS, TrainConfig, pretrain, run_clustering


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip() != ""]


# Every legal config key with its parser and, for training settings, the
# TrainConfig field it sets. Dotted key prefixes group related settings;
# values are plain text after the first '='.
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
    "epsilon": (float, "epsilon"),
    "xi": (float, "xi"),
    "ip": (int, "ip"),
    "tau": (int, "tau"),
    "sigma": (float, "sigma"),
    "max_iter": (int, "max_iter"),
    "batch_size": (int, "batch_size"),
    "pretrain.epochs": (int, "pretrain_epochs"),
    "pretrain.lr": (float, "pretrain_lr"),
    "pretrain.momentum": (float, "pretrain_momentum"),
    "finetune.lr": (float, "finetune_lr"),
    "finetune.momentum": (float, "finetune_momentum"),
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
    train: TrainConfig = field(init=False)

    def get(self, key, default=None):
        return self.settings.get(key, default)

    def require(self, key):
        if self.settings.get(key) in (None, []):
            raise ConfigError(f"config key {key!r} is missing or empty")
        return self.settings[key]

    def __post_init__(self):
        """Set ``train``: TrainConfig defaults, overridden by the training keys
        present, then validated; ``k`` and ``latent_dim`` are checked too."""
        fields = {SCHEMA[key][1]: value for key, value in self.settings.items()
                  if SCHEMA[key][1] is not None}
        cfg = TrainConfig(**fields)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # dec and rdec fine-tune toward at least two clusters.
        k_min = 2 if cfg.method in ("dec", "rdec") else 1
        if self.settings.get("k", k_min) < k_min:
            raise ConfigError(f"k must be >= {k_min} for method {cfg.method}, "
                              f"got {self.settings['k']}")
        if self.settings.get("latent_dim", 1) < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.settings['latent_dim']}")
        self.train = cfg


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    settings = parse_config_text(text, source=str(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            settings[key] = value
    return ExperimentConfig(settings=settings, config_text=text, config_path=str(path))


class DataSource(NamedTuple):
    """Input files, their loader, and the writer of a variant in the same format."""

    files: list[Path]
    load: Callable[[], Dataset]
    outputs: dict[str, str]  # manifest key -> run-directory file name
    save: Callable[..., None]  # save(dataset, *paths), one path per output


def _data_source(cfg: ExperimentConfig) -> DataSource:
    """Resolve ``data.format`` into the input files and their reader/writer."""
    fmt = cfg.require("data.format")
    name = cfg.get("data.name", "dataset")
    if fmt == "idx":
        images = cfg.require("data.images")
        labels = cfg.require("data.labels")
        if len(images) != len(labels):
            raise ConfigError(
                f"{len(images)} image files vs {len(labels)} label files"
            )
        return DataSource(
            files=[Path(p) for p in images + labels],
            load=lambda: reduce(concat, (load_idx(img, lab, name=name)
                                         for img, lab in zip(images, labels))),
            outputs={"images": "images-idx3-ubyte", "labels": "labels-idx1-ubyte"},
            save=save_idx,
        )
    if fmt == "csv":
        path = cfg.require("data.path")
        label_column = cfg.get("data.label_column")
        return DataSource(
            files=[Path(path)],
            load=lambda: load_csv(path, label_column, name=name),
            outputs={"csv": "data.csv"},
            save=partial(save_csv, label_column=label_column),
        )
    raise ConfigError(f"unknown data.format {fmt!r}")


def _existing_paths(cfg: ExperimentConfig, source: DataSource, *,
                    need_model: bool) -> list[Path]:
    """Validate that every input file exists; returns them for hashing."""
    paths = list(source.files)
    if need_model:
        paths.append(Path(cfg.require("model")))
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise ConfigError(f"input files not found: {', '.join(missing)}")
    return paths


def _load_filtered(cfg: ExperimentConfig, source: DataSource) -> Dataset:
    """Load the dataset files and keep the configured classes, if any."""
    ds = source.load()
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
        seed=cfg.get("subsample.seed", cfg.train.seed),
    )


def load_dataset(cfg: ExperimentConfig, source: DataSource) -> Dataset:
    """Load, optionally class-filter, and optionally subsample the dataset."""
    ds = _load_filtered(cfg, source)
    if cfg.get("subsample.mode"):
        ds = subsample(ds, _subsample_spec(cfg))
    return ds


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def _publish(args, cfg: ExperimentConfig | None = None, default: str | None = None):
    """Stage a run directory and publish it whole with one rename.

    The target ``out`` is ``--out``, else the ``out`` key, else ``default``,
    with a timestamp suffix if it exists. Yields ``(stage, out)``: the block
    writes its files into ``stage``, a hidden directory beside ``out``, which
    is renamed to ``out`` when the block ends, or removed if it raises.
    """
    base = Path(cfg.get("out", default) if args.out is None else args.out)
    out = base  # as a Path, a trailing slash cannot put the suffix inside base
    if out.exists():
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = Path(f"{base}-{stamp}")
        counter = 0
        while out.exists():
            counter += 1
            out = Path(f"{base}-{stamp}-{counter}")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)  # the mode mkdir gives; mkdtemp's is 0o700
        yield stage, out
        os.rename(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _csv_cell(value) -> str:
    """Floats as the repr of a Python float, None empty, the rest as str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(_csv_cell(v) for v in row) for row in (header, *rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out: Path, cfg: ExperimentConfig | None, command: str,
                    input_paths: list[Path], extra: dict | None = None) -> None:
    """Write config.txt when there is a config, then manifest.json with the
    hash of every other file."""
    manifest = {"command": command}
    if cfg is not None:
        (out / "config.txt").write_text(cfg.config_text)
        manifest["seed"] = cfg.train.seed
        manifest["config_file"] = cfg.config_path
        manifest["settings"] = {k: cfg.settings[k] for k in sorted(cfg.settings)}
    manifest["input_sha256"] = {str(p): _sha256(p) for p in input_paths}
    manifest["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest.update(extra or {})
    manifest["output_sha256"] = {p.name: _sha256(p) for p in sorted(out.iterdir())}
    _write_json(out / "manifest.json", manifest)


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
    source = _data_source(cfg)
    input_paths = _existing_paths(cfg, source, need_model=False)
    ds = load_dataset(cfg, source)
    latent = cfg.get("latent_dim", 10)
    encoder, decoder = build_network(ds.dim, latent, cfg.train.seed)

    epochs_log: list[dict] = []
    printer = _progress_printer()

    def log_epoch(event: dict) -> None:
        epochs_log.append({"epoch": event["epoch"], "loss": event["loss"]})
        printer(event)

    final_loss = pretrain(encoder, decoder, ds.features, cfg.train, progress=log_epoch)

    with _publish(args, cfg, "runs/pretrain") as (stage, out):
        save_model(stage / "model.bin", encoder, decoder)
        _write_json(stage / "pretrain_log.json",
                    {"epochs": epochs_log, "final_reconstruction_loss": final_loss})
        _write_manifest(stage, cfg, "pretrain", input_paths)
    print(f"model written to {out / 'model.bin'} (final reconstruction loss {final_loss:.6f})")
    return 0


def _final_metrics(labels: np.ndarray | None, assignments: np.ndarray) -> dict | None:
    if labels is None:
        return None
    acc, mapping = metrics.accuracy(labels, assignments)
    ari = metrics.adjusted_rand_index(labels, assignments)
    per_class = {}
    for cls in sorted(np.unique(labels).tolist()):
        recall, precision, f_measure = metrics.per_class_prf(
            labels, assignments, mapping, cls
        )
        per_class[int(cls)] = {
            "recall": recall, "precision": precision, "f_measure": f_measure,
        }
    return {"acc": acc, "ari": ari, "mapping": {str(k): v for k, v in mapping.items()},
            "per_class": per_class}


def _write_metrics_csv(path: Path, final: dict) -> None:
    rows = [("acc", None, final["acc"]), ("ari", None, final["ari"])]
    for cls, prf in final["per_class"].items():
        rows += [(key, cls, prf[key]) for key in ("recall", "precision", "f_measure")]
    _write_csv(path, ("metric", "class", "value"), rows)


def _curve_rows(report):
    # acc is the most recent checkpoint value at each iteration (step curve)
    acc_at = {c.iteration: c.acc for c in report.checkpoints}
    current_acc = None
    for rec in report.iterations:
        if acc_at.get(rec.iteration) is not None:
            current_acc = acc_at[rec.iteration]
        yield rec.iteration, rec.clustering_loss, rec.vat_loss, rec.total_loss, current_acc


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    method = cfg.train.method
    needs_model = method in ENCODER_METHODS
    source = _data_source(cfg)
    input_paths = _existing_paths(cfg, source, need_model=needs_model)

    encoder = None
    if needs_model:
        encoder, _ = load_model(cfg.require("model"))
        latent = cfg.get("latent_dim")
        if latent is not None and encoder.output_dim != latent:
            raise ConfigError(
                f"model embeds to {encoder.output_dim} dims, config says {latent}"
            )
    ds = load_dataset(cfg, source)
    if encoder is not None and encoder.input_dim != ds.dim:
        raise ConfigError(
            f"model expects {encoder.input_dim}-dim inputs, dataset has {ds.dim}"
        )
    k = cfg.get("k", 10)

    assignments, report = run_clustering(
        method, ds.features, k, cfg.train, encoder=encoder,
        labels=ds.labels, progress=_progress_printer(),
    )

    final = _final_metrics(ds.labels, assignments)
    payload = report.to_dict()
    payload["final_metrics"] = final
    payload["n"] = ds.n
    payload["k"] = k
    with _publish(args, cfg, "runs/train") as (stage, out):
        _write_json(stage / "report.json", payload)
        _write_csv(stage / "assignments.csv", ("assignment",), ((a,) for a in assignments))
        if final is not None:
            _write_metrics_csv(stage / "metrics.csv", final)
        _write_csv(stage / "curves.csv",
                   ("iteration", "clustering_loss", "vat_loss", "total_loss", "acc"),
                   _curve_rows(report))
        if encoder is not None and encoder.output_dim == 2:
            z = encode(encoder, ds.features)
            columns = {"z0": z[:, 0], "z1": z[:, 1], "assignment": assignments}
            if ds.labels is not None:
                columns["label"] = ds.labels
            _write_csv(stage / "embeddings.csv", columns, zip(*columns.values()))
        _write_manifest(stage, cfg, "train", input_paths)

    summary = f"method {method}: stop {report.stop_reason}, " \
              f"{report.wall_clock_seconds:.1f}s"
    if final is not None:
        summary += f", acc {final['acc']:.4f}, ari {final['ari']:.4f}"
    print(summary)
    print(f"run directory: {out}")
    return 0


def _read_label_file(path) -> np.ndarray:
    """One integer per non-blank line, after an optional non-numeric header."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1:  # header row
                    continue
                value = None
            if value is None or not value.is_integer():  # NaN and infinities too
                raise ValueError(f"{path}:{lineno}: non-integer value {text!r}")
            values.append(int(value))
    return np.array(values, dtype=np.int64)


def cmd_eval(args) -> int:
    assignments = _read_label_file(args.assignments)
    labels = _read_label_file(args.labels)
    if len(assignments) != len(labels):
        raise ConfigError(
            f"length mismatch: {len(assignments)} assignments vs {len(labels)} labels"
        )
    if len(labels) == 0:
        raise ConfigError(f"no values in {args.assignments} or {args.labels}")
    final = _final_metrics(labels, assignments)
    print(f"acc: {final['acc']:.6f}")
    print(f"ari: {final['ari']:.6f}")
    print("class,recall,precision,f_measure")
    for cls, prf in final["per_class"].items():
        print(f"{cls},{prf['recall']:.6f},{prf['precision']:.6f},{prf['f_measure']:.6f}")
    if args.out:
        with _publish(args) as (stage, out):
            _write_metrics_csv(stage / "metrics.csv", final)
            _write_manifest(stage, None, "eval", [Path(args.assignments), Path(args.labels)])
        print(f"metrics written to {out / 'metrics.csv'}")
    return 0


def cmd_subsample(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.get("subsample.mode") is None:
        raise ConfigError("subsample command needs subsample.mode in the config")
    source = _data_source(cfg)
    input_paths = _existing_paths(cfg, source, need_model=False)

    full = _load_filtered(cfg, source)
    spec = _subsample_spec(cfg)
    reduced = subsample(full, spec)

    with _publish(args, cfg, "runs/subsample") as (stage, out):
        source.save(reduced, *(stage / name for name in source.outputs.values()))
        _write_manifest(
            stage, cfg, "subsample", input_paths,
            extra={
                "subsample": vars(spec),
                "class_counts_before": full.class_counts,
                "class_counts_after": reduced.class_counts,
                "output_files": {key: str(out / name)
                                 for key, name in source.outputs.items()},
            },
        )
    print(f"subsampled {full.n} -> {reduced.n} rows; outputs in {out}")
    return 0


# Config keys that command-line flags of the train command override.
OVERRIDE_KEYS = ("seed", "method", "gamma", "epsilon", "s", "tau", "max_iter")


def _overrides(args) -> dict:
    return {key: getattr(args, key, None) for key in OVERRIDE_KEYS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdec",
        description="Deep embedded clustering experiments with adversarial regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, overrides=("seed",)):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="override output directory")
        for key in overrides:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=SCHEMA[key][0],
                           default=None, help=f"override config {key}")

    p_pre = sub.add_parser("pretrain", help="train the autoencoder, write a model file")
    add_common(p_pre)
    p_pre.set_defaults(func=cmd_pretrain)

    p_train = sub.add_parser("train", help="run a clustering method, write a run directory")
    add_common(p_train, OVERRIDE_KEYS)
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
