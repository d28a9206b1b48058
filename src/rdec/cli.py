"""Experiment command line: pretrain, train, eval, subsample.

Configs are flat ``key = value`` text files (``#`` starts a comment);
unknown keys are rejected. ``SCHEMA`` holds the data and run keys, and each
``TrainConfig`` field is one training key (``TRAINING_KEYS``). A config
reads the CSV file ``data.path`` names when that key is set and non-empty,
else the IDX pairs in ``data.images`` and ``data.labels``. Shipped
baseline configs live in ``configs/``.
``pretrain``, ``train`` and ``subsample`` take a repeatable ``--set
KEY=VALUE``: the values are parsed as further config lines (source
``--set``, line N for the N-th value) and replace the file's values.
Every run directory is self-describing: it holds the command, content
hashes of all input files and of every file it holds, and, for commands
that read a config, a copy of it, the settings it sets (``--out`` as
``out``), the seed, and what they resolve to: every ``TrainConfig`` field as
``training`` and, when ``subsample.*`` keys are set, the ``SubsampleSpec``
as ``subsample``. It appears whole or not at all: its files go to a hidden
staging directory beside it, ``manifest.json`` last, and one rename
publishes it. Existing run directories, ``eval --out``'s included, are
never overwritten; a timestamp suffix is appended instead.

``eval`` reads one-column CSV files, its line numbers counting file lines.
Exit codes: 0 success, 1 runtime failure, 2 config/validation failure (an
empty required key included) or a malformed input file, named (data,
label or model; a cut or corrupt gzip stream, text that is not UTF-8 and
a CSV cell over the field size limit included; a header claiming more
bytes than the file holds is truncated), IDX image files of different
widths merged, or ``eval`` on fewer than two values.
``RDEC_NUM_THREADS`` pins the BLAS thread count (matmul reductions stay
deterministic for a fixed thread count). The ``rdec`` package applies it on
its first import, before numpy loads, for this CLI and library scripts alike.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import metrics
from .data import (
    DataFormatError,
    Dataset,
    SubsampleSpec,
    filter_classes,
    load_csv,
    read_idx,
    read_labels,
    save_csv,
    save_idx,
    scale_pixels,
    subsample,
    write_csv,
)
from .network import build_network, encode, load_model, save_model
from .trainer import (ENCODER_METHODS, FINETUNE_METHODS, IterationRecord, TrainConfig,
                      pretrain, run_clustering)


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip() != ""]


# The data and run keys with their parsers. Dotted key prefixes group
# related settings; values are plain text after the first '='.
SCHEMA = {
    "data.images": _parse_str_list,
    "data.labels": _parse_str_list,
    "data.path": str,
    "data.label_column": str,
    "data.classes": _parse_int_list,
    "data.name": str,
    "subsample.mode": str,
    "subsample.r_min": float,
    "subsample.target_class": int,
    "subsample.counts": _parse_int_list,
    "subsample.seed": int,
    "k": int,
    "latent_dim": int,
    "model": str,
    "out": str,
}

# Each TrainConfig field is set by one training key: the field name, the first
# underscore of a pretrain_ or kmeans_ field read as a dot.
TRAINING_KEYS = {re.sub(r"^(pretrain|kmeans)_", r"\1.", f.name): f.name
                 for f in fields(TrainConfig)}
# Every legal key's parser; a training key's is the type of its field's default.
PARSERS = {**SCHEMA, **{key: type(getattr(TrainConfig, name))
                        for key, name in TRAINING_KEYS.items()}}


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
        if key not in PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in settings:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            settings[key] = PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return settings


@dataclass
class ExperimentConfig:
    settings: dict = field(default_factory=dict)
    config_text: str = ""
    config_path: str | None = None
    train: TrainConfig = field(init=False)
    subsample: SubsampleSpec | None = field(init=False)

    def get(self, key, default=None):
        return self.settings.get(key, default)

    def require(self, key):
        if self.settings.get(key) in (None, [], ""):
            raise ConfigError(f"config key {key!r} is missing or empty")
        return self.settings[key]

    def __post_init__(self):
        """Set ``train``: TrainConfig defaults, overridden by the training keys
        present, checked as TrainConfig is built; ``k`` and ``latent_dim`` too.
        Set ``subsample`` the same way from the ``subsample.*`` keys present, if
        any: they need ``subsample.mode``; the seed defaults to the training one."""
        train = {TRAINING_KEYS[key]: value for key, value in self.settings.items()
                 if key in TRAINING_KEYS}
        sub = {key.removeprefix("subsample."): value for key, value in self.settings.items()
               if key.startswith("subsample.")}
        if sub and "mode" not in sub:
            raise ConfigError(f"subsample.{next(iter(sub))} is set but subsample.mode is not")
        try:
            cfg = TrainConfig(**train)
            spec = SubsampleSpec(**{"seed": cfg.seed, **sub}) if sub else None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # dec and rdec fine-tune toward at least two clusters.
        k_min = 2 if cfg.method in FINETUNE_METHODS else 1
        if self.settings.get("k", k_min) < k_min:
            raise ConfigError(f"k must be >= {k_min} for method {cfg.method}, "
                              f"got {self.settings['k']}")
        if self.settings.get("latent_dim", 1) < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.settings['latent_dim']}")
        self.train = cfg
        self.subsample = spec


def load_config(path, assignments=(), out=None) -> ExperimentConfig:
    """The config file's settings, updated by ``KEY=VALUE`` assignments, then
    by ``out``, the ``--out`` flag, if given."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    settings = parse_config_text(text, source=str(path))
    settings.update(parse_config_text("\n".join(assignments), source="--set"))
    if out is not None:
        settings["out"] = out
    return ExperimentConfig(settings=settings, config_text=text, config_path=str(path))


class DataSource(NamedTuple):
    """Input files, their loader, and the writer of a variant in the same format.

    ``load`` returns IDX pixels as bytes: rows are selected by label before
    ``load_dataset`` scales the ones kept, and ``subsample`` writes those as read.
    """

    files: list[Path]
    load: Callable[[], Dataset]
    outputs: dict[str, str]  # manifest key -> run-directory file name
    save: Callable[..., None]  # save(dataset, *paths), one path per output


def _read_idx_files(images: list[str], labels: list[str], name: str) -> Dataset:
    """The IDX pairs read and joined in order, one pair as read; an image file
    whose width is not the first one's is a ``ConfigError`` naming both."""
    parts = []
    for img, lab in zip(images, labels):
        parts.append(read_idx(img, lab, name=name))
        if parts[-1].dim != parts[0].dim:
            raise ConfigError(f"data.images: {images[0]} has {parts[0].dim}-pixel images, "
                              f"{img} has {parts[-1].dim}-pixel images")
    if len(parts) == 1:
        return parts[0]
    return Dataset(np.concatenate([part.features for part in parts]),
                   np.concatenate([part.labels for part in parts]), name=name)


def _data_source(cfg: ExperimentConfig, need_model: bool = False) -> DataSource:
    """The input files and their reader/writer: the CSV file ``data.path``
    names when it is set and non-empty, else the IDX pairs in ``data.images``
    and ``data.labels``. The files are the data's, then the model's if
    ``need_model``; a missing one is a ``ConfigError``."""
    name = cfg.get("data.name", "dataset")
    path = cfg.get("data.path")
    if path:
        label_column = cfg.get("data.label_column")
        source = DataSource(
            files=[Path(path)],
            load=partial(load_csv, path, label_column, name=name),
            outputs={"csv": "data.csv"},
            save=partial(save_csv, label_column=label_column),
        )
    else:
        images = cfg.require("data.images")
        labels = cfg.require("data.labels")
        if len(images) != len(labels):
            raise ConfigError(f"{len(images)} image files vs {len(labels)} label files")
        source = DataSource(
            files=[Path(p) for p in images + labels],
            load=partial(_read_idx_files, images, labels, name),
            outputs={"images": "images-idx3-ubyte", "labels": "labels-idx1-ubyte"},
            save=save_idx,
        )
    if need_model:
        source.files.append(Path(cfg.require("model")))
    missing = [str(p) for p in source.files if not p.is_file()]
    if missing:
        raise ConfigError(f"input files not found: {', '.join(missing)}")
    return source


def _select_rows(cfg: ExperimentConfig, source: DataSource) -> tuple[Dataset, Dataset]:
    """The loaded rows of the configured classes, if any, and of those the
    rows the subsample keeps, if one is configured; neither is scaled yet.
    A class or a count that the data cannot supply, or no row kept, is a
    ``ConfigError``."""
    ds = source.load()
    classes = cfg.get("data.classes")
    try:
        if classes:
            ds = filter_classes(ds, classes)
        kept = ds if cfg.subsample is None else subsample(ds, cfg.subsample)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if kept.n == 0:
        raise ConfigError("the data supplies no rows")
    return ds, kept


def load_dataset(cfg: ExperimentConfig, source: DataSource) -> Dataset:
    """Load, optionally class-filter, and optionally subsample the dataset,
    then scale the rows kept if they are still uint8 pixels."""
    ds = _select_rows(cfg, source)[1]
    return scale_pixels(ds) if ds.features.dtype == np.uint8 else ds


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def _publish(args, cfg: ExperimentConfig | None, input_paths: list[Path]):
    """Stage a run directory and publish it whole with one rename.

    The target ``out`` is the ``out`` setting (``--out`` when given), else
    ``runs/<command>``, or ``eval``'s ``--out``, with a timestamp suffix if it
    exists. Yields ``(stage, out, extra)``: the block writes its files into
    ``stage``, a hidden directory beside ``out``, and may add manifest entries
    to ``extra``. Then ``manifest.json`` is written last and ``stage`` renamed
    to ``out``; if either raises, or the block does, ``stage`` is removed.
    """
    base = Path(args.out if cfg is None else cfg.get("out") or f"runs/{args.command}")
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
        extra: dict = {}
        yield stage, out, extra
        _write_manifest(stage, cfg, args.command, input_paths, extra)
        os.rename(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_manifest(out: Path, cfg: ExperimentConfig | None, command: str,
                    input_paths: list[Path], extra: dict) -> None:
    """Write config.txt when there is a config, then manifest.json with the
    settings as set and as resolved, and the hash of every other file."""
    manifest = {"command": command}
    if cfg is not None:
        (out / "config.txt").write_text(cfg.config_text)
        manifest["seed"] = cfg.train.seed
        manifest["config_file"] = cfg.config_path
        manifest["settings"] = {k: cfg.settings[k] for k in sorted(cfg.settings)}
        manifest["training"] = asdict(cfg.train)
        if cfg.subsample is not None:
            manifest["subsample"] = asdict(cfg.subsample)
    manifest["input_sha256"] = {str(p): _sha256(p) for p in input_paths}
    manifest["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest.update(extra)
    manifest["output_sha256"] = {p.name: _sha256(p) for p in sorted(out.iterdir())}
    _write_json(out / "manifest.json", manifest)


def _print_progress(event: dict) -> None:
    if event["phase"] == "pretrain":
        line = f"[pretrain] epoch {event['epoch']}: loss {event['loss']:.6f}"
    else:
        parts = [f"[finetune] iter {event['iteration']}: loss {event['loss']:.6f}"]
        if event.get("acc") is not None:
            parts.append(f"acc {event['acc']:.4f}")
        if event.get("label_change_rate") is not None:
            parts.append(f"delta {event['label_change_rate']:.4f}")
        line = " ".join(parts)
    print(line, file=sys.stderr, flush=True)


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, args.set, args.out)
    source = _data_source(cfg)
    ds = load_dataset(cfg, source)
    latent = cfg.get("latent_dim", 10)
    encoder, decoder = build_network(ds.dim, latent, cfg.train.seed)

    epochs_log: list[dict] = []

    def log_epoch(event: dict) -> None:
        epochs_log.append({"epoch": event["epoch"], "loss": event["loss"]})
        _print_progress(event)

    final_loss = pretrain(encoder, decoder, ds.features, cfg.train, progress=log_epoch)

    with _publish(args, cfg, source.files) as (stage, out, _):
        save_model(stage / "model.bin", encoder, decoder)
        _write_json(stage / "pretrain_log.json",
                    {"epochs": epochs_log, "final_reconstruction_loss": final_loss})
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
    write_csv(path, ("metric", "class", "value"), rows)


# curves.csv columns: every IterationRecord field, then the step ACC
CURVE_FIELDS = [f.name for f in fields(IterationRecord)]


def _curve_rows(report):
    # acc is the most recent checkpoint value at each iteration (step curve)
    acc_at = {c.iteration: c.acc for c in report.checkpoints}
    current_acc = None
    for rec in report.iterations:
        if acc_at.get(rec.iteration) is not None:
            current_acc = acc_at[rec.iteration]
        yield [getattr(rec, name) for name in CURVE_FIELDS] + [current_acc]


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set, args.out)
    method = cfg.train.method
    needs_model = method in ENCODER_METHODS
    source = _data_source(cfg, need_model=needs_model)

    encoder = None
    if needs_model:
        encoder, _ = load_model(cfg.require("model"))
        latent = cfg.get("latent_dim")
        if latent is not None and encoder.output_dim != latent:
            raise ConfigError(f"model embeds to {encoder.output_dim} dims, config says {latent}")
    ds = load_dataset(cfg, source)
    k = cfg.get("k", 10)
    if k > ds.n:
        raise ConfigError(f"k={k} exceeds the {ds.n} rows the data supplies")
    if encoder is not None and encoder.input_dim != ds.dim:
        raise ConfigError(f"model expects {encoder.input_dim}-dim inputs, dataset has {ds.dim}")

    assignments, report = run_clustering(
        method, ds.features, k, cfg.train, encoder=encoder,
        labels=ds.labels, progress=_print_progress,
    )

    final = _final_metrics(ds.labels, assignments)
    payload = report.to_dict()
    payload["final_metrics"] = final
    payload["n"] = ds.n
    payload["k"] = k
    with _publish(args, cfg, source.files) as (stage, out, _):
        _write_json(stage / "report.json", payload)
        write_csv(stage / "assignments.csv", ("assignment",), ((a,) for a in assignments))
        if final is not None:
            _write_metrics_csv(stage / "metrics.csv", final)
        write_csv(stage / "curves.csv", CURVE_FIELDS + ["acc"], _curve_rows(report))
        if encoder is not None and encoder.output_dim == 2:
            z = encode(encoder, ds.features)
            columns = {"z0": z[:, 0], "z1": z[:, 1], "assignment": assignments}
            if ds.labels is not None:
                columns["label"] = ds.labels
            write_csv(stage / "embeddings.csv", columns, zip(*columns.values()))

    summary = f"method {method}: stop {report.stop_reason}, " \
              f"{report.wall_clock_seconds:.1f}s"
    if final is not None:
        summary += f", acc {final['acc']:.4f}, ari {final['ari']:.4f}"
    print(summary)
    print(f"run directory: {out}")
    return 0


def cmd_eval(args) -> int:
    assignments = read_labels(args.assignments)
    labels = read_labels(args.labels)
    if len(assignments) != len(labels):
        raise ConfigError(f"length mismatch: {len(assignments)} assignments vs "
                          f"{len(labels)} labels")
    if len(labels) == 0:
        raise ConfigError(f"no values in {args.assignments} or {args.labels}")
    if len(labels) == 1:
        raise ConfigError(f"one value in {args.assignments} and {args.labels}; "
                          "the metrics need at least two")
    final = _final_metrics(labels, assignments)
    print(f"acc: {final['acc']:.6f}")
    print(f"ari: {final['ari']:.6f}")
    print("class,recall,precision,f_measure")
    for cls, prf in final["per_class"].items():
        print(f"{cls},{prf['recall']:.6f},{prf['precision']:.6f},{prf['f_measure']:.6f}")
    if args.out:
        with _publish(args, None, [Path(args.assignments), Path(args.labels)]) as (stage, out, _):
            _write_metrics_csv(stage / "metrics.csv", final)
        print(f"metrics written to {out / 'metrics.csv'}")
    return 0


def cmd_subsample(args) -> int:
    cfg = load_config(args.config, args.set, args.out)
    if cfg.subsample is None:
        raise ConfigError("subsample command needs subsample.mode in the config")
    source = _data_source(cfg)
    full, kept = _select_rows(cfg, source)
    with _publish(args, cfg, source.files) as (stage, out, extra):
        source.save(kept, *(stage / name for name in source.outputs.values()))
        extra.update(class_counts_before=full.class_counts, class_counts_after=kept.class_counts,
                     output_files={key: str(out / name) for key, name in source.outputs.items()})
    print(f"subsampled {full.n} -> {kept.n} rows; outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdec",
        description="Deep embedded clustering experiments with adversarial regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, help, func):
        # exact flag names: a removed flag such as --s must not read as --set
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, written as a config line; repeatable")
        p.set_defaults(func=func)

    add_config_command("pretrain", "train the autoencoder, write a model file", cmd_pretrain)
    add_config_command("train", "run a clustering method, write a run directory", cmd_train)

    p_eval = sub.add_parser("eval", help="score an assignments file against labels")
    p_eval.add_argument("assignments", help="file with one cluster id per line")
    p_eval.add_argument("labels", help="file with one true label per line")
    p_eval.add_argument("--out", default=None, help="directory for metrics.csv")
    p_eval.set_defaults(func=cmd_eval)

    add_config_command("subsample", "write an imbalanced dataset variant", cmd_subsample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
