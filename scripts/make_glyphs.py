#!/usr/bin/env python3
"""Write procedural digit glyphs as MNIST-layout gzip IDX files (glyphs, not MNIST).

Usage: python scripts/make_glyphs.py --out DIR [--per-class N]

DIR receives train-images-idx3-ubyte.gz, train-labels-idx1-ubyte.gz,
t10k-images-idx3-ubyte.gz and t10k-labels-idx1-ubyte.gz: 10 classes, N
rows per class for train (default 6000) and N // 6 for t10k, as in MNIST.
The rows are ``perfbench/glyphs.make_glyphs``'s, seed 0 for train and 1 for
t10k, so the same N always gives the same files. Every shipped config reads
them with ``--set data.images=DIR/train-images-idx3-ubyte.gz,DIR/t10k-...``
and the matching ``--set data.labels=...``.

The train rows are held as float64 before they are written: 376 MB at the
default N. At N = 1000 (11 660 rows) a run took about 5 s and peaked at
161 MiB on a 2-vCPU VM.
"""

import argparse
import gzip
import importlib.util
import sys
from pathlib import Path

from rdec.data import Dataset, save_idx

GLYPHS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "glyphs.py"
SPLITS = (("train", 0, 1), ("t10k", 1, 6))  # name, seed, divisor of N


def _load_glyphs():
    spec = importlib.util.spec_from_file_location("perfbench_glyphs", GLYPHS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the four files")
    parser.add_argument("--per-class", type=int, default=6000,
                        help="train rows per class (default 6000); t10k gets N // 6")
    args = parser.parse_args(argv)
    if args.per_class < 1:
        parser.error(f"--per-class must be >= 1, got {args.per_class}")
    glyphs = _load_glyphs()
    args.out.mkdir(parents=True, exist_ok=True)
    for name, seed, divisor in SPLITS:
        images, labels = glyphs.make_glyphs(dict.fromkeys(range(10), args.per_class // divisor),
                                            seed)
        paths = [args.out / f"{name}-{kind}" for kind in ("images-idx3-ubyte",
                                                          "labels-idx1-ubyte")]
        save_idx(Dataset(images, labels, name="glyphs"), *paths)
        for path in paths:
            # mtime 0: the same rows give the same bytes
            Path(f"{path}.gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
            path.unlink()
        print(f"{len(labels)} {name} rows in {paths[0]}.gz and {paths[1]}.gz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
