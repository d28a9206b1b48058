"""scripts/make_glyphs.py writes MNIST-layout glyph files that the shipped configs read."""

import importlib.util
import json
from pathlib import Path

from rdec.cli import main
from rdec.data import read_idx

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_glyphs.py"
FILES = ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
         "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")


def load_script():
    spec = importlib.util.spec_from_file_location("make_glyphs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_shipped_config_subsamples_the_glyph_files(tmp_path):
    glyphs = tmp_path / "glyphs"
    assert load_script().main(["--out", str(glyphs), "--per-class", "12"]) == 0
    assert sorted(path.name for path in glyphs.iterdir()) == sorted(FILES)
    train, t10k = (read_idx(glyphs / f"{name}-images-idx3-ubyte.gz",
                            glyphs / f"{name}-labels-idx1-ubyte.gz") for name in ("train", "t10k"))
    assert (train.features.shape, t10k.features.shape) == ((120, 784), (20, 784))
    assert train.class_counts == dict.fromkeys(range(10), 12)
    assert t10k.class_counts == dict.fromkeys(range(10), 2)
    assert all((glyphs / name).read_bytes()[:2] == b"\x1f\x8b" for name in FILES)

    out = tmp_path / "sub"
    images, labels = (",".join(str(glyphs / name) for name in FILES[i::2]) for i in (0, 1))
    assert main(["subsample", "--config", str(ROOT / "configs" / "mnist06_imb_rdec.cfg"),
                 "--set", f"data.images={images}", "--set", f"data.labels={labels}",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["class_counts_before"] == {"0": 14, "6": 14}
    # single_class keeps round(0.1 * 14) = 1 row of class 0 and every row of class 6
    assert manifest["class_counts_after"] == {"0": round(0.1 * 14), "6": 14}
    kept = read_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")
    assert kept.class_counts == {0: 1, 6: 14}


def test_the_same_rows_give_the_same_bytes(tmp_path):
    script = load_script()
    for name in ("a", "b"):
        assert script.main(["--out", str(tmp_path / name), "--per-class", "6"]) == 0
    for name in FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
