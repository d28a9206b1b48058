"""Procedural 28x28 digit-like glyphs, a stand-in for MNIST.

Each class is a fixed set of pen strokes (arcs and line segments) in a
unit box: "0" is a tall ring, "6" a lower ring with a stroke rising from
it, and the other classes are drawn the same way. Every image samples
its class template at evenly spaced pen positions, applies a random
affine jitter (rotation, scale, shear, shift) plus a small per-point
wobble, splats the points with a Gaussian pen and adds pixel noise.

The parameters below were fixed before the benchmark's first
measurement and must not be tuned to flatter a method: a change to them
is a change of workload.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
POINTS = 48  # pen positions per glyph
PX_PER_UNIT = 9.5  # unit box [-1, 1] spans pixels 4..23, as in MNIST
ROTATION_SD = np.deg2rad(10.0)
SCALE_SD = 0.08
SHEAR_SD = 0.12
SHIFT_SD_PX = 1.2
WOBBLE_SD = 0.02
PEN_SIGMA_PX = (0.7, 1.0)  # uniform range of the pen's Gaussian width
INK_GAIN = 1.0
NOISE_SD = 0.06
CHUNK = 1024


def _arc(cx, cy, r, start_deg, end_deg, rx=None):
    t = np.deg2rad(np.linspace(start_deg, end_deg, 33))
    return np.stack([cx + (rx or r) * np.cos(t), cy + r * np.sin(t)], axis=1)


def _line(*points):
    return np.array(points, dtype=np.float64)


# Strokes per class, y pointing down. Each stroke is a polyline.
_STROKES = {
    0: [_arc(0.0, 0.0, 0.9, 0, 360, rx=0.6)],
    1: [_line((-0.25, -0.6), (0.1, -0.9), (-0.1, 0.9))],
    2: [np.vstack([_arc(0.0, -0.4, 0.5, 180, 390), _line((-0.6, 0.9), (0.65, 0.9))])],
    3: [_arc(0.0, -0.45, 0.45, -150, 90), _arc(0.0, 0.45, 0.45, -90, 150)],
    4: [_line((0.3, -0.9), (-0.6, 0.35), (0.65, 0.35)), _line((0.35, -0.3), (0.35, 0.9))],
    5: [_line((0.6, -0.9), (-0.4, -0.9), (-0.5, -0.1)), _arc(0.0, 0.35, 0.55, -150, 150)],
    6: [_arc(0.0, 0.4, 0.5, 0, 360), _line((0.4, -0.9), (-0.2, -0.5), (-0.5, 0.1), (-0.5, 0.4))],
    7: [_line((-0.6, -0.9), (0.6, -0.9), (-0.15, 0.9))],
    8: [_arc(0.0, -0.45, 0.42, 0, 360), _arc(0.0, 0.42, 0.48, 0, 360)],
    9: [_arc(0.0, -0.4, 0.5, 0, 360), _line((0.5, -0.4), (0.45, 0.3), (0.2, 0.9))],
}


def _template(strokes) -> np.ndarray:
    """POINTS pen positions spread over the strokes by arc length."""
    lengths = [np.linalg.norm(np.diff(s, axis=0), axis=1) for s in strokes]
    total = sum(seg.sum() for seg in lengths)
    counts = [max(2, int(round(POINTS * seg.sum() / total))) for seg in lengths]
    counts[-1] += POINTS - sum(counts)
    points = []
    for stroke, seg, count in zip(strokes, lengths, counts):
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        at = np.linspace(0.0, cum[-1], count)
        points.append(np.stack([np.interp(at, cum, stroke[:, 0]),
                                np.interp(at, cum, stroke[:, 1])], axis=1))
    return np.vstack(points)


TEMPLATES = np.stack([_template(_STROKES[c]) for c in range(10)])  # (10, POINTS, 2)


def _render(points: np.ndarray, pen: np.ndarray) -> np.ndarray:
    """Separable Gaussian splat of (m, POINTS, 2) pixel positions to (m, SIDE*SIDE)."""
    grid = np.arange(SIDE, dtype=np.float64)
    inv = -0.5 / pen[:, None, None] ** 2
    gx = np.exp(inv * (grid - points[:, :, 0:1]) ** 2)  # (m, POINTS, SIDE) columns
    gy = np.exp(inv * (grid - points[:, :, 1:2]) ** 2)  # rows
    ink = np.matmul(gy.transpose(0, 2, 1), gx)  # (m, SIDE rows, SIDE cols)
    return (1.0 - np.exp(-INK_GAIN * ink)).reshape(len(points), SIDE * SIDE)


def make_glyphs(counts: dict[int, int], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Images in [0, 1] as (n, 784) float64 rows and their int64 class labels.

    ``counts`` maps class id to number of images; rows come out shuffled.
    The same (counts, seed) always gives the same arrays.
    """
    rng = np.random.default_rng([seed, 0x61797068])
    labels = np.concatenate([np.full(c, k, dtype=np.int64) for k, c in sorted(counts.items())])
    labels = labels[rng.permutation(len(labels))]
    n = len(labels)
    angle = np.clip(rng.normal(0.0, ROTATION_SD, n), -3 * ROTATION_SD, 3 * ROTATION_SD)
    scale = 1.0 + rng.normal(0.0, SCALE_SD, (n, 2))
    shear = rng.normal(0.0, SHEAR_SD, n)
    shift = rng.normal(0.0, SHIFT_SD_PX, (n, 2))
    pen = rng.uniform(*PEN_SIGMA_PX, n)
    cos, sin = np.cos(angle), np.sin(angle)
    # x' = R @ Shear @ Scale @ x, per image
    affine = np.empty((n, 2, 2))
    affine[:, 0, 0] = cos * scale[:, 0]
    affine[:, 0, 1] = (cos * shear - sin) * scale[:, 1]
    affine[:, 1, 0] = sin * scale[:, 0]
    affine[:, 1, 1] = (sin * shear + cos) * scale[:, 1]
    images = np.empty((n, SIDE * SIDE))
    centre = (SIDE - 1) / 2.0
    for start in range(0, n, CHUNK):
        sl = slice(start, start + CHUNK)
        unit = TEMPLATES[labels[sl]] + rng.normal(0.0, WOBBLE_SD, (len(labels[sl]), POINTS, 2))
        moved = np.einsum("mij,mpj->mpi", affine[sl], unit)
        pixels = centre + PX_PER_UNIT * moved + shift[sl, None, :]
        images[sl] = _render(pixels, pen[sl])
    images += rng.normal(0.0, NOISE_SD, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels
