import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ddce.corpus import (  # noqa: E402
    LabeledDataset,
    UnlabeledDataset,
    Utterance,
    generate_synthetic,
    inject_outliers,
)


def make_labeled(counts: dict[str, int], prefix: str = "u") -> LabeledDataset:
    """Labeled dataset with the given rows-per-intent counts."""
    rows = []
    for intent, count in counts.items():
        for j in range(count):
            rows.append(
                Utterance(
                    id=f"{prefix}-{intent}-{j}",
                    text=f"{intent} {intent} tok-{j % 3}",
                    intent=intent,
                )
            )
    return LabeledDataset(rows=rows)


def two_blob_points(seed: int, per_blob: int = 20) -> np.ndarray:
    """Two tight 1-D blobs at 0 and 10."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.05, size=(per_blob, 1))
    b = rng.normal(10.0, 0.05, size=(per_blob, 1))
    return np.vstack([a, b])


def cosine_blobs_with_noise(seed: int, per_blob: int = 50, n_noise: int = 10):
    """Two Gaussian blobs (sigma 0.05) around unit centers a distance of 1.0
    apart, plus uniform noise; returns (points, labels) with noise = -1."""
    rng = np.random.default_rng(seed)
    theta = np.pi / 3.0  # unit vectors 60 degrees apart are distance 1 apart
    c1 = np.array([1.0, 0.0, 0.0])
    c2 = np.array([np.cos(theta), np.sin(theta), 0.0])
    pts = np.vstack([
        c1 + rng.normal(0.0, 0.05, size=(per_blob, 3)),
        c2 + rng.normal(0.0, 0.05, size=(per_blob, 3)),
        rng.uniform(-1.0, 1.0, size=(n_noise, 3)),
    ])
    labels = np.array([0] * per_blob + [1] * per_blob + [-1] * n_noise)
    return pts, labels


def make_benchmark(
    seed: int = 0,
    o: int = 8,
    novel: int = 3,
    rows: int = 12,
    test_outlier_ratio: float = 0.5,
    blob_sigma: float = 0.25,
    source_intents: int = 80,
):
    """Synthetic end-to-end fixture: a labeled set with ``o`` intents, an
    unlabeled test set of ``novel`` disjoint intents with hidden ground
    truth and injected outliers, and a scattered outlier source."""
    rng = np.random.default_rng(seed)
    d_all, _ = generate_synthetic(o + novel, rows, 8, blob_sigma, rng)
    intents = list(d_all.intents)
    labeled = set(intents[:o])
    d_l = LabeledDataset(rows=[r for r in d_all.rows if r.intent in labeled])
    d_ul = UnlabeledDataset(rows=[r for r in d_all.rows if r.intent not in labeled])
    src, _ = generate_synthetic(
        source_intents, 2, 8, 0.4, np.random.default_rng(seed + 991), label_prefix="noise"
    )
    if test_outlier_ratio > 0:
        d_ul = inject_outliers(d_ul, src, test_outlier_ratio, np.random.default_rng(seed + 17))
    return d_l, d_ul, src


def make_ratio_sweep_benchmark(seed: int, o: int = 16, novel: int = 5, rows: int = 30):
    """Fixture for the outlier-robustness sweep: every third source row is
    a borderline mimic of a novel intent (one intent token next to a
    unique noise token), so each base model absorbs a different subset of
    the injected outliers and majority voting has real mistakes to fix.
    The rest of the source is cleanly excludable noise."""
    d_all, _ = generate_synthetic(o + novel, rows, 8, 0.25, np.random.default_rng(seed))
    intents = list(d_all.intents)
    labeled = set(intents[:o])
    novel_names = [i for i in intents if i not in labeled]
    d_l = LabeledDataset(rows=[r for r in d_all.rows if r.intent in labeled])
    d_ul = UnlabeledDataset(rows=[r for r in d_all.rows if r.intent not in labeled])
    src_rows = []
    for k in range(900):
        if k % 3 == 0:
            name = novel_names[k % len(novel_names)]
            text = f"{name} noise-w{k}"
        else:
            text = f"noise-w{k} noise-x{k} common-{k % 13}"
        src_rows.append(Utterance(id=f"noise-{k}", text=text))
    return d_l, d_ul, UnlabeledDataset(rows=src_rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
