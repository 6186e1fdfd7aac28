"""The paper's experiments on top of the pipeline: the K-means centroid
baseline, the split-ratio, outlier-ratio and labeled-size sweeps, and the
Wilcoxon signed-rank test the size sweep reports."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import metrics, optics
from .corpus import LabeledDataset, UnlabeledDataset, append_outliers, inner_split
from .embed import EmbeddingMatrix, encode, train_encoder
from .errors import DdceError
from .pipeline import INNER_HOLDOUT, PipelineConfig, run_ddce
from .util import csv_text, derive_seed, substream

KMEANS_RESTARTS = 10  # seeded k-means runs per baseline; the lowest inertia wins


def _kmeans_once(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            draw = rng.uniform(0.0, total)
            idx = min(int(np.searchsorted(np.cumsum(closest), draw, side="right")), n - 1)
        centers[c] = X[idx]
        closest = np.minimum(closest, ((X - centers[c]) ** 2).sum(axis=1))
    assign = np.full(n, -1)
    for _ in range(100):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = X[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, inertia


def kmeans_labels(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; best of ``KMEANS_RESTARTS``
    seeded runs by inertia (earliest run on ties)."""
    runs = [_kmeans_once(X, k, substream(seed, "kmeans", r)) for r in range(KMEANS_RESTARTS)]
    return min(runs, key=lambda run: run[1])[0]


def baseline_cluster_count(n_labeled: int, n_intents: int, m_test: int) -> int:
    """Cluster count for the centroid baseline: the test size divided by
    the labeled data's average intent size, inflated 4x as a rough
    outlier allowance, clamped to the test sample count."""
    avg_per_intent = n_labeled / n_intents
    return max(1, min(4 * math.ceil(m_test / avg_per_intent), m_test))


def kmeans_baseline(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
) -> optics.Partition:
    """Centroid baseline: k-means at the inferred cluster count; singleton
    clusters become outliers."""
    if d_l.N == 0 or d_l.O == 0:
        raise DdceError("kmeans baseline needs a non-empty labeled dataset")
    if d_ul.M == 0:
        return optics.Partition(labels=np.empty(0, dtype=int), ids=[])
    k_c = baseline_cluster_count(d_l.N, d_l.O, d_ul.M)
    if embeddings is not None:
        e_ul = embeddings.rows_for_ids(d_ul.ids())
    else:
        train, val = inner_split(d_l, INNER_HOLDOUT, substream(cfg.master_seed, "baseline-inner"))
        train_cfg = replace(cfg.train_cfg, seed=derive_seed(cfg.master_seed, "baseline-train"))
        encoder, _ = train_encoder(train, val, train_cfg)
        e_ul = encode(encoder, d_ul.texts(), ids=d_ul.ids())
    assign = kmeans_labels(e_ul.data, k_c, derive_seed(cfg.master_seed, "baseline-kmeans"))
    part = optics.Partition(labels=np.asarray(assign, dtype=int), ids=d_ul.ids())
    return optics.filter_small_clusters(part, 2)


def _run_scores(
    d_l: LabeledDataset, d_ul: UnlabeledDataset, source: UnlabeledDataset, cfg: PipelineConfig
) -> tuple[float, float]:
    """One sweep run: the consensus test score and the mean base-model test
    score. The unlabeled set must carry ground truth; that is checked
    before the pipeline runs."""
    if not metrics.has_ground_truth(d_ul):
        raise DdceError("sweeps need ground truth on the unlabeled set")
    report = run_ddce(d_l, d_ul, source, cfg)
    base_mean = float(np.mean([s.score for s in report.base_test_scores]))
    return report.consensus_test_scores.score, base_mean


def sweep_alpha(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    alphas: list[float],
    reps: int,
) -> tuple[list[tuple], str]:
    """Single-base-model score as a function of the split ratio: ``reps``
    reseeded runs per alpha, reporting mean and variance. The unlabeled
    set must carry ground truth."""
    if reps < 1:
        raise DdceError(f"reps must be >= 1, got {reps}")
    rows = []
    for alpha in alphas:
        scores = []
        for rep in range(reps):
            cfg_rep = replace(
                cfg, k_models=1, alpha=alpha,
                master_seed=derive_seed(cfg.master_seed, "alpha-sweep", rep),
            )
            scores.append(_run_scores(d_l, d_ul, outlier_source, cfg_rep)[0])
        rows.append((alpha, float(np.mean(scores)), float(np.var(scores))))
    return rows, csv_text(["alpha", "mean_score", "var_score"], rows)


def sweep_outlier_ratio(
    d_l: LabeledDataset,
    d_ul_clean: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    ratios: list[float],
) -> tuple[list[tuple], str]:
    """Outlier-robustness sweep: per ratio, inject that many outliers into
    the test set (and validation sets), run the full ensemble with outlier
    voting, and record its score next to the mean base-model score.

    The injected sets are nested (one seeded shuffle of the source,
    prefix-sliced per ratio) so that differences across ratios reflect the
    added outlier mass, not a fresh draw."""
    perm = substream(cfg.master_seed, "test-inject").permutation(outlier_source.M)
    rows = []
    for ratio in ratios:
        d_test = append_outliers(d_ul_clean, outlier_source, ratio, lambda n: perm[:n])
        cfg_r = replace(cfg, consensus_fn="BOKV", outlier_ratio=ratio)
        rows.append((ratio, *_run_scores(d_l, d_test, outlier_source, cfg_r)))
    return rows, csv_text(["ratio", "bokv_score", "base_mean_score"], rows)


def wilcoxon_signed_rank(diffs: list[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value. Zero differences are
    dropped; ties get midranks. Exact null distribution (via subset-sum
    counting over doubled ranks) for up to 25 pairs, normal approximation
    with tie correction beyond."""
    d = np.array([x for x in diffs if x != 0.0])
    n = len(d)
    if n == 0:
        return 1.0
    order = np.argsort(np.abs(d), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(d)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_plus = float(ranks[d > 0].sum())
    if n <= 25:
        dranks = np.rint(2.0 * ranks).astype(int)
        total = int(dranks.sum())
        counts = np.zeros(total + 1)
        counts[0] = 1.0
        for r in dranks:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[:-r] if r > 0 else counts
            counts = counts + shifted
        w2 = int(round(2.0 * w_plus))
        denom = counts.sum()
        p_low = counts[: w2 + 1].sum() / denom
        p_high = counts[w2:].sum() / denom
        return float(min(1.0, 2.0 * min(p_low, p_high)))
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = sum(t ** 3 - t for t in tie_counts) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w_plus - mean) / math.sqrt(var)
    return float(min(1.0, 2.0 * (1.0 - _norm_cdf(abs(z)))))


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _relative_improvement(bokv_score: float, base_mean: float) -> float:
    if base_mean > 0.0:
        return (bokv_score - base_mean) / base_mean
    return 0.0 if bokv_score == 0.0 else math.inf


def sweep_training_size(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    o_values: list[int],
    reps: int,
) -> tuple[list[tuple], str]:
    """Labeled-size sensitivity: for each intent count O, subsample the
    labeled data to O intents, run the ensemble over ``reps`` seeds, and
    report the relative score improvement of the consensus over its base
    models with an exact Wilcoxon signed-rank p-value."""
    if reps < 1:
        raise DdceError(f"reps must be >= 1, got {reps}")
    all_intents = list(d_l.intents)
    rows = []
    for o in o_values:
        if o < 2 or o > len(all_intents):
            raise DdceError(f"cannot subsample {o} intents from {len(all_intents)}")
        rels = []
        pairs = []
        for rep in range(reps):
            seed_rep = derive_seed(cfg.master_seed, "size-sweep", o, rep)
            picked = substream(seed_rep, "subset").choice(len(all_intents), size=o, replace=False)
            chosen = {all_intents[i] for i in picked}
            d_l_o = LabeledDataset(rows=[r for r in d_l.rows if r.intent in chosen])
            bokv_score, base_mean = _run_scores(
                d_l_o, d_ul, outlier_source, replace(cfg, master_seed=seed_rep)
            )
            rels.append(_relative_improvement(bokv_score, base_mean))
            pairs.append(bokv_score - base_mean)
        p_value = wilcoxon_signed_rank(pairs)
        rows.append((o, float(np.mean(rels)), float(np.median(rels)), p_value))
    header = ["o", "mean_rel_improvement", "median_rel_improvement", "wilcoxon_p"]
    return rows, csv_text(header, rows)
