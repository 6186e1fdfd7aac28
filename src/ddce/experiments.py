"""The paper's experiments on top of the pipeline: the K-means centroid
baseline, the split-ratio, outlier-ratio and labeled-size sweeps, and the
Wilcoxon signed-rank test the size sweep reports."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import metrics, optics
from .corpus import LabeledDataset, UnlabeledDataset, append_outliers
from .embed import EmbeddingMatrix, encode
from .errors import DdceError
from .pipeline import PipelineConfig, fit_encoder, run_ddce, split_and_train
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
    if d_l.O == 0:
        raise DdceError("kmeans baseline needs a non-empty labeled dataset")
    if len(d_ul.rows) == 0:
        return optics.Partition(labels=np.empty(0, dtype=int), ids=[])
    k_c = baseline_cluster_count(len(d_l.rows), d_l.O, len(d_ul.rows))
    if embeddings is not None:
        e_ul = embeddings.rows_for_ids(d_ul.ids())
    else:
        encoder, _ = fit_encoder(d_l, cfg.train_cfg, substream(cfg.master_seed, "baseline-inner"),
                                 derive_seed(cfg.master_seed, "baseline-train"))
        e_ul = encode(encoder, d_ul.texts(), ids=d_ul.ids())
    assign = kmeans_labels(e_ul.data, k_c, derive_seed(cfg.master_seed, "baseline-kmeans"))
    part = optics.Partition(labels=assign, ids=d_ul.ids())
    return optics.filter_small_clusters(part, 2)


def _require_ground_truth(*datasets: UnlabeledDataset) -> None:
    if not all(metrics.has_ground_truth(d) for d in datasets):
        raise DdceError("sweeps need ground truth on the unlabeled set: at least 2 rows, "
                        "each with an intent or an outlier flag")


def _run_scores(
    d_l: LabeledDataset, d_ul: UnlabeledDataset, source: UnlabeledDataset, cfg: PipelineConfig,
    stage_one=None,
) -> tuple[float, float]:
    """One sweep run, reusing ``stage_one`` (see ``run_ddce``): the consensus
    test score and the mean base-model test score. The unlabeled set must
    carry ground truth; that is checked before the pipeline runs."""
    _require_ground_truth(d_ul)
    report = run_ddce(d_l, d_ul, source, cfg, stage_one=stage_one)
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
    prefix-sliced per ratio), so ratios differ only in added outlier mass.
    Base-model stage one does not read the ratio and runs once for all."""
    perm = substream(cfg.master_seed, "test-inject").permutation(len(outlier_source.rows))
    tests = [append_outliers(d_ul_clean, outlier_source, r, lambda n: perm[:n]) for r in ratios]
    _require_ground_truth(*tests)
    stage_one = list(split_and_train(d_l, cfg)) if tests else []
    rows = []
    for ratio, d_test in zip(ratios, tests):
        cfg_r = replace(cfg, consensus_fn="BOKV", outlier_ratio=ratio)
        rows.append((ratio, *_run_scores(d_l, d_test, outlier_source, cfg_r, stage_one)))
    return rows, csv_text(["ratio", "bokv_score", "base_mean_score"], rows)


def wilcoxon_signed_rank(diffs: list[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value, exact for every number of
    pairs. Zero differences are dropped; ties get midranks. The null
    distribution of the doubled rank sum is built one rank at a time in
    probability space (each rank's sign is a fair coin, so the array is
    halved after each rank), which keeps every entry at most 1; a tail
    below the smallest double reads 0."""
    d = np.array([x for x in diffs if x != 0.0])
    if len(d) == 0:
        return 1.0
    # A tie group's midrank is its last rank minus half its extra members;
    # doubled, every midrank is an integer.
    _, group, tie_counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    dranks = (2 * np.cumsum(tie_counts) - (tie_counts - 1))[group]
    probs = np.zeros(int(dranks.sum()) + 1)
    probs[0] = 1.0
    for r in dranks:  # every doubled rank is at least 2
        probs[r:] = probs[r:] + probs[:-r]
        probs *= 0.5
    w2 = int(dranks[d > 0].sum())
    return float(min(1.0, 2.0 * min(probs[: w2 + 1].sum(), probs[w2:].sum())))


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
