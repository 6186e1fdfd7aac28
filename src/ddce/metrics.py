"""Clustering quality and outlier-awareness metrics.

NMI is normalized by the geometric mean of the two entropies; ARI is the
pair-counting index corrected for chance. Both read one count matrix of
the two labelings and treat the outlier label -1 as an ordinary label.
Ground truth is one label array: each intent is its own class and every
injected outlier is labelled ``OUTLIER_TRUTH_LABEL``. The combined score
is the harmonic mean of non-outlier recall and ARI clamped at zero.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import comb, log, sqrt

import numpy as np

from .errors import AlignmentError, DdceError, MissingGroundTruthError
from .optics import Partition

OUTLIER_TRUTH_LABEL = -2  # ground-truth class shared by all injected outliers


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 count matrix of two equal-length label arrays: one row per
    distinct label of ``a``, one column per distinct label of ``b``."""
    a_vals, a_idx = np.unique(a, return_inverse=True)
    b_vals, b_idx = np.unique(b, return_inverse=True)
    counts = np.zeros((len(a_vals), len(b_vals)), dtype=np.int64)
    np.add.at(counts, (a_idx, b_idx), 1)
    return counts


def _same_grouping(counts: np.ndarray) -> bool:
    """True when both labelings induce the same grouping: every label of
    either side meets exactly one label of the other."""
    return np.count_nonzero(counts) == counts.shape[0] == counts.shape[1]


def _pairs(counts: np.ndarray) -> int:
    """Sum of C(v, 2) over the counts, as an exact Python int."""
    return int((counts * (counts - 1)).sum()) // 2


def _require_aligned(p: Partition, q: Partition) -> None:
    if p.n != q.n:
        raise AlignmentError(f"partition lengths differ: {p.n} vs {q.n}")
    if p.ids != q.ids:
        raise AlignmentError("partition ids are not aligned")


def _entropy(totals: np.ndarray, n: int) -> float:
    probs = totals[totals > 0] / n
    return float(-(probs * np.log(probs)).sum())


def nmi_labels(a: np.ndarray, b: np.ndarray) -> float:
    """NMI of two label arrays; exactly 1.0 when the induced groupings are
    identical, 0.0 when either side is degenerate and they differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) != len(b):
        raise AlignmentError(f"label arrays differ in length: {len(a)} vs {len(b)}")
    counts = _contingency(a, b)
    if _same_grouping(counts):
        return 1.0
    n = len(a)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    ha, hb = _entropy(rows, n), _entropy(cols, n)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    info = 0.0
    i, j = np.nonzero(counts)
    for nij, ni, nj in zip(counts[i, j].tolist(), rows[i].tolist(), cols[j].tolist()):
        info += (nij / n) * log(nij * n / (ni * nj))
    return min(1.0, max(0.0, info / sqrt(ha * hb)))


def nmi(p: Partition, q: Partition) -> float:
    _require_aligned(p, q)
    return nmi_labels(p.labels, q.labels)


def ari_labels(truth: np.ndarray, pred: np.ndarray) -> float:
    """Adjusted Rand index by pair counting; degenerate cases resolve to
    1.0 for identical groupings and 0.0 otherwise."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if len(truth) != len(pred):
        raise AlignmentError(f"label arrays differ in length: {len(truth)} vs {len(pred)}")
    if len(truth) < 2:
        raise DdceError(f"ARI needs at least 2 samples, got {len(truth)}")
    counts = _contingency(truth, pred)
    index = _pairs(counts)
    sum_a = _pairs(counts.sum(axis=1))
    sum_b = _pairs(counts.sum(axis=0))
    expected = sum_a * sum_b / comb(len(truth), 2)
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0 if _same_grouping(counts) else 0.0
    return (index - expected) / (maximum - expected)


def ari(truth: Partition, pred: Partition) -> float:
    _require_aligned(truth, pred)
    return ari_labels(truth.labels, pred.labels)


def nonoutlier_recall(truth_outlier_flags: np.ndarray | list[bool], pred: Partition) -> float:
    """Fraction of true non-outliers assigned to some cluster; vacuously 1.0
    when every sample is a true outlier."""
    if len(truth_outlier_flags) != pred.n:
        raise AlignmentError(
            f"{len(truth_outlier_flags)} flags but {pred.n} predictions"
        )
    flags = np.asarray(truth_outlier_flags, dtype=bool)
    n_true = int((~flags).sum())
    if n_true == 0:
        return 1.0
    caught = int(((~flags) & (np.asarray(pred.labels) != -1)).sum())
    return caught / n_true


@dataclass(frozen=True)
class Scores:
    score_c: float
    score_ari: float
    score: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_parts(score_c: float, score_ari: float) -> "Scores":
        return Scores(score_c=score_c, score_ari=score_ari,
                      score=harmonic_score(score_c, score_ari))


def harmonic_score(score_c: float, score_ari: float) -> float:
    """Harmonic mean of recall and ARI clamped at zero; 0 when both vanish."""
    a = score_c
    b = max(score_ari, 0.0)
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def ground_truth_labels(d_truth, pred_ids: list[str]) -> np.ndarray:
    """Ground-truth label array aligned to ``pred_ids``: each intent is its
    own class, every injected outlier is ``OUTLIER_TRUTH_LABEL``."""
    by_id = {r.id: r for r in d_truth.rows}
    labels = np.empty(len(pred_ids), dtype=int)
    intent_ids: dict[str, int] = {}
    for i, rid in enumerate(pred_ids):
        row = by_id.get(rid)
        if row is None:
            raise AlignmentError(f"predicted id {rid!r} not present in ground truth")
        if row.is_injected_outlier:
            labels[i] = OUTLIER_TRUTH_LABEL
        elif row.intent is not None:
            labels[i] = intent_ids.setdefault(row.intent, len(intent_ids))
        else:
            raise MissingGroundTruthError(
                f"row {rid!r} has neither an intent nor an outlier flag"
            )
    return labels


def has_ground_truth(d) -> bool:
    """True when :func:`score` can score a partition of ``d``'s rows: at
    least the two samples ARI needs, each with an intent or an outlier flag."""
    return len(d.rows) >= 2 and all(r.intent is not None or r.is_injected_outlier for r in d.rows)


def score(d_truth, pred: Partition) -> Scores:
    """Score a predicted partition against a dataset carrying ground truth;
    the partition must hold exactly one row per truth row."""
    truth_labels = ground_truth_labels(d_truth, pred.ids)
    # Every partition id is a truth id, so distinct ids as many as truth
    # rows make it one partition row per truth row.
    distinct = len(set(pred.ids))
    if not distinct == pred.n == len(d_truth.rows):
        raise AlignmentError(
            f"expected one partition row per truth row, got {pred.n} rows with "
            f"{distinct} distinct ids for {len(d_truth.rows)} truth rows"
        )
    return score_against(truth_labels, pred)


def score_against(truth_labels: np.ndarray, pred: Partition) -> Scores:
    """:func:`score` on ground truth already built by
    :func:`ground_truth_labels` for ``pred.ids``, so a caller scoring many
    partitions of the same rows builds it once."""
    score_c = nonoutlier_recall(truth_labels == OUTLIER_TRUTH_LABEL, pred)
    score_ari = ari_labels(truth_labels, np.asarray(pred.labels))
    return Scores.from_parts(score_c, score_ari)
