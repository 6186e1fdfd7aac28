"""End-to-end orchestration: train K base clustering models on
intent-disjoint splits, cluster the unlabeled set with each, combine via a
consensus function; plus a K-means baseline and sweep harnesses."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import consensus as consensus_mod
from . import metrics, optics
from .corpus import LabeledDataset, UnlabeledDataset, inject_outliers, inner_split, split_by_intents
from .embed import EmbeddingMatrix, EncoderModel, TrainConfig, encode, train_encoder
from .errors import ConfigError, DdceError
from .search import SearchSpace, random_search
from .util import atomic_write_text, derive_seed, round_half_up, substream

INNER_HOLDOUT = 0.2  # validation share carved out of the encoder training side


@dataclass
class PipelineConfig:
    k_models: int = 5
    alpha: float = 0.5
    s_min: int = 2
    search_space: SearchSpace = field(default_factory=SearchSpace)
    consensus_fn: str = "BOKV"
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    metric: str = "cosine"
    outlier_ratio: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        if self.k_models < 1:
            raise DdceError(f"k_models must be >= 1, got {self.k_models}")
        if not 0.0 < self.alpha < 1.0:
            raise DdceError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.consensus_fn not in consensus_mod.CONSENSUS_FUNCTIONS:
            raise DdceError(f"unknown consensus function {self.consensus_fn!r}")
        if self.metric not in optics.METRICS:
            raise DdceError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class BaseModelArtifact:
    """One trained base clustering model: its encoder (None when running on
    precomputed embeddings), searched hyperparameters, and validation
    scores including the non-outlier recall used for consensus gating."""

    split_seed: int
    params: optics.OpticsParams
    val_scores: metrics.Scores
    encoder_val_accuracy: float | None = None
    encoder: EncoderModel | None = None


@dataclass(frozen=True)
class RunReport:
    artifacts: list[BaseModelArtifact]
    base_partitions: consensus_mod.PartitionSet
    consensus_partition: optics.Partition
    consensus_details: dict
    base_test_scores: list[metrics.Scores] | None
    consensus_test_scores: metrics.Scores | None
    elapsed_seconds: float


def train_base_models(
    d_l: LabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
) -> list[BaseModelArtifact]:
    """Train the K base models. Model k draws every random choice from a
    stream derived from (master_seed, k): the intent split, the inner
    split, encoder initialization and batching, outlier injection and the
    hyperparameter search."""
    artifacts = []
    for k in range(cfg.k_models):
        try:
            split = split_by_intents(d_l, cfg.alpha, substream(cfg.master_seed, "split", k))
            hs_val = inject_outliers(
                split.hs, outlier_source, cfg.outlier_ratio,
                substream(cfg.master_seed, "inject", k),
            )
            if embeddings is None:
                train, val = inner_split(
                    split.rl, INNER_HOLDOUT, substream(cfg.master_seed, "inner", k)
                )
                train_cfg_k = replace(
                    cfg.train_cfg, seed=derive_seed(cfg.master_seed, "train", k)
                )
                encoder, enc_acc = train_encoder(train, val, train_cfg_k)
                e_hs = encode(encoder, hs_val.texts(), ids=hs_val.ids())
            else:
                encoder, enc_acc = None, None
                e_hs = embeddings.rows_for_ids(hs_val.ids())
            result = random_search(
                e_hs, hs_val, cfg.search_space, cfg.s_min,
                seed=derive_seed(cfg.master_seed, "search", k), metric=cfg.metric,
            )
        except DdceError as exc:
            raise type(exc)(f"base model {k}: {exc}") from exc
        artifacts.append(
            BaseModelArtifact(
                encoder=encoder,
                params=result.best_params,
                val_scores=result.best_scores,
                split_seed=k,
                encoder_val_accuracy=enc_acc,
            )
        )
    return artifacts


def infer(
    d_ul: UnlabeledDataset,
    artifacts: list[BaseModelArtifact],
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
) -> consensus_mod.PartitionSet:
    """Cluster the unlabeled set once per base model, producing K aligned
    partitions carrying the models' validation recalls."""
    if not artifacts:
        raise DdceError("infer needs at least one base model artifact")
    partitions = []
    for k, art in enumerate(artifacts):
        if art.encoder is not None:
            e_ul = encode(art.encoder, d_ul.texts(), ids=d_ul.ids())
        else:
            if embeddings is None:
                raise DdceError(f"base model {k} has no encoder and no embeddings were given")
            e_ul = embeddings.rows_for_ids(d_ul.ids())
        partitions.append(optics.cluster(e_ul, art.params, cfg.s_min, cfg.metric))
    return consensus_mod.PartitionSet(
        partitions=partitions,
        val_recalls=[a.val_scores.score_c for a in artifacts],
    )


def has_ground_truth(d_ul: UnlabeledDataset) -> bool:
    return d_ul.M >= 2 and all(
        r.intent is not None or r.is_injected_outlier for r in d_ul.rows
    )


def run_ddce(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
) -> RunReport:
    """The full pipeline: train base models, cluster the unlabeled set with
    each, apply the configured consensus function. The emitted partition
    always respects the minimum cluster size. When the unlabeled rows
    carry hidden ground truth, test scores are attached."""
    t0 = time.perf_counter()
    artifacts = train_base_models(d_l, outlier_source, cfg, embeddings=embeddings)
    ts = infer(d_ul, artifacts, cfg, embeddings=embeddings)
    raw, details = consensus_mod.run_consensus(
        cfg.consensus_fn, ts, seed=derive_seed(cfg.master_seed, "consensus")
    )
    part = optics.filter_small_clusters(raw, cfg.s_min)
    base_scores = None
    cons_scores = None
    if has_ground_truth(d_ul):
        base_scores = [metrics.score(d_ul, p) for p in ts.partitions]
        cons_scores = metrics.score(d_ul, part)
    return RunReport(
        artifacts=artifacts,
        base_partitions=ts,
        consensus_partition=part,
        consensus_details={"function": cfg.consensus_fn, **details},
        base_test_scores=base_scores,
        consensus_test_scores=cons_scores,
        elapsed_seconds=time.perf_counter() - t0,
    )


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


def kmeans_labels(X: np.ndarray, k: int, seed: int, restarts: int = 10) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; best of ``restarts``
    seeded runs by inertia (earliest run on ties)."""
    best_assign = None
    best_inertia = math.inf
    for r in range(restarts):
        assign, inertia = _kmeans_once(X, k, substream(seed, "kmeans", r))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign


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


def _rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def sweep_alpha(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    alphas: list[float],
    reps: int,
    embeddings: EmbeddingMatrix | None = None,
) -> tuple[list[tuple], str]:
    """Single-base-model score as a function of the split ratio: ``reps``
    reseeded runs per alpha, reporting mean and variance. The unlabeled
    set must carry ground truth."""
    rows = []
    for alpha in alphas:
        scores = []
        for rep in range(reps):
            cfg_rep = replace(
                cfg, k_models=1, alpha=alpha,
                master_seed=derive_seed(cfg.master_seed, "alpha-sweep", rep),
            )
            report = run_ddce(d_l, d_ul, outlier_source, cfg_rep, embeddings=embeddings)
            if report.consensus_test_scores is None:
                raise DdceError("sweep_alpha needs ground truth on the unlabeled set")
            scores.append(report.consensus_test_scores.score)
        rows.append((alpha, float(np.mean(scores)), float(np.var(scores))))
    return rows, _rows_to_csv(["alpha", "mean_score", "var_score"], rows)


def sweep_outlier_ratio(
    d_l: LabeledDataset,
    d_ul_clean: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    ratios: list[float],
    embeddings: EmbeddingMatrix | None = None,
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
        n_inject = round_half_up(ratio * d_ul_clean.M)
        if n_inject > outlier_source.M:
            raise DdceError(
                f"outlier source has {outlier_source.M} rows, need {n_inject}"
            )
        existing = {r.id for r in d_ul_clean.rows}
        injected = []
        for j in perm[:n_inject]:
            row = outlier_source.rows[j]
            if row.id in existing:
                raise DdceError(f"outlier source id {row.id!r} collides with test set")
            injected.append(replace(row, intent=None, is_injected_outlier=True))
        d_test = UnlabeledDataset(rows=list(d_ul_clean.rows) + injected)
        cfg_r = replace(cfg, consensus_fn="BOKV", outlier_ratio=ratio)
        report = run_ddce(d_l, d_test, outlier_source, cfg_r, embeddings=embeddings)
        if report.consensus_test_scores is None:
            raise DdceError("sweep_outlier_ratio needs ground truth on the unlabeled set")
        base_mean = float(np.mean([s.score for s in report.base_test_scores]))
        rows.append((ratio, report.consensus_test_scores.score, base_mean))
    return rows, _rows_to_csv(["ratio", "bokv_score", "base_mean_score"], rows)


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
    embeddings: EmbeddingMatrix | None = None,
) -> tuple[list[tuple], str]:
    """Labeled-size sensitivity: for each intent count O, subsample the
    labeled data to O intents, run the ensemble over ``reps`` seeds, and
    report the relative score improvement of the consensus over its base
    models with an exact Wilcoxon signed-rank p-value."""
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
            report = run_ddce(
                d_l_o, d_ul, outlier_source, replace(cfg, master_seed=seed_rep),
                embeddings=embeddings,
            )
            if report.consensus_test_scores is None:
                raise DdceError("sweep_training_size needs ground truth on the unlabeled set")
            bokv_score = report.consensus_test_scores.score
            base_mean = float(np.mean([s.score for s in report.base_test_scores]))
            rels.append(_relative_improvement(bokv_score, base_mean))
            pairs.append(bokv_score - base_mean)
        p_value = wilcoxon_signed_rank(pairs)
        rows.append((o, float(np.mean(rels)), float(np.median(rels)), p_value))
    header = ["o", "mean_rel_improvement", "median_rel_improvement", "wilcoxon_p"]
    return rows, _rows_to_csv(header, rows)


def save_csv(csv_text: str, path: str) -> None:
    atomic_write_text(path, csv_text)


def _to_json(value):
    """JSON-ready form of a dataclass tree: dataclasses become objects in
    field order, tuples and lists become lists, arrays go through tolist()."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _from_json(cls, obj, where: str, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object, type-checking every value
    against the field's annotation. Unknown keys and missing fields without
    a default are rejected; ``where`` names the object in messages and
    ``prefix`` is prepended to its field names."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected object, got {_json_type(obj)}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in obj:
            kwargs[f.name] = _value_from_json(hints[f.name], obj[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} is missing {f.name!r}")
    return cls(**kwargs)


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}
# bool is an int subclass and is checked apart. A JSON int is a valid float
# and passes through unchanged, so a re-serialized config keeps its bytes.
_SCALARS = {int: (int,), float: (int, float), str: (str,)}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _value_from_json(hint, value, path: str):
    args = get_args(hint)
    if isinstance(hint, UnionType) and type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    elif value is None:
        raise ConfigError(f"{path} must not be null")
    if is_dataclass(hint):
        return _from_json(hint, value, path, path + ".")
    if get_origin(hint) is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, list) or (n is not None and len(value) != n):
            expected = "array" if n is None else f"array of {n} values"
            raise ConfigError(f"{path}: expected {expected}, got {json.dumps(value)}")
        return tuple(_value_from_json(args[0 if n is None else i], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if hint is np.ndarray:
        try:
            return np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: expected numeric array: {exc}") from exc
    if isinstance(value, bool) or not isinstance(value, _SCALARS[hint]):
        raise ConfigError(f"{path}: expected {_JSON_TYPES[hint]}, got {_json_type(value)}")
    return value


def config_to_dict(cfg: PipelineConfig) -> dict:
    return _to_json(cfg)


def config_from_dict(obj) -> PipelineConfig:
    """Build a config from a JSON object; keys mirror the config fields
    exactly, unknown keys are rejected and values are type-checked."""
    return _from_json(PipelineConfig, obj, "config")


def artifact_to_dict(art: BaseModelArtifact) -> dict:
    return _to_json(art)


def artifact_from_dict(obj) -> BaseModelArtifact:
    return _from_json(BaseModelArtifact, obj, "artifact")


def report_to_dict(report: RunReport, cfg: PipelineConfig) -> dict:
    """Deterministic report payload; wall-clock timing is deliberately left
    out so reruns with the same seed serialize byte-identically. Base models
    are reported without their encoder weights."""
    base_models = []
    for art, part in zip(report.artifacts, report.base_partitions.partitions):
        entry = _to_json(replace(art, encoder=None))
        del entry["encoder"]
        base_models.append({**entry, "cluster_count": part.cluster_count()})
    return {
        "config": config_to_dict(cfg),
        "base_models": base_models,
        "consensus": report.consensus_details,
        "consensus_cluster_count": report.consensus_partition.cluster_count(),
        "base_test_scores": _to_json(report.base_test_scores),
        "consensus_test_scores": _to_json(report.consensus_test_scores),
    }
