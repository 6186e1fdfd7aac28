"""End-to-end orchestration: train K base clustering models on
intent-disjoint splits, in two stages, cluster the unlabeled set with each,
combine via a consensus function; plus the JSON codec, which reads configs
only and writes configs, the trained base models and the run report."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import consensus as consensus_mod
from . import metrics, optics
from .corpus import LabeledDataset, UnlabeledDataset, inject_outliers, inner_split, split_by_intents
from .embed import EmbeddingMatrix, EncoderModel, TrainConfig, encode, train_encoder
from .errors import DdceError
from .search import SearchSpace, random_search
from .util import derive_seed, substream

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
        if self.s_min < 1:
            raise DdceError(f"s_min must be >= 1, got {self.s_min}")
        if not 0.0 <= self.outlier_ratio < np.inf:
            raise DdceError(f"outlier_ratio must be finite and >= 0, got {self.outlier_ratio}")
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


def fit_encoder(d: LabeledDataset, train_cfg: TrainConfig, split_rng, seed: int):
    """Train an encoder with training seed ``seed`` on ``d`` less a stratified
    ``INNER_HOLDOUT`` validation share drawn with ``split_rng``; returns the
    encoder and its validation accuracy."""
    train, val = inner_split(d, INNER_HOLDOUT, split_rng)
    return train_encoder(train, val, train_cfg, seed)


def split_and_train(d_l: LabeledDataset, cfg: PipelineConfig, with_encoder: bool = True):
    """Stage one of the base models, yielded model by model: the intent split,
    and the encoder fitted on its labeled side with its validation accuracy
    (None, None without ``with_encoder``). No ``outlier_ratio`` is read."""
    for k in range(cfg.k_models):
        try:
            split = split_by_intents(d_l, cfg.alpha, substream(cfg.master_seed, "split", k))
            encoder, enc_acc = None, None
            if with_encoder:
                encoder, enc_acc = fit_encoder(split.rl, cfg.train_cfg,
                                               substream(cfg.master_seed, "inner", k),
                                               derive_seed(cfg.master_seed, "train", k))
        except DdceError as exc:
            raise DdceError(f"base model {k}: {exc}") from exc
        yield split, encoder, enc_acc


def train_base_models(
    d_l: LabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
    stage_one=None,
) -> list[BaseModelArtifact]:
    """Train the K base models. Stage two takes model k's stage one (from
    ``stage_one``, else :func:`split_and_train` run here model by model),
    injects outliers into its held-out side, encodes it and searches. Every
    random choice of model k draws from a stream derived from (master_seed, k)."""
    if stage_one is None:
        stage_one = split_and_train(d_l, cfg, with_encoder=embeddings is None)
    artifacts = []
    for k, (split, encoder, enc_acc) in enumerate(stage_one):
        try:
            hs_val = inject_outliers(
                split.hs, outlier_source, cfg.outlier_ratio,
                substream(cfg.master_seed, "inject", k),
            )
            if encoder is None:
                e_hs = embeddings.rows_for_ids(hs_val.ids())
            else:
                e_hs = encode(encoder, hs_val.texts(), ids=hs_val.ids())
            result = random_search(
                e_hs, hs_val, cfg.search_space, cfg.s_min,
                seed=derive_seed(cfg.master_seed, "search", k), metric=cfg.metric,
            )
        except DdceError as exc:
            raise DdceError(f"base model {k}: {exc}") from exc
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
    partitions carrying the models' validation recalls. Models without an
    encoder all cluster the same precomputed rows, so they share one
    neighbourhood structure at the largest of their max_eps."""
    if not artifacts:
        raise DdceError("infer needs at least one base model artifact")
    precomputed_eps = [a.params.max_eps for a in artifacts if a.encoder is None]
    if precomputed_eps and embeddings is not None:
        e_pre = embeddings.rows_for_ids(d_ul.ids())
        nbrs = optics.pairwise_distances(e_pre.data, cfg.metric, max(precomputed_eps))
    partitions = []
    for k, art in enumerate(artifacts):
        if art.encoder is not None:
            e_ul = encode(art.encoder, d_ul.texts(), ids=d_ul.ids())
            partitions.append(optics.cluster(e_ul, art.params, cfg.s_min, cfg.metric))
        elif embeddings is None:
            raise DdceError(f"base model {k} has no encoder and no embeddings were given")
        else:
            partitions.append(
                optics.cluster_with_distances(nbrs, e_pre.row_ids, art.params, cfg.s_min)
            )
    return consensus_mod.PartitionSet(
        partitions=partitions,
        val_recalls=[a.val_scores.score_c for a in artifacts],
    )


def run_ddce(
    d_l: LabeledDataset,
    d_ul: UnlabeledDataset,
    outlier_source: UnlabeledDataset,
    cfg: PipelineConfig,
    embeddings: EmbeddingMatrix | None = None,
    stage_one=None,
) -> RunReport:
    """The full pipeline: train base models (from ``stage_one`` if given),
    cluster the unlabeled set with each, apply the configured consensus
    function. The emitted partition respects the minimum cluster size.
    When the unlabeled rows carry hidden ground truth, test scores are attached."""
    t0 = time.perf_counter()
    artifacts = train_base_models(d_l, outlier_source, cfg, embeddings, stage_one)
    ts = infer(d_ul, artifacts, cfg, embeddings=embeddings)
    raw, details = consensus_mod.run_consensus(
        cfg.consensus_fn, ts, seed=derive_seed(cfg.master_seed, "consensus")
    )
    part = optics.filter_small_clusters(raw, cfg.s_min)
    base_scores = None
    cons_scores = None
    if metrics.has_ground_truth(d_ul):
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


def to_dict(value):
    """JSON-ready form of a dataclass tree: dataclasses become objects in
    field order, tuples and lists become lists, arrays go through tolist()."""
    if is_dataclass(value):
        return {f.name: to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_dict(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _from_json(cls, obj, where: str, prefix: str = ""):
    """Build dataclass ``cls``, whose fields all have defaults, from a JSON
    object, type-checking every value against the field's annotation.
    Unknown keys are rejected; ``where`` names the object in messages and
    ``prefix`` is prepended to its field names."""
    if not isinstance(obj, dict):
        raise DdceError(f"{where}: expected object, got {_json_type(obj)}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise DdceError(f"unknown {where} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    return cls(**{f.name: _value_from_json(hints[f.name], obj[f.name], prefix + f.name)
                  for f in fields(cls) if f.name in obj})


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}
# bool is an int subclass and is checked apart. A JSON int that a float can
# hold is a valid float and passes through unchanged, so a re-serialized
# config keeps its bytes.
_SCALARS = {int: (int,), float: (int, float), str: (str,)}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _value_from_json(hint, value, path: str):
    if value is None:
        raise DdceError(f"{path} must not be null")
    if is_dataclass(hint):
        return _from_json(hint, value, path, path + ".")
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, list) or len(value) != len(args):
            raise DdceError(
                f"{path}: expected array of {len(args)} values, got {json.dumps(value)}")
        return tuple(_value_from_json(hint_i, v, f"{path}[{i}]")
                     for i, (hint_i, v) in enumerate(zip(args, value)))
    if isinstance(value, bool) or not isinstance(value, _SCALARS[hint]):
        raise DdceError(f"{path}: expected {_JSON_TYPES[hint]}, got {_json_type(value)}")
    if hint is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise DdceError(f"{path}: integer beyond the largest float")
    return value


def config_from_dict(obj) -> PipelineConfig:
    """Build a config from a JSON object; keys mirror the config fields
    exactly, unknown keys are rejected and values are type-checked."""
    return _from_json(PipelineConfig, obj, "config")


def report_to_dict(report: RunReport, cfg: PipelineConfig) -> dict:
    """Deterministic report payload; wall-clock timing is deliberately left
    out so reruns with the same seed serialize byte-identically. Base models
    are reported without their encoder weights."""
    base_models = []
    for art, part in zip(report.artifacts, report.base_partitions.partitions):
        entry = to_dict(replace(art, encoder=None))
        del entry["encoder"]
        base_models.append({**entry, "cluster_count": part.cluster_count()})
    return {
        "config": to_dict(cfg),
        "base_models": base_models,
        "consensus": report.consensus_details,
        "consensus_cluster_count": report.consensus_partition.cluster_count(),
        "base_test_scores": to_dict(report.base_test_scores),
        "consensus_test_scores": to_dict(report.consensus_test_scores),
    }
