"""End-to-end orchestration: train K base clustering models on
intent-disjoint splits, cluster the unlabeled set with each, combine via a
consensus function; plus the JSON codec of the config, the trained base
models and the run report."""

from __future__ import annotations

import json
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
