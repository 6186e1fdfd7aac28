"""Density-based deep clustering ensemble for dialog intent induction.

Trains K base clustering models on intent-disjoint splits of labeled
utterances (encoder fine-tuning plus a random search over density
clustering hyperparameters on a held-out split with injected outliers),
clusters the unlabeled utterances with each, and combines the K partitions
through an outlier-aware consensus function.
"""

__version__ = "0.1.0"

from .consensus import PartitionSet, bok, bokv, chm, cspa, hgpa, mcla, outlier_vote
from .corpus import (
    IntentDisjointSplit,
    LabeledDataset,
    UnlabeledDataset,
    Utterance,
    generate_synthetic,
    inject_outliers,
    inner_split,
    split_by_intents,
)
from .embed import (
    EmbeddingMatrix,
    EncoderModel,
    TrainConfig,
    encode,
    featurize,
    load_precomputed,
    save_embeddings,
    train_encoder,
)
from .errors import DdceError
from .metrics import Scores, ari, nmi, nonoutlier_recall, score
from .optics import (
    OpticsParams,
    Partition,
    ReachabilityOrdering,
    cluster,
    compute_ordering,
    extract_xi_clusters,
    filter_small_clusters,
)
from .experiments import kmeans_baseline, sweep_alpha, sweep_outlier_ratio, sweep_training_size
from .pipeline import BaseModelArtifact, PipelineConfig, RunReport, infer, run_ddce, train_base_models
from .search import SearchResult, SearchSpace, random_search, sample_params

__all__ = [
    "__version__",
    "BaseModelArtifact",
    "DdceError",
    "EmbeddingMatrix",
    "EncoderModel",
    "IntentDisjointSplit",
    "LabeledDataset",
    "OpticsParams",
    "Partition",
    "PartitionSet",
    "PipelineConfig",
    "ReachabilityOrdering",
    "RunReport",
    "Scores",
    "SearchResult",
    "SearchSpace",
    "TrainConfig",
    "UnlabeledDataset",
    "Utterance",
    "ari",
    "bok",
    "bokv",
    "chm",
    "cluster",
    "compute_ordering",
    "cspa",
    "encode",
    "extract_xi_clusters",
    "featurize",
    "filter_small_clusters",
    "generate_synthetic",
    "hgpa",
    "infer",
    "inject_outliers",
    "inner_split",
    "kmeans_baseline",
    "load_precomputed",
    "mcla",
    "nmi",
    "nonoutlier_recall",
    "outlier_vote",
    "random_search",
    "run_ddce",
    "sample_params",
    "save_embeddings",
    "score",
    "split_by_intents",
    "sweep_alpha",
    "sweep_outlier_ratio",
    "sweep_training_size",
    "train_base_models",
    "train_encoder",
]
