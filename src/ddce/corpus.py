"""Dataset model: labeled/unlabeled utterance collections, intent-disjoint
splitting, outlier injection, synthetic data generation, and JSONL I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DdceError,
    InsufficientOutlierSourceError,
    StratificationError,
    UnsplittableDatasetError,
)
from .util import atomic_write_text, read_jsonl, round_half_up


@dataclass(frozen=True)
class Utterance:
    """One utterance row. Injected outliers carry the flag and no intent."""

    id: str
    text: str
    intent: str | None = None
    is_injected_outlier: bool = False

    def __post_init__(self):
        if self.is_injected_outlier and self.intent is not None:
            raise DdceError(f"row {self.id!r}: injected outlier must not carry an intent")


def _check_unique_ids(rows: list[Utterance]) -> None:
    seen = set()
    for row in rows:
        if row.id in seen:
            raise DdceError(f"duplicate utterance id {row.id!r}")
        seen.add(row.id)


@dataclass(frozen=True)
class LabeledDataset:
    """Utterances with intent labels; injected outlier rows may be appended."""

    rows: list[Utterance] = field(default_factory=list)

    def __post_init__(self):
        _check_unique_ids(self.rows)
        for row in self.rows:
            if row.intent is None and not row.is_injected_outlier:
                raise DdceError(f"labeled row {row.id!r} is missing its intent")

    @property
    def intents(self) -> tuple[str, ...]:
        return tuple(sorted({r.intent for r in self.rows if r.intent is not None}))

    @property
    def O(self) -> int:
        return len(self.intents)

    @property
    def N(self) -> int:
        return len(self.rows)

    def texts(self) -> list[str]:
        return [r.text for r in self.rows]

    def ids(self) -> list[str]:
        return [r.id for r in self.rows]

    def to_unlabeled(self) -> "UnlabeledDataset":
        """Reinterpret as unlabeled data; intents are kept as hidden ground truth."""
        return UnlabeledDataset(rows=list(self.rows))


@dataclass(frozen=True)
class UnlabeledDataset:
    """Utterances to be clustered; intent, when present, is hidden ground truth."""

    rows: list[Utterance] = field(default_factory=list)

    def __post_init__(self):
        _check_unique_ids(self.rows)

    @property
    def M(self) -> int:
        return len(self.rows)

    def texts(self) -> list[str]:
        return [r.text for r in self.rows]

    def ids(self) -> list[str]:
        return [r.id for r in self.rows]


@dataclass(frozen=True)
class IntentDisjointSplit:
    """A split of labeled data into two sides sharing no intent class."""

    rl: LabeledDataset
    hs: LabeledDataset
    alpha: float

    def __post_init__(self):
        overlap = set(self.rl.intents) & set(self.hs.intents)
        if overlap:
            raise DdceError(f"split sides share intents: {sorted(overlap)}")


def split_by_intents(
    d: LabeledDataset, alpha: float, rng: np.random.Generator
) -> IntentDisjointSplit:
    """Split ``d`` by intent classes so the two sides share no intent.

    The holdout side receives all examples of round(alpha * O) uniformly
    sampled intents (half up, clamped so both sides keep at least one
    intent); the rest go to the representation-learning side.
    """
    if d.O < 2:
        raise UnsplittableDatasetError(f"need at least 2 intents to split, got {d.O}")
    if not 0.0 < alpha < 1.0:
        raise DdceError(f"alpha must be in (0, 1), got {alpha}")
    intents = list(d.intents)
    n_hs = min(max(round_half_up(alpha * d.O), 1), d.O - 1)
    picked = rng.choice(len(intents), size=n_hs, replace=False)
    hs_intents = {intents[i] for i in picked}
    hs_rows = [r for r in d.rows if r.intent in hs_intents]
    rl_rows = [r for r in d.rows if r.intent not in hs_intents]
    return IntentDisjointSplit(
        rl=LabeledDataset(rows=rl_rows), hs=LabeledDataset(rows=hs_rows), alpha=alpha
    )


def inner_split(
    d: LabeledDataset, holdout_fraction: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/validation split: each intent contributes
    round(holdout_fraction * n_i) rows to validation, at least 1, leaving
    at least 1 in training. Intents with a single example cannot be split.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DdceError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    by_intent: dict[str, list[int]] = {}
    for i, row in enumerate(d.rows):
        by_intent.setdefault(row.intent, []).append(i)
    val_indices: set[int] = set()
    for intent in sorted(by_intent):
        indices = by_intent[intent]
        if len(indices) < 2:
            raise StratificationError(
                f"intent {intent!r} has {len(indices)} example(s); need at least 2"
            )
        n_val = min(max(round_half_up(holdout_fraction * len(indices)), 1), len(indices) - 1)
        picked = rng.choice(len(indices), size=n_val, replace=False)
        val_indices.update(indices[i] for i in picked)
    train_rows = [r for i, r in enumerate(d.rows) if i not in val_indices]
    val_rows = [r for i, r in enumerate(d.rows) if i in val_indices]
    return LabeledDataset(rows=train_rows), LabeledDataset(rows=val_rows)


def append_outliers(d, source: UnlabeledDataset, ratio: float, pick):
    """Append round(ratio * |d|) rows of ``source``, those at the indices
    ``pick(n)`` returns in that order, flagged as injected outliers with the
    intent cleared. Returns a dataset of the same type as ``d``; original
    rows untouched."""
    if not 0.0 <= ratio < math.inf:
        raise DdceError(f"outlier ratio must be finite and nonnegative, got {ratio}")
    n_inject = round_half_up(ratio * len(d.rows))
    if n_inject == 0:
        return d
    if source.M < n_inject:
        raise InsufficientOutlierSourceError(
            f"outlier source has {source.M} rows, need {n_inject}"
        )
    existing = {r.id for r in d.rows}
    injected = []
    for i in pick(n_inject):
        row = source.rows[i]
        if row.id in existing:
            raise DdceError(f"outlier source id {row.id!r} collides with target dataset")
        injected.append(replace(row, intent=None, is_injected_outlier=True))
    return type(d)(rows=list(d.rows) + injected)


def inject_outliers(d, source: UnlabeledDataset, ratio: float, rng: np.random.Generator):
    """:func:`append_outliers` with the rows sampled without replacement."""
    return append_outliers(
        d, source, ratio, lambda n: sorted(rng.choice(source.M, size=n, replace=False))
    )


def generate_synthetic(
    n_intents: int,
    rows_per_intent: int,
    dim: int,
    blob_sigma: float,
    rng: np.random.Generator,
    label_prefix: str = "intent",
):
    """Generate a labeled dataset paired with oracle embeddings.

    Each intent gets a unit-norm center drawn uniformly on the sphere; row
    embeddings are the center plus isotropic Gaussian noise of scale
    ``blob_sigma``. Texts are deterministic token sequences: a repeated
    intent marker plus filler tokens shared across intents, so the
    built-in encoder can also separate the classes. ``label_prefix``
    namespaces ids and intent names, letting two independent draws be
    combined without collisions.
    """
    from .embed import EmbeddingMatrix

    if n_intents < 1 or rows_per_intent < 1 or dim < 1:
        raise DdceError("n_intents, rows_per_intent and dim must all be >= 1")
    if not (np.isfinite(blob_sigma) and blob_sigma >= 0):
        raise DdceError(f"blob_sigma must be finite and >= 0, got {blob_sigma}")
    centers = rng.normal(size=(n_intents, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = []
    vectors = np.empty((n_intents * rows_per_intent, dim))
    for i in range(n_intents):
        for j in range(rows_per_intent):
            tokens = [
                f"{label_prefix}-{i}",
                f"{label_prefix}-{i}",
                f"common-{(i + j) % 13}",
                f"common-{(2 * j + 1) % 13}",
                f"{label_prefix}-var-{i}-{j % 5}",
            ]
            rows.append(
                Utterance(
                    id=f"{label_prefix}-{i:03d}-{j:04d}",
                    text=" ".join(tokens),
                    intent=f"{label_prefix}-{i}",
                )
            )
            vectors[i * rows_per_intent + j] = centers[i] + blob_sigma * rng.normal(size=dim)
    dataset = LabeledDataset(rows=rows)
    oracle = EmbeddingMatrix(data=vectors, row_ids=[r.id for r in rows])
    return dataset, oracle


def cap_per_intent(d: LabeledDataset, cap: int, rng: np.random.Generator | None = None) -> LabeledDataset:
    """Downsample each intent to at most ``cap`` rows. With an rng the rows
    are sampled uniformly; without, the first ``cap`` in order are kept.
    Rows without an intent (injected outliers) pass through untouched.
    """
    if cap < 1:
        raise DdceError(f"cap must be >= 1, got {cap}")
    by_intent: dict[str, list[int]] = {}
    for i, row in enumerate(d.rows):
        if row.intent is not None:
            by_intent.setdefault(row.intent, []).append(i)
    keep: set[int] = {i for i, r in enumerate(d.rows) if r.intent is None}
    for intent in sorted(by_intent):
        indices = by_intent[intent]
        if len(indices) <= cap:
            keep.update(indices)
        elif rng is None:
            keep.update(indices[:cap])
        else:
            picked = rng.choice(len(indices), size=cap, replace=False)
            keep.update(indices[i] for i in picked)
    return LabeledDataset(rows=[r for i, r in enumerate(d.rows) if i in keep])


def _row_to_obj(row: Utterance) -> dict:
    obj = {"id": row.id, "text": row.text, "intent": row.intent}
    if row.is_injected_outlier:
        obj["outlier"] = True
    return obj


def _obj_to_row(obj: dict, where: str) -> Utterance:
    if not isinstance(obj, dict):
        raise DdceError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in ("id", "text"):
        if key not in obj:
            raise DdceError(f"{where}: missing key {key!r}")
        if not isinstance(obj[key], str):
            raise DdceError(f"{where}: {key} must be a string, got {obj[key]!r}")
    intent = obj.get("intent")
    if intent is not None and not isinstance(intent, str):
        raise DdceError(f"{where}: intent must be a string or null, got {intent!r}")
    outlier = obj.get("outlier", False)
    if not isinstance(outlier, bool):
        raise DdceError(f"{where}: outlier must be true or false, got {outlier!r}")
    return Utterance(id=obj["id"], text=obj["text"], intent=intent, is_injected_outlier=outlier)


def save_jsonl(dataset, path: str) -> None:
    """Write a dataset as one JSON object per line, UTF-8, LF endings."""
    lines = [json.dumps(_row_to_obj(r), ensure_ascii=False) for r in dataset.rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def _read_rows(path: str) -> list[Utterance]:
    return [_obj_to_row(obj, f"{path}:{lineno}") for lineno, obj in read_jsonl(path)]


def load_labeled_jsonl(
    path: str, max_per_intent: int | None = 50, rng: np.random.Generator | None = None
) -> LabeledDataset:
    """Load a labeled dataset, downsampling each intent to ``max_per_intent``
    rows (pass None to disable the cap)."""
    d = LabeledDataset(rows=_read_rows(path))
    if max_per_intent is not None:
        d = cap_per_intent(d, max_per_intent, rng)
    return d


def load_unlabeled_jsonl(path: str) -> UnlabeledDataset:
    return UnlabeledDataset(rows=_read_rows(path))
