"""Dataset model: labeled/unlabeled utterance collections, intent-disjoint
splitting, outlier injection, synthetic data generation, and JSONL I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DdceError
from .util import read_jsonl, round_half_up, write_jsonl


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


@dataclass(frozen=True)
class Dataset:
    """Utterance rows with unique ids; the base of both dataset types."""

    rows: list[Utterance] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            if row.id in seen:
                raise DdceError(f"duplicate utterance id {row.id!r}")
            seen.add(row.id)

    def texts(self) -> list[str]:
        return [r.text for r in self.rows]

    def ids(self) -> list[str]:
        return [r.id for r in self.rows]


@dataclass(frozen=True)
class LabeledDataset(Dataset):
    """Utterances with intent labels; injected outlier rows may be appended."""

    def __post_init__(self):
        super().__post_init__()
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

    def to_unlabeled(self) -> "UnlabeledDataset":
        """Reinterpret as unlabeled data; intents are kept as hidden ground truth."""
        return UnlabeledDataset(rows=list(self.rows))


@dataclass(frozen=True)
class UnlabeledDataset(Dataset):
    """Utterances to be clustered; intent, when present, is hidden ground truth."""

    @property
    def M(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class IntentDisjointSplit:
    """A split of labeled data into two sides sharing no intent class."""

    rl: LabeledDataset
    hs: LabeledDataset

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
        raise DdceError(f"need at least 2 intents to split, got {d.O}")
    if not 0.0 < alpha < 1.0:
        raise DdceError(f"alpha must be in (0, 1), got {alpha}")
    intents = list(d.intents)
    n_hs = min(max(round_half_up(alpha * d.O), 1), d.O - 1)
    picked = rng.choice(len(intents), size=n_hs, replace=False)
    hs_intents = {intents[i] for i in picked}
    hs_rows = [r for r in d.rows if r.intent in hs_intents]
    rl_rows = [r for r in d.rows if r.intent not in hs_intents]
    return IntentDisjointSplit(rl=LabeledDataset(rows=rl_rows), hs=LabeledDataset(rows=hs_rows))


def inner_split(
    d: LabeledDataset, holdout_fraction: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/validation split: each intent contributes
    round(holdout_fraction * n_i) rows to validation, at least 1, leaving
    at least 1 in training. Intents with a single example cannot be split,
    and neither can rows without an intent (injected outliers).
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DdceError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    by_intent: dict[str, list[int]] = {}
    for i, row in enumerate(d.rows):
        if row.intent is None:
            raise DdceError(f"row {row.id!r} has no intent to stratify by")
        by_intent.setdefault(row.intent, []).append(i)
    val_indices: set[int] = set()
    for intent in sorted(by_intent):
        indices = by_intent[intent]
        if len(indices) < 2:
            raise DdceError(f"intent {intent!r} has {len(indices)} example(s); need at least 2")
        n_val = min(max(round_half_up(holdout_fraction * len(indices)), 1), len(indices) - 1)
        picked = rng.choice(len(indices), size=n_val, replace=False)
        val_indices.update(indices[i] for i in picked)
    train_rows = [r for i, r in enumerate(d.rows) if i not in val_indices]
    val_rows = [r for i, r in enumerate(d.rows) if i in val_indices]
    return LabeledDataset(rows=train_rows), LabeledDataset(rows=val_rows)


def append_outliers(d: Dataset, source: UnlabeledDataset, ratio: float, pick) -> Dataset:
    """Append round(ratio * |d|) rows of ``source``, those at the indices
    ``pick(n)`` returns in that order, flagged as injected outliers with the
    intent cleared. Returns a dataset of the same type as ``d``; original
    rows untouched."""
    if not 0.0 <= ratio < math.inf:
        raise DdceError(f"outlier ratio must be finite and nonnegative, got {ratio}")
    # round_half_up(wanted) > source.M exactly when wanted >= source.M + 0.5;
    # compared unrounded, since a huge finite ratio can make wanted inf.
    wanted = ratio * len(d.rows)
    if wanted >= source.M + 0.5:
        raise DdceError(
            f"outlier source has {source.M} rows, need {ratio:g} x {len(d.rows)} = {wanted:g}"
        )
    n_inject = round_half_up(wanted)
    if n_inject == 0:
        return d
    existing = {r.id for r in d.rows}
    injected = []
    for i in pick(n_inject):
        row = source.rows[i]
        if row.id in existing:
            raise DdceError(f"outlier source id {row.id!r} collides with target dataset")
        injected.append(replace(row, intent=None, is_injected_outlier=True))
    return type(d)(rows=list(d.rows) + injected)


def inject_outliers(d: Dataset, source: UnlabeledDataset, ratio: float, rng: np.random.Generator):
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
    from .embed import EMB1_LIMIT, EmbeddingMatrix

    if n_intents < 1 or rows_per_intent < 1 or dim < 1:
        raise DdceError("n_intents, rows_per_intent and dim must all be >= 1")
    if not (np.isfinite(blob_sigma) and blob_sigma >= 0):
        raise DdceError(f"blob_sigma must be finite and >= 0, got {blob_sigma}")
    if n_intents * rows_per_intent >= EMB1_LIMIT or dim >= EMB1_LIMIT:
        raise DdceError(f"{n_intents * rows_per_intent} rows of dim {dim} do not fit EMB1, "
                        f"whose row count and dim are each below 2**32")
    centers = rng.normal(size=(n_intents, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.normal(size=(n_intents * rows_per_intent, dim))
    rows = []
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
    with np.errstate(over="ignore"):
        vectors = np.repeat(centers, rows_per_intent, axis=0) + blob_sigma * noise
    if not np.isfinite(vectors).all():
        raise DdceError(f"blob_sigma {blob_sigma} overflows the embedding vectors")
    dataset = LabeledDataset(rows=rows)
    oracle = EmbeddingMatrix(data=vectors, row_ids=[r.id for r in rows])
    return dataset, oracle


def cap_per_intent(d: LabeledDataset, cap: int, rng: np.random.Generator) -> LabeledDataset:
    """Downsample each intent with more than ``cap`` rows to ``cap`` rows
    sampled uniformly with ``rng``. Rows without an intent (injected
    outliers) pass through untouched."""
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


def save_jsonl(dataset: Dataset, path: str) -> None:
    """Write a dataset as one JSON object per line, UTF-8, LF endings."""
    write_jsonl(path, map(_row_to_obj, dataset.rows))


def _read_rows(path: str, labeled: bool = False) -> list[Utterance]:
    rows = []
    for lineno, obj in read_jsonl(path):
        row = _obj_to_row(obj, f"{path}:{lineno}")
        if labeled and row.intent is None:
            raise DdceError(f"{path}:{lineno}: labeled row {row.id!r} has no intent")
        rows.append(row)
    return rows


def load_labeled_jsonl(path: str) -> LabeledDataset:
    """Load every row of a labeled dataset; each row needs an intent."""
    return LabeledDataset(rows=_read_rows(path, labeled=True))


def load_unlabeled_jsonl(path: str) -> UnlabeledDataset:
    return UnlabeledDataset(rows=_read_rows(path))
