"""Utterance embeddings: hashed TF-IDF features, a one-hidden-layer softmax
encoder trained on labeled intents, and a binary format for ingesting
precomputed vectors from external encoders.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import LabeledDataset
from .errors import DdceError
from .util import atomic_write_bytes, fnv1a64

EMB1_MAGIC = b"EMB1"
EMB1_LIMIT = 2**32  # rows and dim are u32 in the header, so each is below this


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense row-major real matrix with one utterance id per row."""

    data: np.ndarray
    row_ids: list[str]

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DdceError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[0] != len(self.row_ids):
            raise DdceError(
                f"{self.data.shape[0]} rows but {len(self.row_ids)} ids"
            )
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise DdceError("embedding matrix contains non-finite values")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def rows_for_ids(self, ids: list[str]) -> "EmbeddingMatrix":
        """Slice rows by id, in the requested order."""
        index = {rid: i for i, rid in enumerate(self.row_ids)}
        missing = [rid for rid in ids if rid not in index]
        if missing:
            raise DdceError(f"ids missing from embeddings: {missing[:5]}")
        sel = np.array([index[rid] for rid in ids], dtype=int)
        return EmbeddingMatrix(data=self.data[sel], row_ids=list(ids))


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a 2-D array; all-zero rows stay zeros.

    Each row is first scaled by 2^-e, e the binary exponent of its largest
    |entry|. That is exact short of underflow and puts the largest square
    in [1/4, 1), so the norm neither overflows nor underflows at any scale,
    and a row times a power of two gives the same bytes as the row."""
    e = np.frexp(np.abs(x).max(axis=1, keepdims=True, initial=0.0))[1]
    # The squares, then the result, reuse one buffer: with ``x`` at most two
    # arrays of its size are alive, as in np.linalg.norm's x * x.
    out = np.ldexp(x, -e)
    out *= out
    norms = np.sqrt(out.sum(axis=1, keepdims=True))
    np.ldexp(x, -e, out=out)
    out /= np.where(norms == 0.0, 1.0, norms)
    return out


def featurize(texts: list[str], feature_dim: int) -> np.ndarray:
    """Hashed bag-of-tokens with TF-IDF weighting, one L2-normalized row
    per text.

    Tokens are whitespace-split. IDF is fitted on the input collection,
    smoothed as ln((1 + n) / (1 + df)) + 1. Buckets are the 64-bit FNV-1a
    hash of the token modulo ``feature_dim``; collisions simply add.
    Empty texts produce zero rows.
    """
    if feature_dim < 16:
        raise DdceError(f"feature_dim must be >= 16, got {feature_dim}")
    n = len(texts)
    docs = [t.split() for t in texts]
    df: dict[str, int] = {}
    for tokens in docs:
        for tok in set(tokens):
            df[tok] = df.get(tok, 0) + 1
    idf = {tok: np.log((1.0 + n) / (1.0 + c)) + 1.0 for tok, c in df.items()}
    bucket = {tok: fnv1a64(tok) % feature_dim for tok in df}
    X = np.zeros((n, feature_dim))
    for i, tokens in enumerate(docs):
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for tok, c in counts.items():
            X[i, bucket[tok]] += c * idf[tok]
    return normalize_rows(X)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 32
    hidden_dim: int = 64
    feature_dim: int = 512

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DdceError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise DdceError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DdceError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim < 1:
            raise DdceError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.feature_dim < 16:
            raise DdceError(f"feature_dim must be >= 16, got {self.feature_dim}")
        if self.feature_dim * self.hidden_dim >= 2**32:
            raise DdceError(f"feature_dim * hidden_dim must be below 2**32, "
                            f"got {self.feature_dim} * {self.hidden_dim}")


@dataclass(frozen=True)
class EncoderModel:
    """tanh hidden layer plus softmax head; the hidden activation is the
    representation used for clustering."""

    feature_dim: int
    hidden_dim: int
    class_labels: tuple[str, ...]
    W: np.ndarray
    b: np.ndarray
    U: np.ndarray
    c: np.ndarray


def loss_and_grads(
    W: np.ndarray,
    b: np.ndarray,
    U: np.ndarray,
    c: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Mean softmax cross-entropy of U·tanh(W·x + b) + c and its gradients."""
    n = X.shape[0]
    Z = np.tanh(X @ W + b)
    logits = Z @ U + c
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    sums = exp.sum(axis=1, keepdims=True)
    # log-sum-exp form: each row sum is >= 1, so no log(0) when a probability underflows
    loss = float((np.log(sums[:, 0]) - logits[np.arange(n), y]).mean())
    dlogits = exp / sums  # the softmax probabilities, less 1 at each true class
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dU = Z.T @ dlogits
    dc = dlogits.sum(axis=0)
    dZ = dlogits @ U.T
    dpre = dZ * (1.0 - Z * Z)
    dW = X.T @ dpre
    db = dpre.sum(axis=0)
    return loss, (dW, db, dU, dc)


def _accuracy(W, b, U, c, X, y) -> float:
    logits = np.tanh(X @ W + b) @ U + c
    return float(np.mean(np.argmax(logits, axis=1) == y))


def train_encoder(
    train: LabeledDataset,
    val: LabeledDataset,
    cfg: TrainConfig,
    seed: int,
    loss_history: list[float] | None = None,
) -> tuple[EncoderModel, float]:
    """Train the encoder by mini-batch gradient descent on cross-entropy,
    evaluating validation accuracy after each epoch and returning the
    snapshot with the highest accuracy (earliest epoch on ties). The initial
    weights and the mini-batch order are drawn from ``seed``.

    When ``loss_history`` is given, the full-training-set loss after each
    epoch is appended to it.
    """
    class_labels = tuple(sorted(train.intents))
    label_index = {lab: i for i, lab in enumerate(class_labels)}
    missing = [lab for lab in val.intents if lab not in label_index]
    if missing:
        raise DdceError(f"validation intents absent from training set: {missing}")
    X_train = featurize(train.texts(), cfg.feature_dim)
    y_train = np.array([label_index[r.intent] for r in train.rows], dtype=int)
    X_val = featurize(val.texts(), cfg.feature_dim)
    y_val = np.array([label_index[r.intent] for r in val.rows], dtype=int)

    rng = np.random.default_rng(seed)
    d, h, n_classes = cfg.feature_dim, cfg.hidden_dim, len(class_labels)
    W = rng.normal(0.0, 0.5, size=(d, h))
    b = np.zeros(h)
    U = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, n_classes))
    c = np.zeros(n_classes)

    best = (W.copy(), b.copy(), U.copy(), c.copy())
    best_acc = _accuracy(W, b, U, c, X_val, y_val)
    n = X_train.shape[0]
    # A learning rate too large for the data makes the weights overflow;
    # that is a config error, not a run that ends with numpy warnings.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(cfg.epochs):
                perm = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    batch = perm[start : start + cfg.batch_size]
                    _, (dW, db, dU, dc) = loss_and_grads(
                        W, b, U, c, X_train[batch], y_train[batch])
                    W -= cfg.learning_rate * dW
                    b -= cfg.learning_rate * db
                    U -= cfg.learning_rate * dU
                    c -= cfg.learning_rate * dc
                if loss_history is not None:
                    full_loss, _ = loss_and_grads(W, b, U, c, X_train, y_train)
                    loss_history.append(full_loss)
                acc = _accuracy(W, b, U, c, X_val, y_val)
                if acc > best_acc:
                    best_acc = acc
                    best = (W.copy(), b.copy(), U.copy(), c.copy())
    except FloatingPointError as exc:
        raise DdceError(
            f"encoder training diverged ({exc}); lower train_cfg.learning_rate,"
            f" now {cfg.learning_rate}"
        ) from exc
    W, b, U, c = best
    model = EncoderModel(
        W=W, b=b, U=U, c=c,
        feature_dim=cfg.feature_dim, hidden_dim=cfg.hidden_dim, class_labels=class_labels,
    )
    return model, best_acc


def encode(model: EncoderModel, texts: list[str], ids: list[str]) -> EmbeddingMatrix:
    """Hidden-layer representation tanh(W·x + b) per text, L2-normalized,
    with ``ids[i]`` naming the row of ``texts[i]``."""
    hidden = np.tanh(featurize(texts, model.feature_dim) @ model.W + model.b)
    return EmbeddingMatrix(data=normalize_rows(hidden), row_ids=list(ids))


def save_embeddings(m: EmbeddingMatrix, path: str) -> None:
    """Write the EMB1 binary format: magic, u32 rows, u32 dim, per-row
    u16-length-prefixed UTF-8 ids, then the matrix as little-endian f32.
    A value that float32 rounds to ±inf is rejected, and nothing is
    written."""
    # The matrix is finite, so an inf can only come from the cast.
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(m.data, dtype="<f4")
    if np.isinf(payload).any():
        raise DdceError(f"{path}: embedding values overflow float32")
    parts = [EMB1_MAGIC, struct.pack("<II", m.n, m.d)]
    for rid in m.row_ids:
        raw = rid.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise DdceError(f"id too long for EMB1 format: {rid[:32]!r}...")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(payload.tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_precomputed(path: str) -> EmbeddingMatrix:
    """Read an EMB1 file, validating magic, id uniqueness, payload length
    and finiteness."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != EMB1_MAGIC:
        raise DdceError(f"{path}: bad magic {blob[:4]!r}, expected {EMB1_MAGIC!r}")
    if len(blob) < 12:
        raise DdceError(f"{path}: header truncated")
    n, d = struct.unpack_from("<II", blob, 4)
    offset = 12
    ids = []
    seen = set()
    for _ in range(n):
        if offset + 2 > len(blob):
            raise DdceError(f"{path}: id table truncated")
        (id_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + id_len > len(blob):
            raise DdceError(f"{path}: id table truncated")
        try:
            rid = blob[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DdceError(f"{path}: row {len(ids)} id is not UTF-8: {exc}") from exc
        if rid in seen:
            raise DdceError(f"{path}: row {len(ids)} repeats id {rid!r}")
        seen.add(rid)
        ids.append(rid)
        offset += id_len
    need = n * d * 4
    if len(blob) - offset < need:
        raise DdceError(f"{path}: payload has {len(blob) - offset} bytes, need {need}")
    if len(blob) - offset > need:
        raise DdceError(f"{path}: payload has {len(blob) - offset} bytes, header promises {need}")
    data = np.frombuffer(blob, dtype="<f4", count=n * d, offset=offset).reshape(n, d)
    # Checked before the cast, which warns on a signaling NaN.
    if data.size and not np.all(np.isfinite(data)):
        raise DdceError(f"{path}: embedding payload contains non-finite values")
    return EmbeddingMatrix(data=data.astype(np.float64), row_ids=ids)
