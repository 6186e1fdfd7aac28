import warnings

import numpy as np
import pytest

from ddce.corpus import generate_synthetic, inner_split
from ddce.embed import (
    EmbeddingMatrix,
    TrainConfig,
    encode,
    featurize,
    load_precomputed,
    loss_and_grads,
    normalize_rows,
    save_embeddings,
    train_encoder,
)
from ddce.errors import DdceError
from ddce.util import fnv1a64

from oracles import finite_difference_grads, ref_featurize


class TestFeaturize:
    def test_identical_texts_identical_rows(self):
        m = featurize(["hello world", "hello world", "bye"], 32)
        assert np.array_equal(m[0], m[1])
        assert not np.array_equal(m[0], m[2])

    def test_empty_text_gives_zero_row(self):
        m = featurize(["", "token"], 32)
        assert np.all(m[0] == 0.0)
        assert np.linalg.norm(m[1]) == pytest.approx(1.0)

    def test_scale_invariance_single_token(self):
        m = featurize(["tok", "tok tok"], 32)
        assert np.allclose(m[0], m[1])

    def test_rows_l2_normalized(self):
        m = featurize(["a b c", "d e", "a a a"], 64)
        norms = np.linalg.norm(m, axis=1)
        assert np.allclose(norms, 1.0)

    def test_min_dim_enforced(self):
        with pytest.raises(DdceError):
            featurize(["x"], 8)

    def test_stable_across_calls(self):
        a = featurize(["alpha beta", "gamma"], 32)
        b = featurize(["alpha beta", "gamma"], 32)
        assert np.array_equal(a, b)


def featurize_case(seed):
    """Texts drawn from a small vocabulary, so that tokens repeat within
    and across texts, with non-ASCII tokens and empty and whitespace-only
    texts; feature_dim 16 makes buckets collide."""
    rng = np.random.default_rng(700 + seed)
    vocab = ["a", "bb", "intent", "común", "naïve", "日本", "☕", "Ωmega"]
    vocab += [f"w{k}" for k in range(24)]
    texts = []
    for _ in range(int(rng.integers(1, 25))):
        words = [vocab[t] for t in rng.integers(0, len(vocab), size=int(rng.integers(0, 12)))]
        texts.append(str(rng.choice([" ", "  ", "\t", " \n "])).join(words))
    if seed % 4 == 0:
        texts.append(" \t ")
    return texts, int(rng.choice([16, 17, 64, 512]))


class TestFeaturizeOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference(self, seed):
        texts, feature_dim = featurize_case(seed)
        got = featurize(texts, feature_dim)
        want = np.array(ref_featurize(texts, feature_dim))
        assert got.shape == want.shape == (len(texts), feature_dim)
        assert np.abs(got - want).max() <= 1e-12
        assert np.array_equal(got == 0.0, want == 0.0)


class TestFnv1a64:
    @pytest.mark.parametrize("text, expected", [
        ("", 0xcbf29ce484222325),
        ("a", 0xaf63dc4c8601ec8c),
        ("foobar", 0x85944171f73967e8),
    ])
    def test_published_vectors(self, text, expected):
        assert fnv1a64(text) == expected

    def test_non_ascii_hashes_utf8_bytes(self):
        text = "intención ☕ 日本"
        h = 14695981039346656037
        for byte in text.encode("utf-8"):
            h = ((h ^ byte) * 1099511628211) % 2**64
        assert len(text.encode("utf-8")) > len(text)
        assert fnv1a64(text) == h


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 6))
        y = np.array([0, 1, 2])
        W = rng.normal(0, 0.4, size=(6, 4))
        b = rng.normal(0, 0.1, size=4)
        U = rng.normal(0, 0.4, size=(4, 3))
        c = rng.normal(0, 0.1, size=3)
        _, analytic = loss_and_grads(W, b, U, c, X, y)

        def loss_fn(params):
            return loss_and_grads(params[0], params[1], params[2], params[3], X, y)[0]

        numeric = finite_difference_grads(loss_fn, [W, b, U, c], step=1e-4)
        worst = 0.0
        for a, f in zip(analytic, numeric):
            rel = np.abs(a - f) / np.maximum(1e-8, np.abs(a) + np.abs(f))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4


class TestTrainEncoder:
    @staticmethod
    def _synthetic_split(seed=0, n_intents=6, rows=12):
        d, _ = generate_synthetic(n_intents, rows, 8, 0.05, np.random.default_rng(seed))
        return inner_split(d, 0.25, np.random.default_rng(seed + 1))

    def test_separable_data_reaches_high_accuracy(self):
        train, val = self._synthetic_split()
        _, acc = train_encoder(train, val, TrainConfig(), 0)
        assert acc >= 0.95

    def test_zero_epochs_returns_init(self):
        train, val = self._synthetic_split()
        cfg = TrainConfig(epochs=0, feature_dim=64, hidden_dim=16)
        model, acc = train_encoder(train, val, cfg, 5)
        X_val = featurize(val.texts(), 64)
        y_val = np.array([sorted(train.intents).index(r.intent) for r in val.rows])
        logits = np.tanh(X_val @ model.W + model.b) @ model.U + model.c
        assert float(np.mean(np.argmax(logits, axis=1) == y_val)) == acc

    def test_deterministic(self):
        train, val = self._synthetic_split()
        cfg = TrainConfig(epochs=3, feature_dim=64, hidden_dim=16)
        m1, a1 = train_encoder(train, val, cfg, 11)
        m2, a2 = train_encoder(train, val, cfg, 11)
        assert a1 == a2
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.U, m2.U)

    def test_val_intent_missing_from_train_rejected(self):
        train, val = self._synthetic_split()
        bigger, _ = generate_synthetic(8, 4, 8, 0.05, np.random.default_rng(2))
        with pytest.raises(DdceError, match="absent"):
            train_encoder(train, bigger, TrainConfig(epochs=1, feature_dim=64, hidden_dim=16), 0)

    def test_full_batch_loss_monotone_at_small_lr(self):
        train, val = self._synthetic_split(seed=4, n_intents=4, rows=8)
        history: list[float] = []
        cfg = TrainConfig(
            learning_rate=0.001, epochs=12, batch_size=len(train.rows),
            feature_dim=64, hidden_dim=16,
        )
        train_encoder(train, val, cfg, 0, loss_history=history)
        assert len(history) == 12
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_large_lr_loss_is_finite_without_warnings(self):
        # At lr 100 true-class probabilities underflow to 0; log(0) must not be taken.
        train, val = self._synthetic_split()
        history: list[float] = []
        cfg = TrainConfig(learning_rate=100.0, epochs=5, feature_dim=64, hidden_dim=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_encoder(train, val, cfg, 0, loss_history=history)
        assert len(history) == 5 and np.all(np.isfinite(history))

    def test_diverging_training_raises_one_error_without_warnings(self):
        # At lr 1e308 the first step overflows the weights.
        train, val = self._synthetic_split()
        cfg = TrainConfig(learning_rate=1e308, epochs=2, feature_dim=64, hidden_dim=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DdceError, match=r"diverged .*train_cfg\.learning_rate, now 1e\+308"):
                train_encoder(train, val, cfg, 0)

    def test_weight_matrix_size_bound(self):
        TrainConfig(feature_dim=2**16, hidden_dim=2**16 - 1)
        with pytest.raises(DdceError, match=r"feature_dim \* hidden_dim must be below 2\*\*32"):
            TrainConfig(feature_dim=2**16, hidden_dim=2**16)


class TestEncode:
    def test_identical_texts_identical_embeddings(self):
        train, val = TestTrainEncoder._synthetic_split()
        model, _ = train_encoder(train, val, TrainConfig(epochs=2, feature_dim=64, hidden_dim=16), 0)
        m = encode(model, ["same text", "same text", "different"], ids=["a", "b", "c"])
        assert np.array_equal(m.data[0], m.data[1])

    def test_output_dim_is_hidden_dim(self):
        train, val = TestTrainEncoder._synthetic_split()
        model, _ = train_encoder(train, val, TrainConfig(epochs=1, feature_dim=64, hidden_dim=16), 0)
        assert encode(model, ["a", "b c", "d"], ids=["a", "b", "c"]).d == 16

    def test_within_intent_cosine_exceeds_cross(self):
        d, _ = generate_synthetic(2, 20, 8, 0.05, np.random.default_rng(1))
        train, val = inner_split(d, 0.25, np.random.default_rng(2))
        model, _ = train_encoder(train, val, TrainConfig(feature_dim=128, hidden_dim=16), 0)
        m = encode(model, d.texts(), ids=d.ids())
        labels = np.array([0 if r.intent.endswith("-0") else 1 for r in d.rows])
        sims = m.data @ m.data.T
        within = np.concatenate([
            sims[np.ix_(labels == 0, labels == 0)].ravel(),
            sims[np.ix_(labels == 1, labels == 1)].ravel(),
        ])
        cross = sims[np.ix_(labels == 0, labels == 1)].ravel()
        assert within.mean() > cross.mean()

    def test_permutation_equivariant(self):
        train, val = TestTrainEncoder._synthetic_split()
        model, _ = train_encoder(train, val, TrainConfig(epochs=1, feature_dim=64, hidden_dim=16), 0)
        texts = ["one two", "three", "four five six"]
        fwd = encode(model, texts, ids=texts).data
        rev = encode(model, texts[::-1], ids=texts[::-1]).data
        assert np.array_equal(fwd, rev[::-1])


class TestEmb1Format:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 8)).astype(np.float32).astype(np.float64)
        m = EmbeddingMatrix(data=data, row_ids=[f"id-{i}" for i in range(5)])
        path = str(tmp_path / "m.emb1")
        save_embeddings(m, path)
        loaded = load_precomputed(path)
        assert loaded.row_ids == m.row_ids
        assert np.array_equal(loaded.data, m.data)

    def test_unicode_ids_roundtrip(self, tmp_path):
        data = np.zeros((2, 16), dtype=np.float64)
        m = EmbeddingMatrix(data=data, row_ids=["héllo-δ", "中文-id"])
        path = str(tmp_path / "m.emb1")
        save_embeddings(m, path)
        assert load_precomputed(path).row_ids == ["héllo-δ", "中文-id"]

    def test_float32_range_edge(self, tmp_path):
        # float32's largest value saves as it is, and so does every float64
        # that rounds to it; from the midpoint to 2**128 on, the cast gives
        # inf and nothing is written.
        top = float(np.finfo(np.float32).max)
        below_midpoint = float.fromhex("0x1.fffffefffffffp+127")
        def one_row(*values):
            return EmbeddingMatrix(data=np.array([values]), row_ids=["a"])

        path = str(tmp_path / "m.emb1")
        save_embeddings(one_row(top, -below_midpoint), path)
        assert load_precomputed(path).data.tolist() == [[top, -top]]
        bad = str(tmp_path / "bad.emb1")
        for value in (float.fromhex("0x1.ffffffp+127"), -1e300):
            with pytest.raises(DdceError, match="overflow float32") as exc:
                save_embeddings(one_row(0.0, value), bad)
            assert bad in str(exc.value)
            assert not (tmp_path / "bad.emb1").exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.emb1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DdceError, match="bad magic b'NOPE'"):
            load_precomputed(str(path))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix(
            data=rng.standard_normal((3, 4)), row_ids=["a", "b", "c"]
        )
        path = str(tmp_path / "m.emb1")
        save_embeddings(m, path)
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.emb1"
        cut.write_bytes(blob[:-5])
        with pytest.raises(DdceError, match="payload has 43 bytes, need 48"):
            load_precomputed(str(cut))

    def test_truncated_id_table(self, tmp_path):
        import struct

        path = tmp_path / "ids.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2, 4) + struct.pack("<H", 300))
        with pytest.raises(DdceError, match="id table truncated"):
            load_precomputed(str(path))

    def test_payload_longer_than_header(self, tmp_path):
        import struct

        header = b"EMB1" + struct.pack("<II", 3, 2) + b"".join(
            struct.pack("<H", 1) + c for c in (b"a", b"b", b"c"))
        path = tmp_path / "long.emb1"
        path.write_bytes(header + struct.pack("<9f", *range(9)))
        with pytest.raises(DdceError, match="header promises") as exc:
            load_precomputed(str(path))
        assert str(exc.value) == f"{path}: payload has 36 bytes, header promises 24"

    def test_nan_payload(self, tmp_path):
        import struct

        header = b"EMB1" + struct.pack("<II", 1, 2) + struct.pack("<H", 1) + b"a"
        payload = struct.pack("<ff", 1.0, float("nan"))
        path = tmp_path / "nan.emb1"
        path.write_bytes(header + payload)
        with pytest.raises(DdceError, match="payload contains non-finite values"):
            load_precomputed(str(path))

    def test_rows_for_ids_subsets_in_order(self):
        m = EmbeddingMatrix(data=np.arange(12.0).reshape(4, 3), row_ids=["a", "b", "c", "d"])
        sub = m.rows_for_ids(["d", "b"])
        assert sub.row_ids == ["d", "b"]
        assert np.array_equal(sub.data, m.data[[3, 1]])
        assert not np.shares_memory(sub.data, m.data)
        with pytest.raises(DdceError, match="ids missing from embeddings"):
            m.rows_for_ids(["a", "zz"])

    @pytest.mark.parametrize("data, row_ids, message", [
        (np.zeros(3), ["a", "b", "c"], "must be 2-D"),
        (np.zeros((2, 3)), ["a"], "2 rows but 1 ids"),
        (np.array([[0.0, np.nan]]), ["a"], "non-finite"),
        (np.array([[np.inf, 0.0]]), ["a"], "non-finite"),
    ])
    def test_invalid_matrix_rejected(self, data, row_ids, message):
        with pytest.raises(DdceError, match=message):
            EmbeddingMatrix(data=data, row_ids=row_ids)

    def test_id_beyond_emb1_length_field(self, tmp_path):
        path = tmp_path / "long.emb1"
        save_embeddings(EmbeddingMatrix(np.zeros((1, 2)), ["é" * 0x7FFF + "a"]), str(path))
        assert load_precomputed(str(path)).row_ids == ["é" * 0x7FFF + "a"]
        with pytest.raises(DdceError, match="id too long for EMB1 format"):
            save_embeddings(EmbeddingMatrix(np.zeros((1, 2)), ["é" * 0x8000]), str(path))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_normalize_rows_ignores_scale(self, scale):
        # The squares of rows beyond 1e±154 underflow or overflow; each row
        # is brought near 1 by a power of two first.
        x = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        assert np.allclose(normalize_rows(x * scale), normalize_rows(x), rtol=1e-15, atol=0)
        power = np.ldexp(1.0, int(np.round(np.log2(scale))))
        assert normalize_rows(x * power).tobytes() == normalize_rows(x).tobytes()

    def test_normalize_rows_keeps_zero_rows(self):
        out = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], [0.6, 0.8])
