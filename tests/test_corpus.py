import json
import re

import numpy as np
import pytest

from ddce.corpus import (
    IntentDisjointSplit,
    LabeledDataset,
    UnlabeledDataset,
    Utterance,
    cap_per_intent,
    generate_synthetic,
    inject_outliers,
    inner_split,
    load_labeled_jsonl,
    load_unlabeled_jsonl,
    save_jsonl,
    split_by_intents,
)
from ddce.errors import DdceError

from conftest import make_labeled


def seeded(seed=0):
    return np.random.default_rng(seed)


class TestDatasetModel:
    def test_duplicate_ids_rejected(self):
        rows = [Utterance(id="x", text="a", intent="i"), Utterance(id="x", text="b", intent="i")]
        with pytest.raises(DdceError):
            LabeledDataset(rows=rows)

    def test_labeled_requires_intent(self):
        with pytest.raises(DdceError):
            LabeledDataset(rows=[Utterance(id="x", text="a")])

    def test_outlier_cannot_carry_intent(self):
        with pytest.raises(DdceError):
            Utterance(id="x", text="a", intent="i", is_injected_outlier=True)

    def test_counts(self):
        d = make_labeled({"a": 3, "b": 2})
        assert d.O == 2 and d.N == 5 and d.intents == ("a", "b")

    def test_labeled_and_unlabeled_with_same_rows_differ(self):
        d = make_labeled({"a": 3, "b": 2})
        u = UnlabeledDataset(rows=list(d.rows))
        assert d.texts() == u.texts() and d.ids() == u.ids()
        assert d != u and u != d
        assert d.to_unlabeled() == u
        assert LabeledDataset(rows=list(d.rows)) == d


class TestSplitByIntents:
    def test_even_split(self):
        d = make_labeled({f"i{k}": 3 for k in range(8)})
        split = split_by_intents(d, 0.5, seeded())
        assert len(split.hs.intents) == 4 and len(split.rl.intents) == 4
        assert not set(split.hs.intents) & set(split.rl.intents)

    def test_minimal_two_intents(self):
        d = make_labeled({"a": 2, "b": 2})
        split = split_by_intents(d, 0.5, seeded())
        assert len(split.hs.intents) == 1 and len(split.rl.intents) == 1

    def test_round_half_up(self):
        d = make_labeled({f"i{k}": 2 for k in range(5)})
        split = split_by_intents(d, 0.5, seeded())
        assert len(split.hs.intents) == 3 and len(split.rl.intents) == 2

    def test_single_intent_rejected(self):
        with pytest.raises(DdceError, match="need at least 2 intents to split, got 1"):
            split_by_intents(make_labeled({"a": 4}), 0.5, seeded())

    def test_alpha_bounds(self):
        d = make_labeled({"a": 2, "b": 2})
        with pytest.raises(DdceError):
            split_by_intents(d, 1.0, seeded())

    def test_deterministic_and_disjoint_across_seeds(self):
        d = make_labeled({f"i{k}": 2 for k in range(7)})
        for seed in range(20):
            s1 = split_by_intents(d, 0.4, seeded(seed))
            s2 = split_by_intents(d, 0.4, seeded(seed))
            assert s1.hs.intents == s2.hs.intents
            assert not set(s1.hs.intents) & set(s1.rl.intents)
            assert len(s1.hs.intents) + len(s1.rl.intents) == d.O

    def test_clamped_to_leave_one_each_side(self):
        d = make_labeled({"a": 2, "b": 2, "c": 2})
        split = split_by_intents(d, 0.95, seeded())
        assert len(split.rl.intents) >= 1

    def test_sides_sharing_an_intent_rejected(self):
        with pytest.raises(DdceError, match=r"split sides share intents: \['b'\]"):
            IntentDisjointSplit(rl=make_labeled({"a": 2, "b": 2}), hs=make_labeled({"b": 2}))


class TestInnerSplit:
    def test_fraction_per_intent(self):
        d = make_labeled({f"i{k}": 10 for k in range(4)})
        train, val = inner_split(d, 0.2, seeded())
        for intent in d.intents:
            assert sum(1 for r in val.rows if r.intent == intent) == 2
            assert sum(1 for r in train.rows if r.intent == intent) == 8

    def test_two_rows_split_one_each(self):
        d = make_labeled({"a": 2, "b": 2})
        train, val = inner_split(d, 0.5, seeded())
        assert train.intents == val.intents == ("a", "b")
        assert train.N == val.N == 2

    def test_determinism(self):
        d = make_labeled({"a": 6, "b": 6})
        t1, v1 = inner_split(d, 0.3, seeded(9))
        t2, v2 = inner_split(d, 0.3, seeded(9))
        assert [r.id for r in v1.rows] == [r.id for r in v2.rows]
        assert [r.id for r in t1.rows] == [r.id for r in t2.rows]

    def test_singleton_intent_rejected(self):
        d = make_labeled({"a": 1, "b": 3})
        with pytest.raises(DdceError, match=r"intent 'a' has 1 example\(s\); need at least 2"):
            inner_split(d, 0.2, seeded())

    def test_row_without_intent_rejected(self):
        d = inject_outliers(make_labeled({"a": 4, "b": 4}), outlier_source(), 0.5, seeded())
        with pytest.raises(DdceError, match="row 'noise-[0-9]+' has no intent"):
            inner_split(d, 0.2, seeded())

    @pytest.mark.parametrize("fraction", [0.0, 1.0, float("nan")])
    def test_fraction_outside_open_unit_interval_rejected(self, fraction):
        with pytest.raises(DdceError, match="holdout_fraction must be in"):
            inner_split(make_labeled({"a": 4, "b": 4}), fraction, seeded())


def outlier_source(n=200, prefix="noise"):
    rows = [Utterance(id=f"{prefix}-{i}", text=f"{prefix} w{i}", intent=None) for i in range(n)]
    return UnlabeledDataset(rows=rows)


class TestInjectOutliers:
    def test_count_rounding(self):
        d = make_labeled({f"i{k}": 10 for k in range(10)})
        out = inject_outliers(d, outlier_source(), 0.547, seeded())
        assert out.N == 100 + 55
        assert sum(1 for r in out.rows if r.is_injected_outlier) == 55

    def test_ratio_zero_is_identity(self):
        d = make_labeled({"a": 3, "b": 3})
        assert inject_outliers(d, outlier_source(), 0.0, seeded()) is d

    def test_ratio_two(self):
        d = make_labeled({"a": 25, "b": 25})
        out = inject_outliers(d, outlier_source(), 2.0, seeded())
        assert sum(1 for r in out.rows if r.is_injected_outlier) == 100

    def test_insufficient_source(self):
        d = make_labeled({"a": 30, "b": 30})
        with pytest.raises(DdceError, match="outlier source has 10 rows, need 1 x 60 = 60"):
            inject_outliers(d, outlier_source(n=10), 1.0, seeded())

    @pytest.mark.parametrize("ratio", [1e308, 1e300, 10.0 / 3])
    def test_ratio_beyond_source_rejected_before_rounding(self, ratio):
        # 1e308 * 60 overflows to inf; 10/3 * 60 is 200, one row more than the source.
        d = make_labeled({"a": 30, "b": 30})
        with pytest.raises(DdceError, match="outlier source has 199 rows"):
            inject_outliers(d, outlier_source(n=199), ratio, seeded())

    def test_half_row_rounds_up_against_source(self):
        # 0.5 x 5 = 2.5 rounds up to 3: enough with a 3-row source, one short with 2.
        d = make_labeled({"a": 5})
        assert inject_outliers(d, outlier_source(n=3), 0.5, seeded()).N == 8
        with pytest.raises(DdceError, match=r"outlier source has 2 rows, need 0.5 x 5 = 2.5"):
            inject_outliers(d, outlier_source(n=2), 0.5, seeded())

    def test_original_rows_untouched_and_flagged(self):
        d = make_labeled({"a": 4, "b": 4})
        out = inject_outliers(d, outlier_source(), 0.5, seeded())
        assert out.rows[: d.N] == d.rows
        for row in out.rows[d.N :]:
            assert row.is_injected_outlier and row.intent is None

    def test_id_collision_detected(self):
        d = make_labeled({"a": 2, "b": 2})
        clash = UnlabeledDataset(
            rows=[Utterance(id=d.rows[0].id, text="x"), Utterance(id="fresh", text="y")]
        )
        with pytest.raises(DdceError, match="collides"):
            inject_outliers(d, clash, 0.5, seeded())

    def test_works_on_unlabeled(self):
        d = make_labeled({"a": 4}).to_unlabeled()
        out = inject_outliers(d, outlier_source(), 0.5, seeded())
        assert isinstance(out, UnlabeledDataset) and out.M == 6

    def test_keeps_labeled_type(self):
        d = make_labeled({"a": 4})
        out = inject_outliers(d, outlier_source(), 0.5, seeded())
        assert type(out) is LabeledDataset and out.N == 6 and out.intents == ("a",)


class TestGenerateSynthetic:
    def test_counts(self):
        d, oracle = generate_synthetic(10, 30, 8, 0.1, seeded())
        assert d.O == 10 and d.N == 300
        assert oracle.n == 300 and oracle.d == 8
        assert oracle.row_ids == [r.id for r in d.rows]

    def test_zero_sigma_collapses_blobs(self):
        d, oracle = generate_synthetic(3, 4, 8, 0.0, seeded())
        for i in range(3):
            block = oracle.data[i * 4 : (i + 1) * 4]
            assert np.allclose(block, block[0])

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf"), 1e308])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(DdceError, match="blob_sigma"):
            generate_synthetic(3, 4, 8, sigma, seeded())

    @pytest.mark.parametrize("sizes", [(0, 4, 8), (3, 0, 8), (3, 4, 0)])
    def test_size_below_one_rejected(self, sizes):
        with pytest.raises(DdceError, match="must all be >= 1"):
            generate_synthetic(*sizes, 0.1, seeded())

    def test_byte_identical_given_seed(self):
        d1, o1 = generate_synthetic(4, 5, 8, 0.2, seeded(3))
        d2, o2 = generate_synthetic(4, 5, 8, 0.2, seeded(3))
        assert d1 == d2
        assert np.array_equal(o1.data, o2.data)

    def test_unit_norm_centers(self):
        _, oracle = generate_synthetic(5, 10, 16, 0.0, seeded(1))
        norms = np.linalg.norm(oracle.data, axis=1)
        assert np.allclose(norms, 1.0)

    def test_prefix_namespacing(self):
        d1, _ = generate_synthetic(2, 2, 8, 0.1, seeded(), label_prefix="alpha")
        d2, _ = generate_synthetic(2, 2, 8, 0.1, seeded(), label_prefix="beta")
        assert not {r.id for r in d1.rows} & {r.id for r in d2.rows}
        assert not set(d1.intents) & set(d2.intents)


class TestCapAndJsonl:
    def test_cap_samples_each_intent_down_to_cap(self):
        d = make_labeled({"a": 10, "b": 3})
        capped = cap_per_intent(d, 5, seeded(2))
        assert sum(1 for r in capped.rows if r.intent == "a") == 5
        assert [r.id for r in capped.rows if r.intent == "b"] == [r.id for r in d.rows[10:]]

    def test_cap_with_rng_is_deterministic(self):
        d = make_labeled({"a": 10})
        c1 = cap_per_intent(d, 4, seeded(5))
        c2 = cap_per_intent(d, 4, seeded(5))
        assert [r.id for r in c1.rows] == [r.id for r in c2.rows]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(DdceError, match=f"cap must be >= 1, got {cap}"):
            cap_per_intent(make_labeled({"a": 3}), cap, seeded())

    def test_jsonl_roundtrip(self, tmp_path):
        d = make_labeled({"a": 3, "b": 2})
        path = str(tmp_path / "d.jsonl")
        save_jsonl(d, path)
        assert load_labeled_jsonl(path) == d
        # Injected outliers carry no intent, so they round-trip as unlabeled rows.
        d = inject_outliers(d.to_unlabeled(), outlier_source(), 0.4, seeded())
        save_jsonl(d, path)
        assert load_unlabeled_jsonl(path) == d

    @pytest.mark.parametrize("extra", [
        {"id": "odd-1", "text": "x", "outlier": True},
        {"id": "odd-1", "text": "x", "intent": None},
    ])
    def test_labeled_row_without_intent_rejected(self, tmp_path, extra):
        path = str(tmp_path / "d.jsonl")
        save_jsonl(make_labeled({"a": 2}), path)
        with open(path, "a") as fh:
            fh.write(json.dumps(extra) + "\n")
        with pytest.raises(DdceError, match=re.escape(f"{path}:3: labeled row 'odd-1'")):
            load_labeled_jsonl(path)

    def test_jsonl_format(self, tmp_path):
        d = make_labeled({"a": 1})
        path = str(tmp_path / "d.jsonl")
        save_jsonl(d, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        assert not raw.decode("utf-8").endswith("\r\n")
        obj = json.loads(raw.decode("utf-8").splitlines()[0])
        assert set(obj) == {"id", "text", "intent"}

    def test_unlabeled_keeps_hidden_intent(self, tmp_path):
        d = make_labeled({"a": 2})
        path = str(tmp_path / "d.jsonl")
        save_jsonl(d, path)
        loaded = load_unlabeled_jsonl(path)
        assert all(r.intent == "a" for r in loaded.rows)

    def test_bad_json_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x", "intent": "i"}\nnot json\n')
        with pytest.raises(DdceError, match=":2"):
            load_unlabeled_jsonl(str(path))
