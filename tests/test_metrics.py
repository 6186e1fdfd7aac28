import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.corpus import LabeledDataset, UnlabeledDataset, Utterance
from ddce.errors import AlignmentError, DdceError, MissingGroundTruthError
from ddce.metrics import (
    Scores,
    ari,
    ari_labels,
    harmonic_score,
    has_ground_truth,
    nmi,
    nmi_labels,
    nonoutlier_recall,
    score,
)
from ddce.optics import Partition

from oracles import ref_ari, ref_nmi

label_lists = st.lists(st.integers(min_value=-1, max_value=4), min_size=2, max_size=12)


def part(labels, ids=None):
    labels = np.asarray(labels, dtype=int)
    if ids is None:
        ids = [f"s{i}" for i in range(len(labels))]
    return Partition(labels=labels, ids=ids)


class TestNmi:
    def test_relabeling_gives_one(self):
        assert nmi(part([0, 0, 1, 1]), part([1, 1, 0, 0])) == 1.0

    def test_degenerate_constant_side(self):
        assert nmi(part([0, 0, 1, 1]), part([0, 0, 0, 0])) == 0.0

    def test_uniform_joint_is_zero(self):
        # 2x2 contingency of all ones carries no mutual information.
        assert nmi(part([0, 0, 1, 1]), part([0, 1, 0, 1])) == 0.0

    def test_self_is_exactly_one(self):
        p = part([0, 1, 1, 2, 0])
        assert nmi(p, p) == 1.0

    def test_outlier_label_is_ordinary(self):
        # Same grouping, one side using the outlier sentinel: still identical.
        assert nmi_labels(np.array([0, 0, -1, -1]), np.array([5, 5, 7, 7])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            nmi_labels(np.array([0, 1]), np.array([0, 1, 2]))

    @given(label_lists, label_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_entropy_oracle(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert nmi_labels(np.array(a), np.array(b)) == pytest.approx(ref_nmi(a, b), abs=1e-10)

    @given(label_lists)
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, a):
        rng = np.random.default_rng(42)
        b = rng.integers(-1, 3, size=len(a))
        assert nmi_labels(np.array(a), b) == pytest.approx(nmi_labels(b, np.array(a)), abs=1e-12)


class TestAri:
    def test_identical(self):
        p = part([0, 0, 1, 2, 2])
        assert ari(p, p) == 1.0

    def test_checkerboard_is_minus_half(self):
        # All six pairs disagree in one direction or the other.
        assert ari_labels(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == pytest.approx(-0.5)

    def test_all_singletons_identical(self):
        assert ari_labels(np.arange(5), np.arange(5)) == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(DdceError):
            ari_labels(np.array([0]), np.array([0]))

    @given(label_lists, label_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_pair_counting_oracle(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert ari_labels(np.array(a), np.array(b)) == pytest.approx(ref_ari(a, b), abs=1e-10)

    @given(label_lists)
    @settings(max_examples=50, deadline=None)
    def test_relabeling_invariance(self, a):
        a = np.array(a)
        shifted = np.where(a == -1, 7, a + 100)
        rng = np.random.default_rng(7)
        b = rng.integers(0, 3, size=len(a))
        assert ari_labels(a, b) == pytest.approx(ari_labels(shifted, b), abs=1e-12)


class TestNonoutlierRecall:
    def test_all_clustered(self):
        assert nonoutlier_recall([False] * 4, part([0, 0, 1, 1])) == 1.0

    def test_one_missed(self):
        assert nonoutlier_recall([False] * 4, part([0, 0, 1, -1])) == 0.75

    def test_vacuous(self):
        assert nonoutlier_recall([True, True], part([-1, 0])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            nonoutlier_recall([False], part([0, 1]))


class TestScore:
    @staticmethod
    def _dataset(intents, outlier_flags):
        rows = []
        for i, (intent, flag) in enumerate(zip(intents, outlier_flags)):
            rows.append(
                Utterance(
                    id=f"s{i}", text="t",
                    intent=None if flag else intent,
                    is_injected_outlier=flag,
                )
            )
        return UnlabeledDataset(rows=rows)

    def test_perfect(self):
        d = self._dataset(["a", "a", "b", "b", None], [False] * 4 + [True])
        s = score(d, part([0, 0, 1, 1, -1]))
        assert s.score == 1.0 and s.score_c == 1.0 and s.score_ari == 1.0

    def test_harmonic_arithmetic(self):
        assert harmonic_score(0.5, 1.0) == pytest.approx(2 / 3)

    def test_negative_ari_clamps_to_zero(self):
        assert harmonic_score(0.8, -0.2) == 0.0

    def test_monotone_in_each_term(self):
        base = harmonic_score(0.5, 0.5)
        assert harmonic_score(0.6, 0.5) >= base
        assert harmonic_score(0.5, 0.6) >= base

    def test_missing_ground_truth(self):
        d = UnlabeledDataset(rows=[Utterance(id="s0", text="t"), Utterance(id="s1", text="t")])
        with pytest.raises(MissingGroundTruthError):
            score(d, part([0, 0]))

    def test_unknown_id(self):
        d = self._dataset(["a", "a"], [False, False])
        with pytest.raises(AlignmentError):
            score(d, part([0, 0], ids=["s0", "nope"]))

    def test_outliers_share_one_truth_class(self):
        # Two injected outliers predicted as one cluster: truth groups them
        # together, so the ARI pairs agree.
        d = self._dataset(["a", "a", None, None], [False, False, True, True])
        s = score(d, part([0, 0, 1, 1]))
        assert s.score_ari == 1.0
        assert s.score_c == 1.0

    def test_roundtrip_json(self):
        s = Scores.from_parts(0.5, 0.25)
        assert '"score_c": 0.5' in s.to_json()


class TestScoresAgainstLabeledGroundTruth:
    def test_labeled_dataset_also_works(self):
        rows = [
            Utterance(id="a", text="x", intent="i1"),
            Utterance(id="b", text="x", intent="i1"),
            Utterance(id="c", text="x", intent="i2"),
        ]
        d = LabeledDataset(rows=rows)
        s = score(d, part([0, 0, 1], ids=["a", "b", "c"]))
        assert s.score == 1.0


class TestScoreAtSearchScale:
    """Seeded battery at the sizes a search scores: up to 200 samples, up to
    25 intents plus injected outliers, up to 40 predicted clusters and -1."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 201))
        intents = rng.integers(0, int(rng.integers(1, 26)), size=n)
        outlier = rng.random(n) < rng.uniform(0.0, 0.3)
        outlier[rng.integers(n)] = True
        rows = [Utterance(id=f"s{i}", text="t", intent=None if outlier[i] else f"i{intents[i]}",
                          is_injected_outlier=bool(outlier[i])) for i in range(n)]
        pred = rng.integers(-1, int(rng.integers(1, 41)), size=n)
        return UnlabeledDataset(rows=rows), part(pred)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracles(self, seed):
        d, p = self._case(seed)
        s = score(d, p)
        truth = ["outlier" if r.is_injected_outlier else r.intent for r in d.rows]
        assert abs(s.score_ari - ref_ari(truth, p.labels.tolist())) <= 1e-12
        true_clusters = [c for r, c in zip(d.rows, p.labels.tolist()) if not r.is_injected_outlier]
        assert s.score_c == sum(c != -1 for c in true_clusters) / len(true_clusters)


class TestHasGroundTruth:
    def test_one_row_is_not_enough(self):
        d = UnlabeledDataset(rows=[Utterance(id="s0", text="t", intent="a")])
        assert not has_ground_truth(d)

    def test_row_without_intent_or_flag(self):
        rows = [
            Utterance(id="s0", text="t", intent="a"),
            Utterance(id="s1", text="t", is_injected_outlier=True),
            Utterance(id="s2", text="t"),
        ]
        assert not has_ground_truth(UnlabeledDataset(rows=rows))
        assert has_ground_truth(UnlabeledDataset(rows=rows[:2]))

    def test_labeled_set(self):
        rows = [Utterance(id="a", text="x", intent="i1"), Utterance(id="b", text="x", intent="i2")]
        assert has_ground_truth(LabeledDataset(rows=rows))
