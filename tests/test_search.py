import numpy as np
import pytest

from ddce import metrics, optics
from ddce.corpus import generate_synthetic, inject_outliers
from ddce.embed import EmbeddingMatrix
from ddce.errors import DdceError
from ddce.search import (
    SearchSpace,
    _open_uniform,
    random_search,
    sample_params,
    save_trial_log,
    trials_to_csv,
)
from ddce.util import substream


class TestSampleParams:
    def test_thousand_samples_in_range(self):
        space = SearchSpace()
        for i in range(1000):
            p = sample_params(space, substream(0, "trial", i))
            assert 0.0 < p.max_eps < 0.5
            assert 0.0 < p.xi < 0.5
            assert 2 <= p.min_samples <= 20

    def test_deterministic_per_seed_and_index(self):
        space = SearchSpace()
        a = sample_params(space, substream(7, "trial", 3))
        b = sample_params(space, substream(7, "trial", 3))
        assert a == b

    def test_degenerate_integer_range(self):
        space = SearchSpace(min_samples_range=(5, 5))
        for i in range(50):
            assert sample_params(space, substream(1, "trial", i)).min_samples == 5

    def test_int64_upper_end(self):
        space = SearchSpace(min_samples_range=(2, 2**63 - 1))
        assert 2 <= sample_params(space, substream(0, "trial", 0)).min_samples < 2**63
        with pytest.raises(DdceError, match="min_samples_range"):
            SearchSpace(min_samples_range=(2, 2**63))

    def test_lower_endpoint_redrawn(self):
        # rng.uniform can return lo itself, or round up to hi; the open
        # interval excludes both.
        class Stub:
            def __init__(self):
                self.draws = []

            def uniform(self, lo, hi):
                self.draws.append((lo, hi))
                return {1: lo, 2: hi}.get(len(self.draws), (lo + hi) / 2)

        stub = Stub()
        assert _open_uniform(stub, 0.1, 0.3) == 0.2
        assert stub.draws == [(0.1, 0.3)] * 3

    def test_invalid_space_rejected(self):
        with pytest.raises(DdceError):
            SearchSpace(max_eps_range=(0.5, 0.5))
        with pytest.raises(DdceError):
            SearchSpace(min_samples_range=(1, 20))
        # Ranges with no float strictly inside, where a redraw would never end.
        with pytest.raises(DdceError, match="empty max_eps range .*no float strictly inside"):
            SearchSpace(max_eps_range=(0.0, 5e-324))
        with pytest.raises(DdceError, match="empty xi range .*no float strictly inside"):
            SearchSpace(xi_range=(np.nextafter(1.0, 0.0), 1.0))
        SearchSpace(xi_range=(0.9999999999999998, 1.0))  # holds 1 - 2**-53


def synthetic_validation(seed: int, outlier_ratio: float = 0.2):
    """Labeled blobs with oracle embeddings plus injected outliers drawn
    from a second, scattered synthetic draw."""
    d, oracle = generate_synthetic(4, 30, 8, 0.05, np.random.default_rng(seed))
    src, src_oracle = generate_synthetic(
        40, 2, 8, 0.3, np.random.default_rng(seed + 1000), label_prefix="noise"
    )
    truth = inject_outliers(d, src, outlier_ratio, np.random.default_rng(seed + 2))
    combined = EmbeddingMatrix(
        data=np.vstack([oracle.data, src_oracle.data]),
        row_ids=oracle.row_ids + src_oracle.row_ids,
    )
    return truth, combined.rows_for_ids(truth.ids())


class TestRandomSearch:
    def test_zero_trials_rejected(self):
        truth, e_hs = synthetic_validation(0)
        with pytest.raises(DdceError, match="n_trials must be >= 1, got 0"):
            random_search(e_hs, truth, SearchSpace(n_trials=0), 2, seed=0)

    def test_alignment_checked(self):
        truth, e_hs = synthetic_validation(0)
        shuffled = EmbeddingMatrix(data=e_hs.data, row_ids=list(reversed(e_hs.row_ids)))
        with pytest.raises(DdceError, match="embedding rows are not aligned"):
            random_search(shuffled, truth, SearchSpace(n_trials=2), 2, seed=0)

    def test_alignment_checked_before_any_trial(self, monkeypatch):
        truth, e_hs = synthetic_validation(0)
        shuffled = EmbeddingMatrix(data=e_hs.data, row_ids=list(reversed(e_hs.row_ids)))

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(optics, "cluster_with_distances", no_trial)
        with pytest.raises(DdceError, match="embedding rows are not aligned"):
            random_search(shuffled, truth, SearchSpace(n_trials=2), 2, seed=0)

    def test_trial_scores_equal_metrics_score(self):
        truth, e_hs = synthetic_validation(5)
        result = random_search(e_hs, truth, SearchSpace(n_trials=12), 2, seed=6)
        D = optics.pairwise_distances(e_hs.data, "cosine")
        for trial in result.trials:
            part = optics.cluster_with_distances(D, e_hs.row_ids, trial.params, 2)
            assert trial.scores == metrics.score(truth, part)

    def test_trial_partitions_equal_cluster_at_own_max_eps(self, monkeypatch):
        # The search shares one structure at the range end; each trial must
        # still see only the pairs within its own max_eps.
        truth, e_hs = synthetic_validation(5)
        parts = []
        shared = optics.cluster_with_distances

        def record(*args, **kwargs):
            parts.append(shared(*args, **kwargs))
            return parts[-1]

        monkeypatch.setattr(optics, "cluster_with_distances", record)
        result = random_search(e_hs, truth, SearchSpace(n_trials=12), 2, seed=6)
        monkeypatch.undo()
        assert len(parts) == 12
        for trial, part in zip(result.trials, parts):
            alone = optics.cluster(e_hs, trial.params, 2)
            assert part.ids == alone.ids and np.array_equal(part.labels, alone.labels)
        assert len({p.cluster_count() for p in parts}) > 1

    def test_collapsed_space_all_trials_identical(self):
        truth, e_hs = synthetic_validation(1)
        space = SearchSpace(
            max_eps_range=(0.2999, 0.3001),
            xi_range=(0.049, 0.051),
            min_samples_range=(5, 5),
            n_trials=20,
        )
        result = random_search(e_hs, truth, space, 2, seed=3)
        scores = {t.scores.score for t in result.trials}
        assert len(scores) == 1
        assert result.best is result.trials[0]

    def test_best_is_max_of_log_earliest_tie(self):
        truth, e_hs = synthetic_validation(2)
        result = random_search(e_hs, truth, SearchSpace(n_trials=25), 2, seed=9)
        best = max(t.scores.score for t in result.trials)
        first_best = next(t for t in result.trials if t.scores.score == best)
        assert result.best is first_best
        assert result.best.scores.score == best

    def test_deterministic(self):
        truth, e_hs = synthetic_validation(3)
        r1 = random_search(e_hs, truth, SearchSpace(n_trials=15), 2, seed=4)
        r2 = random_search(e_hs, truth, SearchSpace(n_trials=15), 2, seed=4)
        assert r1.best.params == r2.best.params
        assert [t.scores.score for t in r1.trials] == [t.scores.score for t in r2.trials]

    @pytest.mark.parametrize("seed", range(10))
    def test_synthetic_blobs_reach_good_score(self, seed):
        truth, e_hs = synthetic_validation(100 + seed)
        result = random_search(e_hs, truth, SearchSpace(), 2, seed=seed)
        assert result.best.scores.score >= 0.7

    def test_trial_log_csv_shape(self):
        truth, e_hs = synthetic_validation(4)
        result = random_search(e_hs, truth, SearchSpace(n_trials=5), 2, seed=0)
        lines = trials_to_csv(result).strip().splitlines()
        assert lines[0] == "trial_idx,max_eps,xi,min_samples,score_c,score_ari,score"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]

    def test_save_trial_log_writes_the_csv(self, tmp_path):
        truth, e_hs = synthetic_validation(4)
        result = random_search(e_hs, truth, SearchSpace(n_trials=5), 2, seed=0)
        path = tmp_path / "logs" / "trials.csv"
        save_trial_log(result, str(path))
        assert path.read_bytes() == trials_to_csv(result).encode("utf-8")
        assert path.read_text().startswith(
            "trial_idx,max_eps,xi,min_samples,score_c,score_ari,score\n"
        )
        assert [p.name for p in path.parent.iterdir()] == ["trials.csv"]
