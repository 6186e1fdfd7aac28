import json
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.stats

from ddce import optics, pipeline
from ddce.corpus import (
    UnlabeledDataset, Utterance, append_outliers, generate_synthetic, inject_outliers,
)
from ddce.embed import EmbeddingMatrix, TrainConfig
from ddce.errors import DdceError
from ddce.experiments import (
    KMEANS_RESTARTS,
    baseline_cluster_count,
    kmeans_baseline,
    kmeans_labels,
    sweep_alpha,
    sweep_outlier_ratio,
    sweep_training_size,
    wilcoxon_signed_rank,
)
from ddce.metrics import Scores, ari_labels
from ddce.optics import OpticsParams
from ddce.pipeline import (
    BaseModelArtifact,
    PipelineConfig,
    config_from_dict,
    infer,
    report_to_dict,
    run_ddce,
    split_and_train,
    to_dict,
    train_base_models,
)
from ddce.search import SearchSpace
from ddce.util import substream

from conftest import cosine_blobs_with_noise, make_benchmark, make_labeled
from oracles import ref_kmeans, ref_wilcoxon, ref_wilcoxon_dp


def fast_cfg(**overrides) -> PipelineConfig:
    base = dict(
        k_models=2,
        search_space=SearchSpace(n_trials=8),
        train_cfg=TrainConfig(epochs=10),
        outlier_ratio=0.5,
        master_seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestTrainBaseModels:
    def test_k_models_artifacts(self):
        d_l, _, source = make_benchmark()
        arts = train_base_models(d_l, source, fast_cfg(k_models=5))
        assert len(arts) == 5
        assert [a.split_seed for a in arts] == [0, 1, 2, 3, 4]

    def test_single_model_valid(self):
        d_l, _, source = make_benchmark()
        arts = train_base_models(d_l, source, fast_cfg(k_models=1))
        assert len(arts) == 1

    def test_deterministic(self):
        d_l, _, source = make_benchmark()
        a = train_base_models(d_l, source, fast_cfg())
        b = train_base_models(d_l, source, fast_cfg())
        assert [x.params for x in a] == [y.params for y in b]
        assert [x.val_scores for x in a] == [y.val_scores for y in b]

    def test_errors_carry_model_index(self):
        d_l = make_labeled({"only": 4})
        _, _, source = make_benchmark()
        with pytest.raises(DdceError, match="base model 0"):
            train_base_models(d_l, source, fast_cfg())

    def test_precomputed_embeddings_skip_encoder(self):
        seed = 3
        d_all, oracle = generate_synthetic(6, 10, 8, 0.2, np.random.default_rng(seed))
        src, src_oracle = generate_synthetic(
            40, 2, 8, 0.4, np.random.default_rng(seed + 1), label_prefix="noise"
        )
        combined = EmbeddingMatrix(
            data=np.vstack([oracle.data, src_oracle.data]),
            row_ids=oracle.row_ids + src_oracle.row_ids,
        )
        arts = train_base_models(d_all, src.to_unlabeled(), fast_cfg(), embeddings=combined)
        assert all(a.encoder is None for a in arts)
        assert all(a.encoder_val_accuracy is None for a in arts)


class TestStageOne:
    def test_outlier_ratio_does_not_change_stage_one(self):
        d_l, _, _ = make_benchmark()
        low = list(split_and_train(d_l, fast_cfg(outlier_ratio=0.25)))
        high = list(split_and_train(d_l, fast_cfg(outlier_ratio=2.0)))
        assert len(low) == len(high) == 2
        for (split_a, enc_a, acc_a), (split_b, enc_b, acc_b) in zip(low, high):
            assert split_a.rl.ids() == split_b.rl.ids()
            assert split_a.hs.ids() == split_b.hs.ids()
            assert split_a.hs.intents == split_b.hs.intents
            for name in ("W", "b", "U", "c"):
                a, b = getattr(enc_a, name), getattr(enc_b, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert enc_a.class_labels == enc_b.class_labels and acc_a == acc_b

    def test_without_encoder_yields_splits_only(self):
        d_l, _, _ = make_benchmark()
        with_enc = list(split_and_train(d_l, fast_cfg()))
        without = list(split_and_train(d_l, fast_cfg(), with_encoder=False))
        assert [s.hs.ids() for s, _, _ in without] == [s.hs.ids() for s, _, _ in with_enc]
        assert all(enc is None and acc is None for _, enc, acc in without)

    def test_given_stage_one_gives_the_same_models(self):
        d_l, _, source = make_benchmark()
        cfg = fast_cfg()
        fresh = train_base_models(d_l, source, cfg)
        reused = train_base_models(d_l, source, cfg, stage_one=list(split_and_train(d_l, cfg)))
        assert [a.params for a in reused] == [a.params for a in fresh]
        assert [a.val_scores for a in reused] == [a.val_scores for a in fresh]
        assert [a.encoder_val_accuracy for a in reused] == [a.encoder_val_accuracy for a in fresh]

    def test_model_k_finishes_before_model_k_plus_one_trains(self, monkeypatch):
        trained = []
        real_train = pipeline.train_encoder

        def counting_train(*args, **kwargs):
            trained.append(1)
            return real_train(*args, **kwargs)

        def failing_search(*args, **kwargs):
            raise DdceError("search failed")

        monkeypatch.setattr("ddce.pipeline.train_encoder", counting_train)
        monkeypatch.setattr("ddce.pipeline.random_search", failing_search)
        d_l, _, source = make_benchmark()
        with pytest.raises(DdceError, match="^base model 0: search failed$"):
            train_base_models(d_l, source, fast_cfg(k_models=3))
        assert len(trained) == 1

    def test_stage_one_errors_carry_model_index(self):
        d_l = make_labeled({"only": 4})
        with pytest.raises(DdceError, match="^base model 0: need at least 2 intents"):
            next(split_and_train(d_l, fast_cfg()))


class TestInfer:
    def test_empty_unlabeled(self):
        d_l, _, source = make_benchmark()
        cfg = fast_cfg()
        arts = train_base_models(d_l, source, cfg)
        ts = infer(UnlabeledDataset(rows=[]), arts, cfg)
        assert ts.k == 2 and ts.n == 0

    def test_no_artifacts_rejected(self):
        _, d_ul, _ = make_benchmark()
        with pytest.raises(DdceError, match="at least one base model artifact"):
            infer(d_ul, [], fast_cfg())

    def test_aligned_partitions(self):
        d_l, d_ul, source = make_benchmark()
        cfg = fast_cfg(k_models=3)
        arts = train_base_models(d_l, source, cfg)
        ts = infer(d_ul, arts, cfg)
        assert ts.k == 3
        assert all(p.ids == d_ul.ids() for p in ts.partitions)
        assert ts.val_recalls == [a.val_scores.score_c for a in arts]

    def test_each_partition_has_a_cluster_on_synthetic(self):
        # Needs a properly trained encoder and enough search trials for the
        # chosen radius to transfer to the unseen intents.
        d_l, d_ul, source = make_benchmark(rows=15)
        cfg = fast_cfg(search_space=SearchSpace(n_trials=40), train_cfg=TrainConfig())
        arts = train_base_models(d_l, source, cfg)
        ts = infer(d_ul, arts, cfg)
        for p in ts.partitions:
            assert p.cluster_count() >= 1


    def test_precomputed_embeddings_share_one_neighbourhood(self, monkeypatch):
        pts, _ = cosine_blobs_with_noise(0)
        ids = [f"u{i}" for i in range(len(pts))]
        embeddings = EmbeddingMatrix(data=pts, row_ids=ids)
        d_ul = UnlabeledDataset(rows=[Utterance(id=i, text="t") for i in reversed(ids)])
        scores = Scores(score_c=0.5, score_ari=0.5)
        arts = [BaseModelArtifact(split_seed=k, params=OpticsParams(eps, 0.05, 5), val_scores=scores)
                for k, eps in enumerate((0.2, 0.35, 0.1))]
        cfg = fast_cfg(k_models=3)
        radii = []
        build = optics.pairwise_distances

        def counted(x, metric, radius):
            radii.append(radius)
            return build(x, metric, radius)

        monkeypatch.setattr(optics, "pairwise_distances", counted)
        ts = infer(d_ul, arts, cfg, embeddings=embeddings)
        monkeypatch.undo()
        assert radii == [0.35]
        rows = embeddings.rows_for_ids(d_ul.ids())
        for art, part in zip(arts, ts.partitions):
            alone = optics.cluster(rows, art.params, cfg.s_min, cfg.metric)
            assert part.ids == d_ul.ids() and np.array_equal(part.labels, alone.labels)

    def test_no_encoder_and_no_embeddings_rejected(self):
        scores = Scores(score_c=0.5, score_ari=0.5)
        art = BaseModelArtifact(split_seed=0, params=OpticsParams(0.2, 0.05, 5), val_scores=scores)
        with pytest.raises(DdceError, match="base model 0 has no encoder"):
            infer(UnlabeledDataset(rows=[]), [art], fast_cfg())


class TestRunDdce:
    def test_bok_returns_a_base_partition(self):
        d_l, d_ul, source = make_benchmark()
        report = run_ddce(d_l, d_ul, source, fast_cfg(consensus_fn="BOK"))
        matches = [
            np.array_equal(report.consensus_partition.labels, p.labels)
            for p in report.base_partitions.partitions
        ]
        assert any(matches)

    def test_reports_scores_with_ground_truth(self):
        d_l, d_ul, source = make_benchmark()
        report = run_ddce(d_l, d_ul, source, fast_cfg())
        assert report.consensus_test_scores is not None
        assert len(report.base_test_scores) == 2

    def test_no_ground_truth_no_scores(self):
        d_l, d_ul, source = make_benchmark(test_outlier_ratio=0.0)
        stripped = UnlabeledDataset(
            rows=[Utterance(id=r.id, text=r.text) for r in d_ul.rows]
        )
        report = run_ddce(d_l, stripped, source, fast_cfg())
        assert report.consensus_test_scores is None

    def test_bit_identical_reports_given_seed(self):
        d_l, d_ul, source = make_benchmark()
        cfg = fast_cfg(consensus_fn="BOKV")
        r1 = run_ddce(d_l, d_ul, source, cfg)
        r2 = run_ddce(d_l, d_ul, source, cfg)
        assert json.dumps(report_to_dict(r1, cfg)) == json.dumps(report_to_dict(r2, cfg))
        assert np.array_equal(r1.consensus_partition.labels, r2.consensus_partition.labels)

    def test_labeled_set_with_injected_outliers_rejected(self):
        # The built-in encoder trains on a stratified split, which needs an
        # intent on every row.
        d_l, d_ul, source = make_benchmark()
        d_l = inject_outliers(d_l, source, 0.1, np.random.default_rng(0))
        with pytest.raises(DdceError, match="base model 0: row 'noise-[^']+' has no intent"):
            run_ddce(d_l, d_ul, source, fast_cfg())

    def test_s_min_enforced_on_consensus(self):
        d_l, d_ul, source = make_benchmark(seed=5)
        report = run_ddce(d_l, d_ul, source, fast_cfg(s_min=3, consensus_fn="CHM"))
        labels = report.consensus_partition.labels
        non_outlier = labels[labels != -1]
        if non_outlier.size:
            assert np.bincount(non_outlier).min() >= 3

    def test_every_config_value_is_read(self):
        """One run on the built-in encoder reads each leaf value of the
        caller's config, so no setting is parsed and reported without
        acting. Reads count on the caller's instances only: a
        dataclasses.replace copy carries every value but the one it
        overrides, so reads on a copy would hide a value that was dropped."""
        reads = set()

        def recording(cls, prefix):
            names = {f.name for f in fields(cls)}

            class Recording(cls):
                _record = False  # set on the caller's instances once built

                def __getattribute__(self, name):
                    if name in names and object.__getattribute__(self, "_record"):
                        reads.add(prefix + name)
                    return super().__getattribute__(name)

            return Recording

        space = recording(SearchSpace, "search_space.")(n_trials=4)
        train = recording(TrainConfig, "train_cfg.")(epochs=2)
        cfg = recording(PipelineConfig, "")(k_models=2, search_space=space, train_cfg=train)
        for instance in (space, train, cfg):
            object.__setattr__(instance, "_record", True)
        d_l, d_ul, source = make_benchmark()
        run_ddce(d_l, d_ul, source, cfg)
        leaves = set()
        for f in fields(PipelineConfig):
            nested = {"search_space": SearchSpace, "train_cfg": TrainConfig}.get(f.name)
            leaves |= {f"{f.name}.{g.name}" for g in fields(nested)} if nested else {f.name}
        assert len(leaves) == 16
        assert sorted(leaves - reads) == []


class TestKmeans:
    def test_labels_recover_separated_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([c + rng.normal(0, 0.1, size=(20, 2)) for c in centers])
        truth = np.repeat([0, 1, 2], 20)
        labels = kmeans_labels(X, 3, seed=1)
        assert ari_labels(truth, labels) == 1.0

    @pytest.mark.parametrize("case", range(100))
    def test_matches_ref_kmeans(self, case):
        """Four kinds of rows in turn: Gaussian; drawn with repeats from a
        few distinct rows; all equal (zero seeding weights); small integers
        (exact distance ties). Every fifth case has k = n."""
        rng = np.random.default_rng(case)
        n, d = int(rng.integers(1, 17)), int(rng.integers(1, 10))
        X = [
            lambda: rng.normal(size=(n, d)),
            lambda: rng.normal(size=(max(1, n // 3), d))[rng.integers(0, max(1, n // 3), n)],
            lambda: np.full((n, d), rng.normal()),
            lambda: rng.integers(-2, 3, size=(n, d)).astype(float),
        ][case % 4]()
        k = n if case % 5 == 0 else int(rng.integers(1, n + 1))
        seed = int(rng.integers(2**63))
        assert kmeans_labels(X, k, seed).tolist() == ref_kmeans(X, k, seed, KMEANS_RESTARTS)

    def test_baseline_cluster_count_arithmetic(self):
        # avg 10 per intent, M=100 -> 4 * ceil(100/10) = 40 clusters requested
        assert baseline_cluster_count(40, 4, 100) == 40
        assert baseline_cluster_count(9, 3, 3) == 3  # clamped to M
        d_l = make_labeled({f"i{k}": 10 for k in range(4)})
        rows = [Utterance(id=f"t{i}", text=f"w{i % 17} w{(i * 3) % 17}") for i in range(100)]
        d_ul = UnlabeledDataset(rows=rows)
        part = kmeans_baseline(d_l, d_ul, fast_cfg())
        # the size-2 outlier rule can only shrink the requested count
        assert part.cluster_count() <= 40

    def test_clamped_to_sample_count(self):
        d_l = make_labeled({"a": 2, "b": 2})
        d_ul = UnlabeledDataset(rows=[Utterance(id=f"t{i}", text=f"w{i}") for i in range(3)])
        part = kmeans_baseline(d_l, d_ul, fast_cfg())
        assert part.n == 3

    def test_singleton_clusters_become_outliers(self):
        d_l, d_ul, source = make_benchmark(rows=8)
        part = kmeans_baseline(d_l, d_ul, fast_cfg())
        labels = part.labels[part.labels != -1]
        if labels.size:
            assert np.bincount(labels).min() >= 2

    def test_empty_labeled_rejected(self):
        d_ul = UnlabeledDataset(rows=[])
        with pytest.raises(DdceError):
            kmeans_baseline(make_labeled({}), d_ul, fast_cfg())

    def test_empty_unlabeled_gives_empty_partition(self, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("encoder trained for an empty unlabeled set")

        monkeypatch.setattr("ddce.pipeline.train_encoder", no_train)
        d_l, _, _ = make_benchmark()
        part = kmeans_baseline(d_l, UnlabeledDataset(rows=[]), fast_cfg())
        assert part.n == 0 and part.ids == []


class TestWilcoxon:
    def test_all_zero_diffs(self):
        assert wilcoxon_signed_rank([0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_exact_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        diffs = rng.normal(0.1, 1.0, size=n)
        expected = scipy.stats.wilcoxon(diffs, alternative="two-sided", mode="exact").pvalue
        assert wilcoxon_signed_rank(diffs.tolist()) == pytest.approx(expected, abs=1e-12)

    def test_handles_ties_with_midranks(self):
        p = wilcoxon_signed_rank([0.5, 0.5, -0.5, 1.0, 1.0])
        assert 0.0 < p <= 1.0

    @pytest.mark.parametrize("seed", range(40))
    def test_ties_and_zeros_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        diffs = (0.25 * rng.integers(-4, 5, size=int(rng.integers(1, 13)))).tolist()
        assert wilcoxon_signed_rank(diffs) == pytest.approx(ref_wilcoxon(diffs), abs=1e-12)
        assert ref_wilcoxon_dp(diffs) == ref_wilcoxon(diffs)  # the two oracles agree

    def test_one_sided_shift_significant(self):
        p = wilcoxon_signed_rank([0.3, 0.5, 0.2, 0.4, 0.6, 0.25, 0.35, 0.45])
        assert p < 0.05

    @pytest.mark.parametrize("diffs", [[float(i) for i in range(1, 31)], [1.0] * 30])
    def test_thirty_positive_pairs_exact(self, diffs):
        # Only the all-positive sign vector reaches W+ = max: p = 2 * 2^-30.
        assert wilcoxon_signed_rank(diffs) == 2.0 ** -29

    def test_two_hundred_positive_pairs_exact(self):
        # Halving is exact here: the one all-positive sign vector holds 2^-200.
        assert wilcoxon_signed_rank([float(i) for i in range(1, 201)]) == 2.0 ** -199

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_and_zeros_match_dp_oracle_beyond_25_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(26, 61))
        diffs = (0.25 * rng.integers(-6, 9, size=n)).tolist() + [0.0] * int(rng.integers(0, 4))
        assert 26 <= sum(x != 0.0 for x in diffs) <= 60
        assert wilcoxon_signed_rank(diffs) == pytest.approx(ref_wilcoxon_dp(diffs), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_exact_beyond_25_pairs(self, seed):
        rng = np.random.default_rng(seed)
        diffs = rng.normal(0.2, 1.0, size=int(rng.integers(26, 61)))
        expected = scipy.stats.wilcoxon(diffs, alternative="two-sided", method="exact").pvalue
        assert wilcoxon_signed_rank(diffs.tolist()) == pytest.approx(expected, abs=1e-12)


class TestSweeps:
    def test_alpha_sweep_shape(self):
        d_l, d_ul, source = make_benchmark()
        rows, csv_text = sweep_alpha(d_l, d_ul, source, fast_cfg(), [0.5], reps=2)
        assert len(rows) == 1 and rows[0][0] == 0.5
        lines = csv_text.strip().splitlines()
        assert lines[0] == "alpha,mean_score,var_score"
        assert len(lines) == 2

    def test_alpha_sweep_monotone_alphas(self):
        d_l, d_ul, source = make_benchmark()
        alphas = [0.3, 0.5, 0.7]
        rows, _ = sweep_alpha(d_l, d_ul, source, fast_cfg(), alphas, reps=1)
        assert [r[0] for r in rows] == alphas

    def test_alpha_sweep_midpoint_ranking_reported(self):
        # The balanced split ratio is expected to rank near the top; the
        # ranking is printed for inspection rather than asserted, since a
        # single small synthetic corpus is too noisy to pin it.
        d_l, d_ul, source = make_benchmark(o=8, rows=20)
        cfg = fast_cfg(search_space=SearchSpace(n_trials=20), train_cfg=TrainConfig())
        rows, _ = sweep_alpha(d_l, d_ul, source, cfg, [0.2, 0.35, 0.5, 0.65, 0.8], reps=2)
        ranking = sorted(rows, key=lambda r: r[1], reverse=True)
        print("alpha ranking (mean score):",
              [(round(a, 2), round(m, 3)) for a, m, _ in ranking])
        assert len(rows) == 5

    def test_outlier_sweep_matches_independent_runs(self):
        # The sweep trains stage one once; each row must still be what a
        # full run_ddce of that ratio alone gives.
        d_l, d_ul, source = make_benchmark(test_outlier_ratio=0.0)
        cfg = fast_cfg(k_models=3)
        ratios = [0.25, 0.5, 1.0]
        rows, _ = sweep_outlier_ratio(d_l, d_ul, source, cfg, ratios)
        perm = substream(cfg.master_seed, "test-inject").permutation(source.M)
        for row, ratio in zip(rows, ratios):
            d_test = append_outliers(d_ul, source, ratio, lambda n: perm[:n])
            report = run_ddce(
                d_l, d_test, source, replace(cfg, consensus_fn="BOKV", outlier_ratio=ratio)
            )
            base_mean = float(np.mean([s.score for s in report.base_test_scores]))
            assert row == (ratio, report.consensus_test_scores.score, base_mean)

    def test_outlier_sweep_without_ratios_trains_nothing(self, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("encoder trained for an empty sweep")

        monkeypatch.setattr("ddce.pipeline.train_encoder", no_train)
        d_l, d_ul, source = make_benchmark(test_outlier_ratio=0.0)
        rows, csv_text = sweep_outlier_ratio(d_l, d_ul, source, fast_cfg(), [])
        assert rows == [] and csv_text.splitlines() == ["ratio,bokv_score,base_mean_score"]

    def test_outlier_sweep_shape(self):
        d_l, d_ul, source = make_benchmark(test_outlier_ratio=0.0)
        ratios = [0.0, 0.5]
        rows, csv_text = sweep_outlier_ratio(d_l, d_ul, source, fast_cfg(), ratios)
        assert [r[0] for r in rows] == ratios
        lines = csv_text.strip().splitlines()
        assert lines[0] == "ratio,bokv_score,base_mean_score"
        assert len(lines) == 3

    def test_size_sweep_shape_and_zero_improvement(self):
        d_l, d_ul, source = make_benchmark(o=8)
        rows, csv_text = sweep_training_size(
            d_l, d_ul, source, fast_cfg(k_models=1), [4, 6], reps=2
        )
        assert [r[0] for r in rows] == [4, 6]
        # single base model: consensus equals the base partition, so the
        # relative improvement is exactly zero
        for _, mean_rel, median_rel, p in rows:
            assert mean_rel == 0.0 and median_rel == 0.0 and p == 1.0
        assert csv_text.splitlines()[0] == "o,mean_rel_improvement,median_rel_improvement,wilcoxon_p"

    def test_size_sweep_validates_o(self):
        d_l, d_ul, source = make_benchmark(o=4)
        with pytest.raises(DdceError):
            sweep_training_size(d_l, d_ul, source, fast_cfg(), [99], reps=1)

    @pytest.mark.parametrize("sweep, values", [(sweep_alpha, [0.5]), (sweep_training_size, [2])])
    def test_reps_below_one_rejected(self, sweep, values):
        d_l, d_ul, source = make_benchmark(o=4)
        with pytest.raises(DdceError, match="reps must be >= 1"):
            sweep(d_l, d_ul, source, fast_cfg(), values, 0)

    @pytest.mark.parametrize("call", [
        lambda d_l, d_ul, src: sweep_alpha(d_l, d_ul, src, fast_cfg(), [0.5], 1),
        lambda d_l, d_ul, src: sweep_outlier_ratio(d_l, d_ul, src, fast_cfg(), [0.5]),
        lambda d_l, d_ul, src: sweep_training_size(d_l, d_ul, src, fast_cfg(), [2], 1),
    ], ids=["alpha", "outliers", "size"])
    def test_missing_ground_truth_raises_before_any_run(self, call, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_ddce called on data without ground truth")

        def no_train(*args, **kwargs):
            raise AssertionError("encoder trained on data without ground truth")

        monkeypatch.setattr("ddce.experiments.run_ddce", no_run)
        monkeypatch.setattr("ddce.pipeline.train_encoder", no_train)
        d_l, d_ul, source = make_benchmark(o=4, test_outlier_ratio=0.0)
        hidden = UnlabeledDataset(rows=[Utterance(id=r.id, text=r.text) for r in d_ul.rows])
        with pytest.raises(DdceError, match="ground truth"):
            call(d_l, hidden, source)


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = fast_cfg(alpha=0.4, consensus_fn="CHM", metric="euclidean")
        obj = to_dict(cfg)
        back = config_from_dict(json.loads(json.dumps(obj)))
        assert to_dict(back) == obj

    def test_unknown_key_rejected(self):
        with pytest.raises(DdceError, match="unknown config keys"):
            config_from_dict({"k_modelz": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(DdceError, match="search_space"):
            config_from_dict({"search_space": {"trials": 7}})

    def test_defaults_match_dataclass(self):
        cfg = config_from_dict({})
        assert cfg == PipelineConfig()

    def test_int_for_float_passes_through(self):
        obj = {"alpha": 0.5, "search_space": {"max_eps_range": [0, 1], "n_trials": 3}}
        out = to_dict(config_from_dict(obj))
        assert json.dumps(out["search_space"]["max_eps_range"]) == "[0, 1]"

    @pytest.mark.parametrize("obj, message", [
        ({"k_models": 2.0}, "k_models: expected integer, got number"),
        ({"alpha": True}, "alpha: expected number, got boolean"),
        ({"metric": None}, "metric must not be null"),
        ({"train_cfg": []}, "train_cfg: expected object, got array"),
        ({"search_space": {"xi_range": [0.1, 0.2, 0.3]}}, r"search_space.xi_range: expected array of 2"),
    ])
    def test_bad_values_rejected(self, obj, message):
        with pytest.raises(DdceError, match=message):
            config_from_dict(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"search_space": {"xi_range": [0.5, 1.5]}}, "xi_range"),
        ({"search_space": {"xi_range": [-0.1, 0.5]}}, "xi_range"),
        ({"search_space": {"max_eps_range": [-1.0, 0.5]}}, "max_eps_range"),
        ({"search_space": {"max_eps_range": [0.0, float("inf")]}}, "max_eps_range"),
        ({"s_min": 0}, "s_min"),
        ({"outlier_ratio": -1.0}, "outlier_ratio"),
        ({"outlier_ratio": float("inf")}, "outlier_ratio"),
        ({"outlier_ratio": float("nan")}, "outlier_ratio"),
        ({"search_space": {"n_trials": 0}}, "n_trials"),
        ({"train_cfg": {"feature_dim": 15}}, "feature_dim"),
        ({"search_space": {"min_samples_range": [2, 2**63]}}, "min_samples_range"),
        ({"search_space": {"min_samples_range": [5, 4]}}, "empty min_samples range"),
        ({"search_space": {"xi_range": [0.3, 0.3]}}, "empty xi range"),
        ({"train_cfg": {"learning_rate": 0}}, "learning_rate"),
        ({"train_cfg": {"hidden_dim": 0}}, "hidden_dim"),
        ({"k_models": 0}, "k_models"),
        ({"consensus_fn": "bokv"}, "unknown consensus function 'bokv'"),
        ({"metric": "manhattan"}, "unknown metric 'manhattan'"),
        ({"search_space": {"max_eps_range": [0, 10**400]}}, r"max_eps_range\[1\]: integer beyond"),
        ({"outlier_ratio": 10**400}, "outlier_ratio: integer beyond the largest float"),
        ({"train_cfg": {"learning_rate": -10**400}}, "learning_rate: integer beyond"),
    ])
    def test_out_of_range_values_rejected(self, obj, key):
        with pytest.raises(DdceError, match=key):
            config_from_dict(obj)

    def test_range_bounds_accepted(self):
        obj = {"s_min": 1, "outlier_ratio": 0,
               "search_space": {"xi_range": [0, 1], "max_eps_range": [0, 2]}}
        assert to_dict(config_from_dict(obj))["search_space"]["xi_range"] == [0, 1]


class TestArtifactSerialization:
    def test_writer_keeps_every_field_exactly(self):
        # artifacts.json is an output record: each field appears under its
        # name, and JSON's shortest float repr keeps the weights' values.
        d_l, _, source = make_benchmark()
        art = train_base_models(d_l, source, fast_cfg(k_models=1))[0]
        obj = json.loads(json.dumps(to_dict(art)))
        assert list(obj) == ["split_seed", "params", "val_scores", "encoder_val_accuracy",
                             "encoder"]
        assert OpticsParams(**obj["params"]) == art.params
        assert obj["val_scores"] == {"score_c": art.val_scores.score_c,
                                     "score_ari": art.val_scores.score_ari,
                                     "score": art.val_scores.score}
        assert obj["encoder_val_accuracy"] == art.encoder_val_accuracy
        assert obj["encoder"]["class_labels"] == list(art.encoder.class_labels)
        for name in ("W", "b", "U", "c"):
            assert np.array(obj["encoder"][name]).tobytes() == getattr(art.encoder, name).tobytes()
