import json

import numpy as np
import pytest
import scipy.stats

from ddce.corpus import UnlabeledDataset, Utterance, generate_synthetic
from ddce.embed import TrainConfig
from ddce.errors import ConfigError, DdceError
from ddce.experiments import (
    baseline_cluster_count,
    kmeans_baseline,
    kmeans_labels,
    sweep_alpha,
    sweep_outlier_ratio,
    sweep_training_size,
    wilcoxon_signed_rank,
)
from ddce.metrics import ari_labels
from ddce.pipeline import (
    PipelineConfig,
    artifact_from_dict,
    artifact_to_dict,
    config_from_dict,
    config_to_dict,
    infer,
    report_to_dict,
    run_ddce,
    train_base_models,
)
from ddce.search import SearchSpace

from conftest import make_benchmark, make_labeled


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
        from ddce.embed import EmbeddingMatrix

        combined = EmbeddingMatrix(
            data=np.vstack([oracle.data, src_oracle.data]),
            row_ids=oracle.row_ids + src_oracle.row_ids,
        )
        arts = train_base_models(d_all, src.to_unlabeled(), fast_cfg(), embeddings=combined)
        assert all(a.encoder is None for a in arts)
        assert all(a.encoder_val_accuracy is None for a in arts)


class TestInfer:
    def test_empty_unlabeled(self):
        d_l, _, source = make_benchmark()
        cfg = fast_cfg()
        arts = train_base_models(d_l, source, cfg)
        ts = infer(UnlabeledDataset(rows=[]), arts, cfg)
        assert ts.k == 2 and ts.n == 0

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

    def test_s_min_enforced_on_consensus(self):
        d_l, d_ul, source = make_benchmark(seed=5)
        report = run_ddce(d_l, d_ul, source, fast_cfg(s_min=3, consensus_fn="CHM"))
        labels = report.consensus_partition.labels
        non_outlier = labels[labels != -1]
        if non_outlier.size:
            assert np.bincount(non_outlier).min() >= 3


class TestKmeans:
    def test_labels_recover_separated_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.vstack([c + rng.normal(0, 0.1, size=(20, 2)) for c in centers])
        truth = np.repeat([0, 1, 2], 20)
        labels = kmeans_labels(X, 3, seed=1)
        assert ari_labels(truth, labels) == 1.0

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

    def test_one_sided_shift_significant(self):
        p = wilcoxon_signed_rank([0.3, 0.5, 0.2, 0.4, 0.6, 0.25, 0.35, 0.45])
        assert p < 0.05


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

        monkeypatch.setattr("ddce.experiments.run_ddce", no_run)
        d_l, d_ul, source = make_benchmark(o=4, test_outlier_ratio=0.0)
        hidden = UnlabeledDataset(rows=[Utterance(id=r.id, text=r.text) for r in d_ul.rows])
        with pytest.raises(DdceError, match="ground truth"):
            call(d_l, hidden, source)


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = fast_cfg(alpha=0.4, consensus_fn="CHM", metric="euclidean")
        obj = config_to_dict(cfg)
        back = config_from_dict(json.loads(json.dumps(obj)))
        assert config_to_dict(back) == obj

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
        out = config_to_dict(config_from_dict(obj))
        assert json.dumps(out["search_space"]["max_eps_range"]) == "[0, 1]"

    @pytest.mark.parametrize("obj, message", [
        ({"k_models": 2.0}, "k_models: expected integer, got number"),
        ({"alpha": True}, "alpha: expected number, got boolean"),
        ({"metric": None}, "metric must not be null"),
        ({"train_cfg": []}, "train_cfg: expected object, got array"),
        ({"search_space": {"xi_range": [0.1, 0.2, 0.3]}}, r"search_space.xi_range: expected array of 2"),
    ])
    def test_bad_values_rejected(self, obj, message):
        with pytest.raises(ConfigError, match=message):
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
    ])
    def test_out_of_range_values_rejected(self, obj, key):
        with pytest.raises(DdceError, match=key):
            config_from_dict(obj)

    def test_range_bounds_accepted(self):
        obj = {"s_min": 1, "outlier_ratio": 0,
               "search_space": {"xi_range": [0, 1], "max_eps_range": [0, 2]}}
        assert config_to_dict(config_from_dict(obj))["search_space"]["xi_range"] == [0, 1]


class TestArtifactSerialization:
    def test_roundtrip_with_encoder(self):
        d_l, _, source = make_benchmark()
        art = train_base_models(d_l, source, fast_cfg(k_models=1))[0]
        back = artifact_from_dict(json.loads(json.dumps(artifact_to_dict(art))))
        assert back.params == art.params
        assert back.val_scores == art.val_scores
        assert np.allclose(back.encoder.W, art.encoder.W)
        assert back.encoder.class_labels == art.encoder.class_labels

    def test_missing_required_field_rejected(self):
        d_l, _, source = make_benchmark()
        obj = artifact_to_dict(train_base_models(d_l, source, fast_cfg(k_models=1))[0])
        del obj["encoder"]["W"]
        with pytest.raises(ConfigError, match="encoder is missing 'W'"):
            artifact_from_dict(obj)
