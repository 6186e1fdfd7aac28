import json
import os
import struct
import warnings

import numpy as np
import pytest

from ddce.cli import main
from ddce.corpus import save_jsonl
from ddce.embed import EmbeddingMatrix, load_precomputed, save_embeddings

from conftest import make_benchmark


def run(*argv):
    return main(list(argv))


@pytest.fixture
def workspace(tmp_path):
    """Labeled/unlabeled/outlier-source JSONL files plus a fast config."""
    d_l, d_ul, source = make_benchmark(seed=1, o=6, novel=2, rows=20)
    _, d_ul_clean, _ = make_benchmark(seed=1, o=6, novel=2, rows=20, test_outlier_ratio=0.0)
    paths = {
        "labeled": str(tmp_path / "labeled.jsonl"),
        "unlabeled": str(tmp_path / "unlabeled.jsonl"),
        "unlabeled_clean": str(tmp_path / "unlabeled_clean.jsonl"),
        "source": str(tmp_path / "source.jsonl"),
        "config": str(tmp_path / "config.json"),
        "out": str(tmp_path / "out"),
    }
    save_jsonl(d_l, paths["labeled"])
    save_jsonl(d_ul, paths["unlabeled"])
    save_jsonl(d_ul_clean, paths["unlabeled_clean"])
    save_jsonl(source, paths["source"])
    with open(paths["config"], "w") as fh:
        json.dump(
            {
                "k_models": 2,
                "search_space": {"n_trials": 25},
                "outlier_ratio": 0.5,
            },
            fh,
        )
    return paths


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_no_subcommand(self):
        assert run() == 1

    def test_missing_required_flag(self):
        assert run("synth", "--intents", "3") == 1

    def test_version_exits_zero(self):
        assert run("--version") == 0


class TestSynthInjectEvaluate:
    def test_synth_writes_dataset_and_oracle(self, tmp_path):
        out = str(tmp_path / "d")
        assert run("synth", "--intents", "4", "--per-intent", "6",
                   "--out", out, "--seed", "3") == 0
        lines = open(os.path.join(out, "labeled.jsonl")).read().splitlines()
        assert len(lines) == 24
        oracle = load_precomputed(os.path.join(out, "oracle.emb1"))
        assert oracle.n == 24 and oracle.d == 16
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "synth" and manifest["master_seed"] == 3

    def test_inject_appends_flagged_rows(self, tmp_path, workspace):
        out = str(tmp_path / "inj")
        assert run("inject", "--data", workspace["unlabeled"],
                   "--source", workspace["source"],
                   "--ratio", "0.5", "--out", out) == 0
        rows = [json.loads(x) for x in open(os.path.join(out, "injected.jsonl"))]
        flagged = [r for r in rows if r.get("outlier")]
        assert flagged and all(r["intent"] is None for r in flagged)

    def test_evaluate_prints_scores(self, workspace, capsys, tmp_path):
        pred = str(tmp_path / "pred.jsonl")
        rows = [json.loads(x) for x in open(workspace["unlabeled"])]
        with open(pred, "w") as fh:
            for r in rows:
                cluster = -1 if r.get("outlier") else hash(r["intent"]) % 3
                fh.write(json.dumps({"id": r["id"], "cluster": cluster}) + "\n")
        assert run("evaluate", "--truth", workspace["unlabeled"], "--pred", pred) == 0
        scores = json.loads(capsys.readouterr().out.strip())
        assert set(scores) == {"score_c", "score_ari", "score"}

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("evaluate", "--truth", "/nope.jsonl", "--pred", "/nope2.jsonl") == 2


class TestClusterCommand:
    def test_cluster_on_emb1(self, tmp_path):
        out = str(tmp_path / "d")
        run("synth", "--intents", "3", "--per-intent", "10", "--sigma", "0.05",
            "--out", out, "--seed", "1")
        cl_out = str(tmp_path / "cl")
        assert run("cluster", "--embeddings", os.path.join(out, "oracle.emb1"),
                   "--max-eps", "0.4", "--xi", "0.05", "--min-samples", "5",
                   "--out", cl_out) == 0
        rows = [json.loads(x) for x in open(os.path.join(cl_out, "partition.jsonl"))]
        assert len(rows) == 30
        assert {r["cluster"] for r in rows} - {-1}


class TestEnsembleCommand:
    def test_ensemble_writes_outputs(self, workspace, capsys):
        code = run("ensemble", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", workspace["config"], "--seed", "5",
                   "--out", workspace["out"])
        assert code == 0
        report = json.load(open(os.path.join(workspace["out"], "report.json")))
        assert report["config"]["master_seed"] == 5
        assert report["partition_path"] == "partition.jsonl"
        assert len(report["base_models"]) == 2
        assert report["consensus"]["function"] == "BOKV"
        assert report["consensus_test_scores"] is not None
        out = capsys.readouterr().out
        assert "score" in out

    def test_ensemble_deterministic_bytes(self, workspace, tmp_path):
        args = ["ensemble", "--labeled", workspace["labeled"],
                "--unlabeled", workspace["unlabeled"],
                "--outlier-source", workspace["source"],
                "--config", workspace["config"], "--seed", "7"]
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert run(*args, "--out", out1) == 0
        assert run(*args, "--out", out2) == 0
        for name in ("partition.jsonl", "report.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_bad_config_key_is_data_error(self, workspace, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"k_modelz": 2}, fh)
        assert run("ensemble", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", bad, "--out", str(tmp_path / "x")) == 2


class TestMalformedInputs:
    """Every malformed input exits 2 with a single ``error:`` line."""

    @pytest.mark.parametrize("config", [
        {"k_models": "5"},
        {"alpha": None},
        {"search_space": {"max_eps_range": [0.5]}},
        {"search_space": {"n_trials": 2.5}},
        {"train_cfg": {"batch_size": 0}},
        {"train_cfg": {"epochs": -1}},
        [1],
        {"k_models": True},
        {"s_min": 2.0},
    ])
    def test_bad_config(self, workspace, tmp_path, capsys, config):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(config, fh)
        code = run("ensemble", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", bad, "--out", str(tmp_path / "x"))
        self._assert_one_error(code, capsys)

    def test_jsonl_line_not_an_object(self, workspace, tmp_path, capsys):
        truth = str(tmp_path / "truth.jsonl")
        with open(truth, "w") as fh:
            fh.write("[1]\n")
        pred = str(tmp_path / "pred.jsonl")
        with open(pred, "w") as fh:
            fh.write(json.dumps({"id": "a", "cluster": 0}) + "\n")
        code = run("evaluate", "--truth", truth, "--pred", pred)
        self._assert_one_error(code, capsys)

    def test_labeled_intent_not_a_string(self, workspace, tmp_path, capsys):
        labeled = str(tmp_path / "labeled_bad.jsonl")
        with open(labeled, "w") as fh:
            fh.write(open(workspace["labeled"]).read())
            fh.write(json.dumps({"id": "bad", "text": "t", "intent": 5}) + "\n")
        code = run("ensemble", "--labeled", labeled,
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", workspace["config"], "--out", str(tmp_path / "x"))
        self._assert_one_error(code, capsys)

    @pytest.mark.parametrize("truth_row, pred_row", [
        ({"id": "b", "text": "t", "intent": None, "outlier": "no"}, {"id": "b", "cluster": 0}),
        ({"id": "b", "text": "t", "intent": "x"}, [1]),
        ({"id": "b", "text": "t", "intent": "x"}, {"id": "b", "cluster": None}),
        ({"id": "b", "text": "t", "intent": "x"}, {"id": "b", "cluster": 1.5}),
        ({"id": "b", "text": "t", "intent": "x"}, {"id": "b", "cluster": True}),
    ])
    def test_evaluate_bad_row_type(self, tmp_path, capsys, truth_row, pred_row):
        """The second row of the truth or partition file has a bad type."""
        truth = str(tmp_path / "truth.jsonl")
        pred = str(tmp_path / "pred.jsonl")
        for path, first, second in (
            (truth, {"id": "a", "text": "s", "intent": "x"}, truth_row),
            (pred, {"id": "a", "cluster": 0}, pred_row),
        ):
            with open(path, "w") as fh:
                fh.write(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        code = run("evaluate", "--truth", truth, "--pred", pred)
        self._assert_one_error(code, capsys)

    @pytest.mark.parametrize("truth_row, pred_row, bad_file", [
        ({"id": None, "text": {"k": 1}, "intent": "x"}, {"id": "None", "cluster": 0}, "truth"),
        ({"id": 5, "text": "t", "intent": "x"}, {"id": "5", "cluster": 0}, "truth"),
        ({"id": "b", "text": ["t"], "intent": "x"}, {"id": "b", "cluster": 0}, "truth"),
        ({"id": "5", "text": "t", "intent": "x"}, {"id": 5, "cluster": 0}, "pred"),
    ])
    def test_evaluate_id_and_text_must_be_strings(self, tmp_path, capsys,
                                                   truth_row, pred_row, bad_file):
        """A non-string id or text on line 2 is rejected, naming the file
        and line; read through str(), id null would match id "None"."""
        paths = {"truth": str(tmp_path / "truth.jsonl"), "pred": str(tmp_path / "pred.jsonl")}
        for name, first, second in (
            ("truth", {"id": "a", "text": "s", "intent": "x"}, truth_row),
            ("pred", {"id": "a", "cluster": 0}, pred_row),
        ):
            with open(paths[name], "w") as fh:
                fh.write(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        code = run("evaluate", "--truth", paths["truth"], "--pred", paths["pred"])
        assert f"{paths[bad_file]}:2:" in self._assert_one_error(code, capsys)

    @pytest.mark.parametrize("pred_ids, bad_line", [
        (["a", "a", "b"], "pred.jsonl:2: repeated id"),
        (["a", "b"], "one partition row per truth row"),  # truth row c has no partition row
    ])
    def test_evaluate_needs_one_row_per_truth_row(self, tmp_path, capsys, pred_ids, bad_line):
        truth = str(tmp_path / "truth.jsonl")
        pred = str(tmp_path / "pred.jsonl")
        with open(truth, "w") as fh:
            for rid, intent in (("a", "x"), ("b", "x"), ("c", "y")):
                fh.write(json.dumps({"id": rid, "text": "t", "intent": intent}) + "\n")
        with open(pred, "w") as fh:
            for rid in pred_ids:
                fh.write(json.dumps({"id": rid, "cluster": 0}) + "\n")
        code = run("evaluate", "--truth", truth, "--pred", pred)
        assert bad_line in self._assert_one_error(code, capsys)

    @pytest.mark.parametrize("config, key", [
        ({"search_space": {"xi_range": [0.5, 1.5]}}, "xi_range"),
        ({"s_min": 0}, "s_min"),
        ({"outlier_ratio": -1.0}, "outlier_ratio"),
        ({"search_space": {"max_eps_range": [-1.0, 0.5]}}, "max_eps_range"),
        ({"search_space": {"n_trials": 0}}, "n_trials"),
        ({"train_cfg": {"feature_dim": 8}}, "feature_dim"),
        ({"search_space": {"min_samples_range": [2, 2**63]}}, "min_samples_range"),
    ])
    def test_out_of_range_config_fails_at_load(self, workspace, tmp_path, capsys, config, key):
        """Rejected before any base model trains, with the key named."""
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(config, fh)
        code = run("train", "--labeled", workspace["labeled"],
                   "--outlier-source", workspace["source"],
                   "--config", bad, "--out", str(tmp_path / "x"))
        err = self._assert_one_error(code, capsys)
        assert key in err and "base model" not in err

    @pytest.mark.parametrize("row_id, payload", [
        (b"\xff", struct.pack("<2f", 1, 0)),  # id not UTF-8
        (b"a", struct.pack("<2I", 0x7F800001, 0)),  # signaling NaN
        (b"a", struct.pack("<3f", 0, 1, 2)),  # payload longer than the 1x2 header
    ])
    def test_bad_emb1(self, tmp_path, capsys, row_id, payload):
        path = str(tmp_path / "bad.emb1")
        with open(path, "wb") as fh:
            fh.write(b"EMB1" + struct.pack("<IIH", 1, 2, 1) + row_id + payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the command line would print a warning to stderr
            code = run("cluster", "--embeddings", path, "--max-eps", "0.4", "--xi", "0.05",
                       "--min-samples", "2", "--out", str(tmp_path / "x"))
        assert path in self._assert_one_error(code, capsys)

    def test_emb1_repeated_id(self, tmp_path, capsys):
        """A repeated id would reach partition.jsonl, which evaluate rejects."""
        path = str(tmp_path / "dup.emb1")
        ids = ["r0", "r1", "r2", "r3", "r4", "r4"]
        save_embeddings(EmbeddingMatrix(data=np.eye(6), row_ids=ids), path)
        code = run("cluster", "--embeddings", path, "--max-eps", "0.4", "--xi", "0.05",
                   "--min-samples", "2", "--out", str(tmp_path / "x"))
        err = self._assert_one_error(code, capsys)
        assert path in err and "'r4'" in err
        assert not os.path.exists(tmp_path / "x" / "partition.jsonl")

    def test_negative_max_per_intent(self, workspace, tmp_path, capsys):
        out = tmp_path / "x"
        code = run("train", "--labeled", workspace["labeled"],
                   "--outlier-source", workspace["source"],
                   "--config", workspace["config"], "--max-per-intent", "-3",
                   "--out", str(out))
        assert "--max-per-intent" in self._assert_one_error(code, capsys)
        assert not os.path.exists(out / "artifacts.json")

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_synth_bad_sigma(self, tmp_path, capsys, sigma):
        out = tmp_path / "x"
        code = run("synth", "--intents", "2", "--per-intent", "3", "--sigma", sigma,
                   "--out", str(out))
        assert "blob_sigma" in self._assert_one_error(code, capsys)
        assert not os.path.exists(out / "labeled.jsonl")

    @staticmethod
    def _assert_one_error(code, capsys):
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]


class TestTrainAndBaseline:
    def test_train_writes_artifacts(self, workspace):
        code = run("train", "--labeled", workspace["labeled"],
                   "--outlier-source", workspace["source"],
                   "--config", workspace["config"], "--seed", "2",
                   "--out", workspace["out"])
        assert code == 0
        payload = json.load(open(os.path.join(workspace["out"], "artifacts.json")))
        assert len(payload["models"]) == 2
        assert payload["models"][0]["encoder"]["W"]

    def test_baseline_kmeans(self, workspace, capsys):
        code = run("baseline-kmeans", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--config", workspace["config"], "--seed", "2",
                   "--out", workspace["out"])
        assert code == 0
        scores = json.load(open(os.path.join(workspace["out"], "scores.json")))
        assert 0.0 <= scores["score"] <= 1.0


class TestSweepCommands:
    def test_sweep_alpha(self, workspace, capsys):
        code = run("sweep-alpha", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--alphas", "0.5", "--reps", "2",
                   "--config", workspace["config"], "--out", workspace["out"])
        assert code == 0
        lines = open(os.path.join(workspace["out"], "alpha_sweep.csv")).read().splitlines()
        assert lines[0] == "alpha,mean_score,var_score" and len(lines) == 2

    def test_sweep_outliers(self, workspace):
        code = run("sweep-outliers", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled_clean"],
                   "--outlier-source", workspace["source"],
                   "--ratios", "0.0,0.5",
                   "--config", workspace["config"], "--out", workspace["out"])
        assert code == 0
        lines = open(os.path.join(workspace["out"], "outlier_sweep.csv")).read().splitlines()
        assert len(lines) == 3

    def test_sweep_size(self, workspace):
        code = run("sweep-size", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--o-values", "4", "--reps", "2",
                   "--config", workspace["config"], "--out", workspace["out"])
        assert code == 0
        lines = open(os.path.join(workspace["out"], "size_sweep.csv")).read().splitlines()
        assert lines[0] == "o,mean_rel_improvement,median_rel_improvement,wilcoxon_p"
        assert len(lines) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep-alpha", "--alphas", "abc"),
        ("sweep-outliers", "--ratios", ""),
        ("sweep-size", "--o-values", "x"),
    ])
    def test_unparsable_values_are_usage_errors(self, workspace, capsys, command, flag, value):
        code = run(command, "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   flag, value, "--out", workspace["out"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep-alpha", "--alphas", "0.5"),
        ("sweep-size", "--o-values", "4"),
    ])
    def test_zero_reps_is_data_error(self, workspace, capsys, command, flag, value):
        code = run(command, "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   flag, value, "--reps", "0",
                   "--config", workspace["config"], "--out", workspace["out"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not [f for f in os.listdir(workspace["out"]) if f.endswith(".csv")]
