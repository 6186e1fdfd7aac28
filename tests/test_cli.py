import hashlib
import importlib.util
import json
import os
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ddce.cli import _load_inputs, build_parser, main
from ddce.corpus import save_jsonl
from ddce.embed import EmbeddingMatrix, featurize, load_precomputed, save_embeddings

from conftest import make_benchmark, make_labeled


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


@pytest.fixture
def files(workspace, tmp_path):
    """The workspace plus an EMB1 file with a vector for every row, and
    a small config whose master_seed is 9."""
    rows = [json.loads(line) for name in ("labeled", "unlabeled", "source")
            for line in open(workspace[name])]
    texts = {r["id"]: r["text"] for r in rows}  # injected rows repeat source rows
    vectors = EmbeddingMatrix(featurize(list(texts.values()), 16), list(texts))
    files = {**workspace, "emb": str(tmp_path / "all.emb1"),
             "small": str(tmp_path / "small.json")}
    save_embeddings(vectors, files["emb"])
    with open(files["small"], "w") as fh:
        json.dump({"k_models": 2, "search_space": {"n_trials": 3},
                   "train_cfg": {"epochs": 2}, "master_seed": 9}, fh)
    return files


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

    def test_escaped_surrogate_pair_is_one_character(self, tmp_path, workspace):
        """A \\ud83d\\ude00 escape pair decodes to one character, kept as it is."""
        data = str(tmp_path / "pair.jsonl")
        with open(data, "w") as fh:
            fh.write(open(workspace["unlabeled_clean"]).read())
            fh.write(json.dumps({"id": "novel-\U0001F600", "text": "t \U0001F600"}) + "\n")
        assert "\\ud83d\\ude00" in open(data).read()
        out = str(tmp_path / "inj")
        assert run("inject", "--data", data, "--source", workspace["source"],
                   "--ratio", "0.5", "--out", out) == 0
        rows = [json.loads(x) for x in open(os.path.join(out, "injected.jsonl"), encoding="utf-8")]
        assert [r["text"] for r in rows if r["id"] == "novel-\U0001F600"] == ["t \U0001F600"]


class TestManifest:
    """manifest.json names each command's input files, in flag order, the
    seed it ran with, and the values of its other flags."""

    @pytest.mark.parametrize("command, flags, inputs, seed", [
        ("inject", ["--data", "unlabeled", "--source", "source", "--ratio", "0.5"],
         ["unlabeled", "source"], 0),
        ("train", ["--labeled", "labeled", "--outlier-source", "source", "--seed", "4"],
         ["labeled", "source"], 4),
        ("train", ["--labeled", "labeled", "--outlier-source", "source", "--embeddings", "emb"],
         ["labeled", "source", "emb"], 9),
        ("cluster", ["--embeddings", "emb", "--max-eps", "0.4", "--xi", "0.05",
                     "--min-samples", "2"], ["emb"], 0),
        ("ensemble", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                      "--outlier-source", "source"], ["labeled", "unlabeled", "source"], 9),
        ("ensemble", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                      "--outlier-source", "source", "--embeddings", "emb", "--seed", "5"],
         ["labeled", "unlabeled", "source", "emb"], 5),
        ("baseline-kmeans", ["--labeled", "labeled", "--unlabeled", "unlabeled", "--seed", "3"],
         ["labeled", "unlabeled"], 3),
        ("baseline-kmeans", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                             "--embeddings", "emb"], ["labeled", "unlabeled", "emb"], 9),
        ("sweep-alpha", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                         "--outlier-source", "source", "--alphas", "0.5", "--reps", "1"],
         ["labeled", "unlabeled", "source"], 9),
        ("sweep-outliers", ["--labeled", "labeled", "--unlabeled", "unlabeled_clean",
                            "--outlier-source", "source", "--ratios", "0.5", "--seed", "6"],
         ["labeled", "unlabeled_clean", "source"], 6),
        ("sweep-size", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                        "--outlier-source", "source", "--o-values", "4", "--reps", "1"],
         ["labeled", "unlabeled", "source"], 9),
    ])
    def test_inputs_and_seed(self, files, command, flags, inputs, seed):
        argv = [files.get(f, f) for f in flags]
        if command not in ("inject", "cluster"):
            argv += ["--config", files["small"]]
        assert run(command, *argv, "--out", files["out"]) == 0
        manifest = json.load(open(os.path.join(files["out"], "manifest.json")))
        assert manifest["command"] == command
        assert manifest["input_paths"] == [files[name] for name in inputs]
        assert manifest["master_seed"] == seed

    @pytest.mark.parametrize("command, flags, settings", [
        ("synth", ["--intents", "3", "--per-intent", "4", "--seed", "2"],
         {"intents": 3, "per_intent": 4, "dim": 16, "sigma": 0.2, "prefix": "intent"}),
        ("inject", ["--data", "unlabeled", "--source", "source", "--ratio", "0.5"],
         {"ratio": 0.5}),
        ("cluster", ["--embeddings", "emb", "--max-eps", "0.4", "--xi", "0.05",
                     "--min-samples", "2", "--metric", "euclidean"],
         {"max_eps": 0.4, "xi": 0.05, "min_samples": 2, "s_min": 2, "metric": "euclidean"}),
        ("train", ["--labeled", "labeled", "--outlier-source", "source", "--embeddings", "emb"],
         {"max_per_intent": 50}),
        ("ensemble", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                      "--outlier-source", "source", "--max-per-intent", "0"],
         {"max_per_intent": 0}),
        ("baseline-kmeans", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                             "--max-per-intent", "3"], {"max_per_intent": 3}),
        ("sweep-alpha", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                         "--outlier-source", "source", "--alphas", "0.5"],
         {"max_per_intent": 50, "values": [0.5], "reps": 3}),
        ("sweep-outliers", ["--labeled", "labeled", "--unlabeled", "unlabeled_clean",
                            "--outlier-source", "source", "--ratios", "0.5,1"],
         {"max_per_intent": 50, "values": [0.5, 1.0]}),
    ])
    def test_settings(self, files, command, flags, settings):
        """The settings are the parsed flags the manifest holds nowhere else."""
        argv = [files.get(f, f) for f in flags]
        if command not in ("synth", "inject", "cluster"):
            argv += ["--config", files["small"]]
        assert run(command, *argv, "--out", files["out"]) == 0
        manifest = json.load(open(os.path.join(files["out"], "manifest.json")))
        assert list(manifest["settings"].items()) == list(settings.items())

    @pytest.mark.parametrize("command, flags, key, value", [
        ("cluster", ["--embeddings", "emb", "--max-eps", "inf", "--xi", "0.05",
                     "--min-samples", "2"], "max_eps", "inf"),
        ("inject", ["--data", "unlabeled", "--source", "source", "--ratio", "nan"],
         "ratio", "nan"),
        ("sweep-alpha", ["--labeled", "labeled", "--unlabeled", "unlabeled",
                         "--outlier-source", "source", "--alphas", "0.5,-inf"],
         "values", [0.5, "-inf"]),
    ])
    def test_non_finite_setting_kept_as_text(self, files, capsys, command, flags, key, value):
        """The manifest is written before the value is rejected, and stays
        standard JSON."""
        argv = [files.get(f, f) for f in flags]
        assert run(command, *argv, "--out", files["out"]) == 2
        assert capsys.readouterr().err.startswith("error:")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(os.path.join(files["out"], "manifest.json")) as fh:
            manifest = json.loads(fh.read(), parse_constant=reject)
        assert manifest["settings"][key] == value


def bench_partition_sha256(workload, tmp_path, monkeypatch):
    """sha256 of ``partition.jsonl`` from the benchmark's seed-1 call of
    ``workload``, with its inputs written by ``perfbench/gen.py``."""
    path = Path(__file__).parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
    spec.loader.exec_module(gen)
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    gen.generate(workload, 1, in_dir)
    assert main(gen.cli_argv(workload, 1, in_dir, out_dir)) == 0
    with open(os.path.join(out_dir, "partition.jsonl"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

    def test_cluster_large_partition_bytes(self, tmp_path, monkeypatch):
        """The benchmark's seed-1 cluster-large output is pinned byte for
        byte. Its bytes come from elementwise numpy (the matrix product only
        selects candidates), so they do not depend on the BLAS build."""
        digest = bench_partition_sha256("cluster-large", tmp_path, monkeypatch)
        assert digest == "9a06b08ab5af52ac8296f0c442e10b72c7046ccb7ebab94af6cf9348a26af655"


class TestEnsembleCommand:
    def test_ensemble_emb_chm_partition_bytes(self, tmp_path, monkeypatch):
        """The benchmark's seed-1 ensemble-emb-chm output is pinned byte for
        byte. Nothing BLAS or libm computes reaches it: OPTICS distances
        are evaluated elementwise (the matrix product only selects
        candidates), the search scores with recall and ARI, and the
        consensus products of the incidence matrix hold exact integer
        counts. CHM's choice rests on NMI, which goes through libm, but it
        is not close: CSPA and MCLA give the same labels (NMI sum 4.984,
        an exact tie that CSPA wins) and HGPA sums to 0.714. report.json
        holds those NMI floats and is not pinned."""
        digest = bench_partition_sha256("ensemble-emb-chm", tmp_path, monkeypatch)
        assert digest == "55fa2839f65967144d09cfc4d5763fe861bbb5e411937ce8e0135ee8d062fa77"

    def test_xi_range_next_to_one(self, workspace, tmp_path):
        """The only float strictly inside the xi range is 1 - 2**-53, and
        uniform draws on it round up to 1.0 about a third of the time;
        every trial's xi is redrawn into the open interval."""
        config = str(tmp_path / "xi.json")
        with open(config, "w") as fh:
            json.dump({"k_models": 2, "search_space": {
                "n_trials": 20, "xi_range": [0.9999999999999998, 1.0]}}, fh)
        assert run("ensemble", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", config, "--out", workspace["out"]) == 0

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

    def test_diverging_encoder(self, workspace, tmp_path, capsys):
        """A learning rate that overflows the weights is a config error."""
        config = str(tmp_path / "lr.json")
        with open(config, "w") as fh:
            json.dump({"train_cfg": {"learning_rate": 1e308}}, fh)
        code = run("ensemble", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--outlier-source", workspace["source"],
                   "--config", config, "--out", str(tmp_path / "x"))
        assert "train_cfg.learning_rate" in self._assert_one_error(code, capsys)

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

    @pytest.mark.parametrize("command, flag, other", [
        ("train", "--outlier-source", "source"),
        ("baseline-kmeans", "--unlabeled", "unlabeled"),
    ])
    def test_labeled_row_without_intent(self, workspace, tmp_path, capsys, command, flag, other):
        labeled = str(tmp_path / "labeled_bad.jsonl")
        with open(labeled, "w") as fh:
            fh.write(open(workspace["labeled"]).read())
            fh.write(json.dumps({"id": "odd-1", "text": "x", "outlier": True}) + "\n")
        code = run(command, "--labeled", labeled, flag, workspace[other],
                   "--config", workspace["config"], "--out", str(tmp_path / "x"))
        assert f"{labeled}:" in self._assert_one_error(code, capsys)

    PIPELINE_INPUTS = {  # each pipeline command's input flags, and the flags it also needs
        "train": (("--labeled", "--outlier-source"), ()),
        "ensemble": (("--labeled", "--unlabeled", "--outlier-source"), ()),
        "baseline-kmeans": (("--labeled", "--unlabeled"), ()),
        "sweep-alpha": (("--labeled", "--unlabeled", "--outlier-source"), ("--alphas", "0.5")),
        "sweep-outliers": (("--labeled", "--unlabeled", "--outlier-source"), ("--ratios", "0.5")),
        "sweep-size": (("--labeled", "--unlabeled", "--outlier-source"), ("--o-values", "4")),
    }

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (flags, _) in PIPELINE_INPUTS.items() for flag in flags])
    def test_empty_input_path(self, workspace, tmp_path, capsys, command, flag):
        """An empty path is a file that cannot be opened, not a flag left out."""
        flags, extra = self.PIPELINE_INPUTS[command]
        files = {"--labeled": "labeled", "--unlabeled": "unlabeled", "--outlier-source": "source"}
        argv = [a for f in flags for a in (f, "" if f == flag else workspace[files[f]])]
        code = run(command, *argv, *extra, "--config", workspace["config"],
                   "--out", str(tmp_path / "x"))
        self._assert_one_error(code, capsys)

    @pytest.mark.parametrize("command", ["inject", "train", "sweep-outliers"])
    def test_huge_outlier_ratio(self, workspace, tmp_path, capsys, command):
        """A finite ratio whose row count overflows is short of source rows."""
        config = str(tmp_path / "huge.json")
        with open(config, "w") as fh:
            json.dump({"k_models": 2, "outlier_ratio": 1e308}, fh)
        args = {
            "inject": ("--data", workspace["unlabeled"], "--source", workspace["source"],
                       "--ratio", "1e308"),
            "train": ("--labeled", workspace["labeled"], "--outlier-source", workspace["source"],
                      "--config", config),
            "sweep-outliers": ("--labeled", workspace["labeled"],
                               "--unlabeled", workspace["unlabeled_clean"],
                               "--outlier-source", workspace["source"], "--ratios", "1e308",
                               "--config", workspace["config"]),
        }[command]
        code = run(command, *args, "--out", str(tmp_path / "x"))
        assert "outlier source has" in self._assert_one_error(code, capsys)

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
        ({"train_cfg": {"feature_dim": 2**62}}, "feature_dim"),
        ({"train_cfg": {"hidden_dim": 2**62}}, "hidden_dim"),
        ({"train_cfg": {"feature_dim": 10**23}}, "feature_dim"),
        ({"train_cfg": {"seed": 1}}, "seed"),  # every model's seed derives from master_seed
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

    @pytest.mark.parametrize("flag, value", [
        ("--max-eps", "nan"),
        ("--xi", "1.0"),
        ("--min-samples", "1"),
        ("--min-samples", "100000000000000000000"),  # overflowed the row offsets
    ])
    def test_cluster_parameter_out_of_range(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "x.emb1")
        save_embeddings(EmbeddingMatrix(data=np.eye(3), row_ids=["a", "b", "c"]), path)
        args = {"--max-eps": "0.4", "--xi": "0.05", "--min-samples": "2", flag: value}
        code = run("cluster", "--embeddings", path, *(x for kv in args.items() for x in kv),
                   "--out", str(tmp_path / "x"))
        assert flag[2:].replace("-", "_") in self._assert_one_error(code, capsys)
        assert not os.path.exists(tmp_path / "x" / "partition.jsonl")

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

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "1e308"])
    def test_synth_bad_sigma(self, tmp_path, capsys, sigma):
        out = tmp_path / "x"
        code = run("synth", "--intents", "2", "--per-intent", "3", "--sigma", sigma,
                   "--out", str(out))
        assert "blob_sigma" in self._assert_one_error(code, capsys)
        assert not os.path.exists(out / "labeled.jsonl")

    @pytest.mark.parametrize("sizes", [
        ["--intents", "2", "--per-intent", str(10**20)],
        ["--intents", str(10**20), "--per-intent", "2"],
        ["--intents", "2", "--per-intent", "3", "--dim", str(10**20)],
        ["--intents", str(2**16), "--per-intent", str(2**16)],
        ["--intents", "1", "--per-intent", "3", "--dim", str(2**32)],
    ])
    def test_synth_beyond_emb1(self, tmp_path, capsys, sizes):
        """EMB1 stores the row count and dim as u32: 2**32 rows or dims is
        rejected before anything is drawn or written."""
        out = tmp_path / "x"
        code = run("synth", *sizes, "--out", str(out))
        assert "do not fit EMB1" in self._assert_one_error(code, capsys)
        assert not os.path.exists(out / "labeled.jsonl")

    def test_synth_sigma_beyond_float32(self, tmp_path, capsys):
        """The vectors are finite as float64 but overflow EMB1's float32:
        the error names the file, and neither file is written."""
        out = tmp_path / "x"
        code = run("synth", "--intents", "2", "--per-intent", "3", "--sigma", "1e300",
                   "--out", str(out))
        assert str(out / "oracle.emb1") in self._assert_one_error(code, capsys)
        assert not os.path.exists(out / "labeled.jsonl")
        assert not os.path.exists(out / "oracle.emb1")

    @pytest.mark.parametrize("message, expected", [
        ("Unable to allocate 32.0 GiB for an array with shape (4294901795, 1) and data type "
         "float64", "error: out of memory: Unable to allocate 32.0 GiB for an array with shape "
         "(4294901795, 1) and data type float64"),
        ("", "error: out of memory"),
    ], ids=["numpy-message", "empty-message"])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, message, expected):
        """A MemoryError ends in exit 2 and one error line, not a traceback.
        The allocation failure is simulated; nothing large is allocated."""
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("ddce.corpus.generate_synthetic", no_memory)
        code = run("synth", "--intents", "65535", "--per-intent", "65537", "--dim", "1",
                   "--out", str(tmp_path / "x"))
        assert self._assert_one_error(code, capsys) == expected
        assert not os.path.exists(tmp_path / "x" / "labeled.jsonl")

    @pytest.mark.parametrize("command, field", [("ensemble", "id"), ("inject", "id"),
                                                ("inject", "text")])
    def test_lone_surrogate_in_jsonl(self, workspace, tmp_path, capsys, monkeypatch,
                                     command, field):
        """A \\ud800 escape is valid JSON, but no UTF-8 output can hold the
        string it decodes to: the read stops at its line, before any model
        trains, and only the manifest is written."""
        def no_train(*args, **kwargs):
            raise AssertionError("encoder trained on an unreadable input")

        monkeypatch.setattr("ddce.pipeline.train_encoder", no_train)
        data = str(tmp_path / "surrogate.jsonl")
        lines = open(workspace["unlabeled_clean"]).read().splitlines()
        row = {"id": "novel-x", "text": "novel text"}
        row[field] += "\ud800"
        lines.insert(2, json.dumps(row))  # escaped as \ud800, so the file is UTF-8
        with open(data, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = str(tmp_path / "x")
        args = {
            "ensemble": ("--labeled", workspace["labeled"], "--unlabeled", data,
                         "--outlier-source", workspace["source"],
                         "--config", workspace["config"]),
            "inject": ("--data", data, "--source", workspace["source"], "--ratio", "0.5"),
        }[command]
        code = run(command, *args, "--out", out)
        assert f"{data}:3: string holds a lone surrogate" in self._assert_one_error(code, capsys)
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--out"), ("synth", "--prefix"), ("ensemble", "--labeled"),
        ("ensemble", "--config"), ("ensemble", "--out"),
    ])
    def test_argument_not_utf8(self, workspace, tmp_path, capsys, command, flag):
        """A non-UTF-8 byte in argv arrives as a lone surrogate; the manifest
        cannot hold it, so the run stops before writing anything."""
        args = {
            "synth": {"--intents": "2", "--per-intent": "2", "--prefix": "intent"},
            "ensemble": {"--labeled": workspace["labeled"], "--unlabeled": workspace["unlabeled"],
                         "--outlier-source": workspace["source"],
                         "--config": workspace["config"]},
        }[command]
        args["--out"] = str(tmp_path / "out")
        args[flag] = str(tmp_path / "bad\udcff")
        before = sorted(os.listdir(tmp_path))
        code = main([command, *(a for pair in args.items() for a in pair)])
        assert self._assert_one_error(code, capsys).startswith(f"error: {flag} is not valid UTF-8")
        assert sorted(os.listdir(tmp_path)) == before

    def test_output_rename_fails(self, tmp_path, capsys):
        """partition.jsonl is a directory: the rename fails, the error is
        one line, and the temporary file is removed."""
        emb = str(tmp_path / "e.emb1")
        save_embeddings(EmbeddingMatrix(np.eye(4), list("abcd")), emb)
        out = tmp_path / "out"
        (out / "partition.jsonl").mkdir(parents=True)
        code = run("cluster", "--embeddings", emb, "--max-eps", "0.5", "--xi", "0.05",
                   "--min-samples", "2", "--out", str(out))
        assert "partition.jsonl" in self._assert_one_error(code, capsys)
        assert sorted(os.listdir(out)) == ["manifest.json", "partition.jsonl"]
        assert os.listdir(out / "partition.jsonl") == []

    def test_sweep_on_one_row(self, workspace, tmp_path, capsys):
        """One unlabeled row with an intent is too few for ARI; the message
        names both conditions of ground truth."""
        one = str(tmp_path / "one.jsonl")
        with open(workspace["unlabeled"]) as src, open(one, "w") as fh:
            fh.write(next(line for line in src if json.loads(line).get("intent")))
        code = run("sweep-alpha", "--labeled", workspace["labeled"], "--unlabeled", one,
                   "--outlier-source", workspace["source"], "--alphas", "0.5", "--reps", "1",
                   "--config", workspace["config"], "--out", str(tmp_path / "x"))
        err = self._assert_one_error(code, capsys)
        assert "at least 2 rows, each with an intent or an outlier flag" in err

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

    def test_train_on_emb1_artifacts_bytes(self, files):
        """``train --embeddings`` output is pinned byte for byte, the config
        and the models' searched parameters and validation scores as the
        codec writes them. No encoder is trained and no NMI is taken: the
        search scores with recall and ARI on distances evaluated
        elementwise. The fixture's vectors take their idf weights from
        np.log and are rounded to float32 in the EMB1 file."""
        assert run("train", "--labeled", files["labeled"], "--outlier-source", files["source"],
                   "--embeddings", files["emb"], "--config", files["small"],
                   "--out", files["out"]) == 0
        with open(os.path.join(files["out"], "artifacts.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "c96a1b9d440fae902d5d384e16171cb7b507b99c1a4e2cf7af3ffff8f09df6db"

    def test_baseline_kmeans(self, workspace, capsys):
        code = run("baseline-kmeans", "--labeled", workspace["labeled"],
                   "--unlabeled", workspace["unlabeled"],
                   "--config", workspace["config"], "--seed", "2",
                   "--out", workspace["out"])
        assert code == 0
        scores = json.load(open(os.path.join(workspace["out"], "scores.json")))
        assert 0.0 <= scores["score"] <= 1.0

    @pytest.mark.parametrize("flag, expected", [([], 50), (["--max-per-intent", "7"], 7),
                                                (["--max-per-intent", "0"], 60)])
    def test_max_per_intent_caps_each_intent(self, tmp_path, flag, expected):
        path = str(tmp_path / "labeled.jsonl")
        save_jsonl(make_labeled({"a": 60, "b": 4}), path)
        args = build_parser().parse_args(
            ["train", "--labeled", path, "--outlier-source", path, "--out", str(tmp_path), *flag])
        _, d, *_ = _load_inputs(args)
        assert [sum(1 for r in d.rows if r.intent == i) for i in "ab"] == [expected, 4]


class TestWithoutGroundTruth:
    """Unlabeled rows with neither intents nor outlier flags: the commands
    print a cluster count and write no scores."""

    @pytest.fixture
    def hidden(self, workspace, tmp_path):
        path = str(tmp_path / "hidden.jsonl")
        with open(path, "w") as fh:
            for line in open(workspace["unlabeled"]):
                row = json.loads(line)
                fh.write(json.dumps({"id": row["id"], "text": row["text"]}) + "\n")
        return path

    def test_ensemble(self, workspace, hidden, capsys):
        code = run("ensemble", "--labeled", workspace["labeled"], "--unlabeled", hidden,
                   "--outlier-source", workspace["source"],
                   "--config", workspace["config"], "--out", workspace["out"])
        assert code == 0
        report = json.load(open(os.path.join(workspace["out"], "report.json")))
        assert report["consensus_test_scores"] is None
        assert report["base_test_scores"] is None
        count = report["consensus_cluster_count"]
        assert capsys.readouterr().out == f"{count} consensus clusters\n"
        assert sorted(os.listdir(workspace["out"])) == ["manifest.json", "partition.jsonl",
                                                        "report.json"]

    def test_baseline_kmeans(self, workspace, hidden, capsys):
        code = run("baseline-kmeans", "--labeled", workspace["labeled"], "--unlabeled", hidden,
                   "--config", workspace["config"], "--out", workspace["out"])
        assert code == 0
        rows = [json.loads(x) for x in open(os.path.join(workspace["out"], "partition.jsonl"))]
        count = len({r["cluster"] for r in rows} - {-1})
        assert capsys.readouterr().out == f"{count} clusters over {len(rows)} samples\n"
        assert sorted(os.listdir(workspace["out"])) == ["manifest.json", "partition.jsonl"]


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
