"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import os
import time

import numpy as np

from ddce.cli import main as cli_main
from ddce.consensus import PartitionSet, bok, bokv, bokv_with_details, chm, cspa, k_target, mcla
from ddce.corpus import generate_synthetic, inner_split, save_jsonl
from ddce.embed import EmbeddingMatrix, TrainConfig, loss_and_grads, train_encoder
from ddce.experiments import sweep_outlier_ratio
from ddce.metrics import ari_labels, nmi, nmi_labels
from ddce.optics import OpticsParams, Partition, cluster, compute_ordering, pairwise_distances
from ddce.pipeline import PipelineConfig, run_ddce
from ddce.search import SearchSpace, sample_params
from ddce.util import substream

from conftest import cosine_blobs_with_noise, make_benchmark, make_ratio_sweep_benchmark
from oracles import (
    finite_difference_grads,
    partitions_into_k,
    ref_ari,
    ref_nmi,
    ref_nmi_sum,
    ref_optics,
)


def _report(criterion: int, description: str, ok: bool) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {criterion} failed: {description}"


def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = rng.integers(-1, 4, size=n)
        b = rng.integers(-1, 4, size=n)
        worst = max(worst, abs(ari_labels(a, b) - ref_ari(a.tolist(), b.tolist())))
        worst = max(worst, abs(nmi_labels(a, b) - ref_nmi(a.tolist(), b.tolist())))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(1, f"ARI/NMI vs brute-force oracles on 200 pairs "
               f"(max |diff| {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_2_optics_oracle():
    exact = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 61))
        dim = int(rng.integers(1, 5))
        data = rng.normal(size=(n, dim))
        if seed % 3 == 0:
            data[: n // 3] = data[0]
        metric = "euclidean" if seed % 2 == 0 else "cosine"
        params = OpticsParams(
            max_eps=float(rng.uniform(0.2, 3.0)), xi=0.05,
            min_samples=int(rng.integers(2, 8)),
        )
        ids = [f"p{i}" for i in range(n)]
        got = compute_ordering(pairwise_distances(data, metric), ids, params)
        order, reach, core, _ = ref_optics(data, params.max_eps, params.min_samples, metric)
        if (got.order.tolist() != order or got.reachability.tolist() != reach
                or got.core_distance.tolist() != core):
            exact = False
            break
    recovered = 0
    for seed in range(10):
        pts, truth = cosine_blobs_with_noise(seed)
        m = EmbeddingMatrix(data=pts, row_ids=[f"p{i}" for i in range(len(pts))])
        part = cluster(m, OpticsParams(0.3, 0.05, 15), 2, "cosine")
        blob = truth != -1
        if ari_labels(truth[blob], part.labels[blob]) >= 0.9:
            recovered += 1
    ok = exact and recovered == 10
    _report(2, f"ordering/core/reachability exact on 20 datasets ({exact}); "
               f"two-blob recovery ARI>=0.9 in {recovered}/10 seeds", ok)


def test_criterion_3_consensus_identities():
    base = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    parts = [Partition(labels=np.array(base), ids=[f"s{i}" for i in range(9)])] * 5
    ts = PartitionSet(partitions=list(parts), val_recalls=[0.9] * 5)
    identity_ok = all(
        nmi(fn(ts), ts.partitions[0]) == 1.0
        for fn in (cspa, mcla, chm, bok, bokv)
    )
    rng = np.random.default_rng(7)
    mixed = [
        Partition(labels=rng.integers(-1, 3, size=12), ids=[f"s{i}" for i in range(12)])
        for _ in range(5)
    ]
    closed = PartitionSet(partitions=mixed, val_recalls=[0.4, 0.4, 0.6, 0.4, 0.4])
    degraded, details = bokv_with_details(closed)
    gate_ok = (
        details["gate_open"] is False
        and degraded is bok(closed)
        and np.array_equal(degraded.labels, bok(closed).labels)
    )
    _report(3, f"identical-input identities NMI=1.0 exactly ({identity_ok}); "
               f"closed gate falls back to best-of-K bit-identically ({gate_ok})",
            identity_ok and gate_ok)


def test_criterion_4_cspa_exhaustive_oracle():
    instances = [
        [[0, 0, 0, 1, 1, 1, 2, 2, 2]] * 3,
        [[0, 0, 0, 0, 1, 1, 1, 1, 1]] * 2,
        [[0, 0, 0, 1, 1, 1, 2, 2, 2],
         [0, 0, 0, 1, 1, 1, 2, 2, 2],
         [0, 0, 1, 1, 1, 1, 2, 2, 2]],
        [[0, 0, 0, 0, 1, 1, 1, 1],
         [0, 0, 0, 0, 1, 1, 1, 1],
         [0, 0, 0, 1, 1, 1, 1, 1],
         [0, 0, 0, 0, 0, 1, 1, 1]],
        [[0, 0, 1, 1, 2, 2]] * 2,
        [[0, 0, 0, 0, 1, 1, 1, 1, 1],
         [0, 0, 0, 1, 1, 1, 1, 1, 1]],
    ]
    gaps = []
    for labelsets in instances:
        ts = PartitionSet(partitions=[
            Partition(labels=np.array(ls), ids=[f"s{i}" for i in range(len(ls))])
            for ls in labelsets
        ])
        achieved = ref_nmi_sum(cspa(ts).labels, ts.labels)
        best = max(
            ref_nmi_sum(cand, ts.labels)
            for cand in partitions_into_k(ts.n, k_target(ts))
        )
        gaps.append(best - achieved)
    ok = len(instances) >= 5 and all(g <= 1e-9 for g in gaps)
    _report(4, f"co-association consensus reaches enumeration optimum on "
               f"{len(instances)} instances (max gap {max(gaps):.2e})", ok)


def test_criterion_5_encoder_gradients_and_training():
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
    worst = max(
        float((np.abs(a - f) / np.maximum(1e-8, np.abs(a) + np.abs(f))).max())
        for a, f in zip(analytic, numeric)
    )
    d, _ = generate_synthetic(6, 12, 8, 0.05, np.random.default_rng(0))
    train, val = inner_split(d, 0.25, np.random.default_rng(1))
    _, acc = train_encoder(train, val, TrainConfig(), 0)
    ok = worst < 1e-4 and acc >= 0.95
    _report(5, f"gradient check max rel err {worst:.2e} (<1e-4); "
               f"val accuracy {acc:.3f} (>=0.95) within 30 epochs", ok)


def test_criterion_6_ensemble_beats_base_models():
    t0 = time.perf_counter()
    wins = 0
    rels = []
    for seed in range(10):
        d_l, d_ul, source = make_benchmark(
            seed=seed, o=16, novel=5, rows=30, test_outlier_ratio=0.5
        )
        cfg = PipelineConfig(
            k_models=5, alpha=0.5, s_min=2,
            search_space=SearchSpace(n_trials=100),
            consensus_fn="BOKV", train_cfg=TrainConfig(),
            outlier_ratio=0.5, master_seed=seed,
        )
        report = run_ddce(d_l, d_ul, source, cfg)
        bokv_score = report.consensus_test_scores.score
        base_mean = float(np.mean([s.score for s in report.base_test_scores]))
        wins += bokv_score >= base_mean
        rels.append((bokv_score - base_mean) / base_mean if base_mean > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    median_rel = float(np.median(rels))
    ok = wins >= 7 and median_rel > 0.0 and elapsed < 600.0
    _report(6, f"ensemble >= base mean in {wins}/10 seeds (need >=7), "
               f"median relative improvement {median_rel:+.3f} (>0), "
               f"{elapsed:.0f}s (<600s)", ok)


def test_criterion_7_outlier_ratio_robustness():
    ratios = [0.25, 0.5, 1.0, 2.0]
    wins = 0
    for seed in range(10):
        d_l, d_ul, source = make_ratio_sweep_benchmark(500 + seed)
        cfg = PipelineConfig(
            k_models=5, search_space=SearchSpace(n_trials=100), master_seed=seed
        )
        rows, _ = sweep_outlier_ratio(d_l, d_ul, source, cfg, ratios)
        bokv_drop = rows[0][1] - rows[-1][1]
        base_drop = rows[0][2] - rows[-1][2]
        wins += bokv_drop <= base_drop
    ok = wins >= 7
    _report(7, f"ensemble score decrease <= base-mean decrease "
               f"(ratio 0.25 to 2.0) in {wins}/10 seeds (need >=7)", ok)


def test_criterion_8_cli_determinism(tmp_path):
    d_l, d_ul, source = make_benchmark(seed=1, o=6, novel=2, rows=20)
    labeled = str(tmp_path / "labeled.jsonl")
    unlabeled = str(tmp_path / "unlabeled.jsonl")
    src = str(tmp_path / "source.jsonl")
    config = str(tmp_path / "config.json")
    save_jsonl(d_l, labeled)
    save_jsonl(d_ul, unlabeled)
    save_jsonl(source, src)
    with open(config, "w") as fh:
        json.dump({"k_models": 2, "search_space": {"n_trials": 25}}, fh)
    args = ["ensemble", "--labeled", labeled, "--unlabeled", unlabeled,
            "--outlier-source", src, "--config", config, "--seed", "11"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(args + ["--out", out1]) == 0
    assert cli_main(args + ["--out", out2]) == 0
    identical = all(
        open(os.path.join(out1, name), "rb").read()
        == open(os.path.join(out2, name), "rb").read()
        for name in ("partition.jsonl", "report.json")
    )
    _report(8, "ensemble rerun with the same seed produced byte-identical "
               "partition and report files", identical)


def test_criterion_9_hyperparameter_ranges():
    space = SearchSpace()
    ok = True
    for i in range(1000):
        p = sample_params(space, substream(0, "trial", i))
        if not (0.0 < p.max_eps < 0.5 and 0.0 < p.xi < 0.5 and 2 <= p.min_samples <= 20):
            ok = False
            break
    _report(9, "1000 sampled triples satisfy max_eps in (0,0.5), "
               "xi in (0,0.5), min_samples in [2,20]", ok)
