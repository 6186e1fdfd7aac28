"""Tests of the benchmark itself: deterministic inputs, the output checks
and the tracer's handling of missing entry points.

Run from the repository root: python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _generate(tmp_path: Path, workload: str, seed: int, name: str) -> dict:
    out = tmp_path / name
    subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _generate(tmp_path, workload, 7, "a")
    assert first == _generate(tmp_path, workload, 7, "b")
    other = _generate(tmp_path, workload, 8, "c")
    assert first.keys() == other.keys()
    assert first != other


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_inputs_have_the_stated_size(tmp_path, workload):
    w = gen.WORKLOADS[workload]
    gen.generate(workload, 3, str(tmp_path))
    assert len(run._expected_ids(workload, tmp_path)) == w.rows
    if w.embeddings:
        from ddce.embed import load_precomputed

        emb = load_precomputed(str(tmp_path / "vectors.emb1"))
        assert emb.d == gen.DIM
        assert set(run._expected_ids(workload, tmp_path)) <= set(emb.row_ids)


def _write_partition(out: Path, rows) -> None:
    out.mkdir()
    (out / "partition.jsonl").write_text(
        "".join(f'{{"id": "{i}", "cluster": {c}}}\n' for i, c in rows), encoding="utf-8")


def test_check_outputs_flags_order_and_small_clusters(tmp_path):
    _write_partition(tmp_path / "ok", [("a", 0), ("b", 0), ("c", -1)])
    assert run.check_outputs(tmp_path / "ok", ["a", "b", "c"]) == []
    assert run.check_outputs(tmp_path / "ok", ["b", "a", "c"]) == [
        "partition ids differ from the input ids"]
    _write_partition(tmp_path / "small", [("a", 0), ("b", 1), ("c", 1)])
    assert run.check_outputs(tmp_path / "small", ["a", "b", "c"]) == [
        "clusters smaller than 2: [0]"]


def test_tracer_reports_missing_entry_points_and_keeps_results():
    from ddce import optics
    from ddce.embed import EmbeddingMatrix

    rng = np.random.default_rng(0)
    x = EmbeddingMatrix(data=np.vstack([rng.normal(0, 0.05, (20, 3)) + 1.0,
                                        rng.normal(0, 0.05, (20, 3)) - 1.0]),
                        row_ids=[str(i) for i in range(40)])
    params = optics.OpticsParams(max_eps=0.5, xi=0.05, min_samples=5)
    expected = optics.cluster(x, params, 2)

    entry_points = {
        "optics": {"cluster": "optics.ordering", "compute_ordering": "optics.ordering",
                   "pairwise_distances": "optics.distances",
                   "no_such_function": "optics.xi"},
        "no_such_module": {"f": "corpus.load"},
    }
    tracer = Tracer(entry_points=entry_points)
    tracer.install()
    try:
        got = optics.cluster(x, params, 2)
    finally:
        tracer.uninstall()
    assert not hasattr(optics.cluster, "__wrapped__")
    assert np.array_equal(got.labels, expected.labels)

    report = tracer.report(wall_s=10.0)
    assert sorted(report["absent_entry_points"]) == ["no_such_module.f", "optics.no_such_function"]
    assert "optics.xi_s" in report["absent_metrics"]  # its only entry point is missing
    groups = report["groups"]
    assert groups["optics.ordering"]["calls"] == 1  # cluster -> compute_ordering counts once
    assert groups["optics.distances"]["counters"] == {"n_max": 40}
    metrics = report["metrics"]
    assert metrics["optics.ordering_calls"][0] == 1
    assert "corpus.load_s" in report["absent_metrics"]
    assert metrics["corpus.load_s"][0] == 0
    assert "search.random_search_s" in report["absent_metrics"]
    self_total = sum(g["self_s"] for g in groups.values())
    assert metrics["unattributed_s"][0] == pytest.approx(10.0 - self_total)
