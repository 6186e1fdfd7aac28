"""Deterministic input generation for the benchmark workloads.

Inputs are written with numpy and the standard library only, so a change
to the program under test can never change what it is benchmarked on.
The same workload and seed always give byte-identical files.

Text rows follow the token scheme of ``ddce synth``: an intent marker
twice, two fillers from a shared pool and one of five per-intent variant
tokens. The marker, filler and variant words are drawn from the seed.
Vectors are unit-sphere intent centers plus Gaussian noise of scale
``SIGMA``; every outlier row gets its own random direction.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

ROWS_PER_INTENT = 30
TEST_OUTLIER_RATIO = 0.5
DIM = 16
# Measured at 0.25 (the `ddce synth` default of 0.2 was not measured): the
# intents overlap, oracle vectors score 0.0-0.05 and HGPA alone takes about
# 2 minutes. At 0.05 every workload gives a meaningful partition (score
# above 0.9).
SIGMA = 0.05
N_FILLERS = 13
N_VARIANTS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "ensemble" or "cluster"
    labeled_intents: int
    novel_intents: int
    embeddings: bool
    config: dict | None = None  # ensemble config file contents
    cluster_args: tuple[str, ...] = ()

    @property
    def rows(self) -> int:
        """Rows the CLI call partitions: novel rows plus injected outliers."""
        novel = self.novel_intents * ROWS_PER_INTENT
        return novel + round(TEST_OUTLIER_RATIO * novel)

    @property
    def source_rows(self) -> int:
        """Outlier-source size: twice the largest validation-side injection
        (half the labeled intents, times the outlier ratio)."""
        return self.labeled_intents * ROWS_PER_INTENT


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's default path: built-in encoder, K=5, 100 trials, BOKV.
        Workload("ensemble-text", "ensemble", labeled_intents=40, novel_intents=10,
                 embeddings=False, config={}),
        # Encoder bypassed, CHM consensus over 1800 rows. 40 labeled intents:
        # with 20, the validation side was too small for the chosen OPTICS
        # parameters to carry over, some base models over-split the test
        # set on about 1 seed in 12, and HGPA then took 2-4 times as long.
        Workload("ensemble-emb-chm", "ensemble", labeled_intents=40, novel_intents=40,
                 embeddings=True,
                 config={"consensus_fn": "CHM", "search_space": {"n_trials": 20}}),
        # One OPTICS pass at large n: no search, encoder or consensus.
        Workload("cluster-large", "cluster", labeled_intents=0, novel_intents=150,
                 embeddings=True,
                 cluster_args=("--max-eps", "0.1", "--xi", "0.05", "--min-samples", "10")),
    )
}


def _words(rng: np.random.Generator, n: int, prefix: str) -> list[str]:
    """n distinct seed-dependent tokens."""
    letters = rng.integers(0, 26, size=(n, 5))
    return [prefix + "".join(chr(97 + c) for c in row) + str(i) for i, row in enumerate(letters)]


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, DIM))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _intent_rows(rng, fillers, n_intents: int, tag: str):
    """Rows and vectors for ``n_intents`` intents of ROWS_PER_INTENT rows."""
    markers = _words(rng, n_intents, tag)
    variants = _words(rng, n_intents * N_VARIANTS, tag + "v")
    centers = _unit(rng, n_intents)
    rows, vecs = [], []
    for i in range(n_intents):
        noise = SIGMA * rng.normal(size=(ROWS_PER_INTENT, DIM))
        for j in range(ROWS_PER_INTENT):
            tokens = [markers[i], markers[i], fillers[(i + j) % N_FILLERS],
                      fillers[(2 * j + 1) % N_FILLERS], variants[i * N_VARIANTS + j % N_VARIANTS]]
            rows.append({"id": f"{tag}{i:03d}-{j:02d}", "text": " ".join(tokens),
                         "intent": markers[i]})
            vecs.append(centers[i] + noise[j])
    return rows, vecs


def _outlier_rows(rng, fillers, n: int, tag: str, flagged: bool):
    """``n`` one-off utterances, each with its own tokens and direction."""
    markers = _words(rng, n, tag)
    variants = _words(rng, n, tag + "v")
    rows = []
    for k in range(n):
        tokens = [markers[k], markers[k], fillers[k % N_FILLERS],
                  fillers[(2 * k + 1) % N_FILLERS], variants[k]]
        row = {"id": f"{tag}{k:04d}", "text": " ".join(tokens), "intent": None}
        if flagged:
            row["outlier"] = True
        rows.append(row)
    return rows, list(_unit(rng, n))


def _write_jsonl(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows))


def _write_emb1(path: str, ids: list[str], vecs) -> None:
    """EMB1: magic, u32-LE rows, u32-LE dim, u16-LE-prefixed UTF-8 ids,
    then the row-major little-endian float32 matrix."""
    parts = [b"EMB1", struct.pack("<II", len(ids), DIM)]
    for rid in ids:
        raw = rid.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw]
    parts.append(np.asarray(vecs, dtype="<f4").reshape(len(ids), DIM).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def generate(name: str, seed: int, out_dir: str) -> None:
    """Write the inputs of workload ``name`` for ``seed`` into ``out_dir``.

    ensemble: labeled.jsonl, unlabeled.jsonl (hidden truth, shuffled),
    source.jsonl (outlier source), config.json, and vectors.emb1 covering
    every id when the workload uses embeddings. cluster: vectors.emb1 and
    truth.jsonl, the same rows in the same order.
    """
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    fillers = _words(rng, N_FILLERS, "f")
    labeled, labeled_v = _intent_rows(rng, fillers, w.labeled_intents, "l")
    novel, novel_v = _intent_rows(rng, fillers, w.novel_intents, "n")
    test_out, test_out_v = _outlier_rows(rng, fillers, w.rows - len(novel), "t", flagged=True)
    source, source_v = _outlier_rows(rng, fillers, w.source_rows, "s", flagged=False)
    perm = rng.permutation(w.rows)
    unl_rows = novel + test_out
    unl_vecs = novel_v + test_out_v
    unlabeled = [unl_rows[i] for i in perm]
    unlabeled_v = [unl_vecs[i] for i in perm]

    if w.command == "cluster":
        _write_jsonl(os.path.join(out_dir, "truth.jsonl"), unlabeled)
        _write_emb1(os.path.join(out_dir, "vectors.emb1"), [r["id"] for r in unlabeled], unlabeled_v)
        return
    _write_jsonl(os.path.join(out_dir, "labeled.jsonl"), labeled)
    _write_jsonl(os.path.join(out_dir, "unlabeled.jsonl"), unlabeled)
    _write_jsonl(os.path.join(out_dir, "source.jsonl"), source)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(w.config, sort_keys=True) + "\n")
    if w.embeddings:
        rows = labeled + unlabeled + source
        _write_emb1(os.path.join(out_dir, "vectors.emb1"), [r["id"] for r in rows],
                    labeled_v + unlabeled_v + source_v)


def cli_argv(name: str, seed: int, in_dir: str, out_dir: str) -> list[str]:
    """Arguments to ``ddce.cli.main`` for one call of the workload."""
    w = WORKLOADS[name]
    if w.command == "cluster":
        return ["cluster", "--embeddings", os.path.join(in_dir, "vectors.emb1"),
                *w.cluster_args, "--out", out_dir]
    argv = ["ensemble",
            "--labeled", os.path.join(in_dir, "labeled.jsonl"),
            "--unlabeled", os.path.join(in_dir, "unlabeled.jsonl"),
            "--outlier-source", os.path.join(in_dir, "source.jsonl"),
            "--config", os.path.join(in_dir, "config.json"),
            "--seed", str(seed), "--out", out_dir]
    if w.embeddings:
        argv += ["--embeddings", os.path.join(in_dir, "vectors.emb1")]
    return argv


def truth_path(name: str, in_dir: str) -> str:
    """The file holding the ground truth of the partitioned rows, in order."""
    base = "truth.jsonl" if WORKLOADS[name].command == "cluster" else "unlabeled.jsonl"
    return os.path.join(in_dir, base)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
