"""Command-line entry point.

Subcommands cover the full surface: synthetic data generation, outlier
injection, base-model training, single-model clustering, the full
ensemble, the K-means baseline, scoring, and the three sweep harnesses.
All randomness flows from one --seed; outputs land under --out and are
written atomically. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import __version__, corpus, embed, experiments, metrics, optics, pipeline
from .errors import DdceError
from .util import atomic_write_text, parse_json, read_text, substream, utf8_encodable


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=False) + "\n"


_INPUT_FLAGS = ("data", "source", "labeled", "unlabeled", "outlier_source", "embeddings")
# Parsed entries that the manifest holds elsewhere, or that are not flags.
_NOT_SETTINGS = frozenset(_INPUT_FLAGS) | {"out", "config", "seed", "command", "func", "sweep"}


def _json_value(value):
    """A parsed flag value as JSON; a non-finite float, which JSON cannot
    hold, becomes its text ("inf", "nan")."""
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_manifest(args, seed: int) -> None:
    """Record what is about to run, before any computation. The input
    paths are the subcommand's file flags that are set, in _INPUT_FLAGS
    order; the settings are its other flags, in parser order."""
    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "config_path": getattr(args, "config", None),
        "input_paths": [p for p in (getattr(args, f, None) for f in _INPUT_FLAGS) if p],
        "output_dir": args.out,
        "master_seed": seed,
        "settings": {k: _json_value(v) for k, v in vars(args).items() if k not in _NOT_SETTINGS},
    }
    atomic_write_text(os.path.join(args.out, "manifest.json"), _json_dumps(manifest))


def _load_inputs(args):
    """The shared start of the pipeline commands: load the config and
    apply --seed, write the manifest, then read the inputs in flag order.
    Returns (cfg, labeled, unlabeled, outlier source, embeddings); an
    input the subcommand has no flag for, or no --embeddings, is None."""
    obj = parse_json(read_text(args.config), args.config) if args.config else {}
    cfg = pipeline.config_from_dict(obj)
    if args.seed is not None:
        cfg.master_seed = args.seed
    _write_manifest(args, cfg.master_seed)
    if args.max_per_intent < 0:
        raise DdceError(f"--max-per-intent must be >= 0, got {args.max_per_intent}")
    d_l = corpus.load_labeled_jsonl(args.labeled)
    if args.max_per_intent:
        d_l = corpus.cap_per_intent(d_l, args.max_per_intent, substream(cfg.master_seed, "cap"))
    # An empty path is still a path to read: test for the flag, not the value.
    d_ul, source = (corpus.load_unlabeled_jsonl(getattr(args, f)) if hasattr(args, f) else None
                    for f in ("unlabeled", "outlier_source"))
    path = getattr(args, "embeddings", None)
    return cfg, d_l, d_ul, source, embed.load_precomputed(path) if path else None


def _cmd_synth(args) -> int:
    _write_manifest(args, args.seed)
    dataset, oracle = corpus.generate_synthetic(
        n_intents=args.intents,
        rows_per_intent=args.per_intent,
        dim=args.dim,
        blob_sigma=args.sigma,
        rng=substream(args.seed, "synth"),
        label_prefix=args.prefix,
    )
    # The vectors go first: a matrix that EMB1 cannot hold fails before
    # either file is written.
    embed.save_embeddings(oracle, os.path.join(args.out, "oracle.emb1"))
    corpus.save_jsonl(dataset, os.path.join(args.out, "labeled.jsonl"))
    print(f"wrote {len(dataset.rows)} rows across {dataset.O} intents to {args.out}")
    return 0


def _cmd_inject(args) -> int:
    _write_manifest(args, args.seed)
    target = corpus.load_unlabeled_jsonl(args.data)
    source = corpus.load_unlabeled_jsonl(args.source)
    injected = corpus.inject_outliers(target, source, args.ratio, substream(args.seed, "inject"))
    corpus.save_jsonl(injected, os.path.join(args.out, "injected.jsonl"))
    print(f"injected {len(injected.rows) - len(target.rows)} outliers into {len(target.rows)} rows")
    return 0


def _cmd_train(args) -> int:
    cfg, d_l, _, source, matrix = _load_inputs(args)
    artifacts = pipeline.train_base_models(d_l, source, cfg, embeddings=matrix)
    payload = {
        "tool_version": __version__,
        "config": pipeline.to_dict(cfg),
        "models": [pipeline.to_dict(a) for a in artifacts],
    }
    atomic_write_text(os.path.join(args.out, "artifacts.json"), _json_dumps(payload))
    recalls = [round(a.val_scores.score_c, 4) for a in artifacts]
    print(f"trained {len(artifacts)} base models; validation recalls {recalls}")
    return 0


def _cmd_cluster(args) -> int:
    _write_manifest(args, 0)
    matrix = embed.load_precomputed(args.embeddings)
    params = optics.OpticsParams(max_eps=args.max_eps, xi=args.xi, min_samples=args.min_samples)
    part = optics.cluster(matrix, params, args.s_min, args.metric)
    optics.save_partition_jsonl(part, os.path.join(args.out, "partition.jsonl"))
    n_out = int((part.labels == -1).sum())
    print(f"{part.cluster_count()} clusters, {n_out} outliers over {part.n} samples")
    return 0


def _cmd_ensemble(args) -> int:
    cfg, d_l, d_ul, source, matrix = _load_inputs(args)
    report = pipeline.run_ddce(d_l, d_ul, source, cfg, embeddings=matrix)
    partition_path = os.path.join(args.out, "partition.jsonl")
    optics.save_partition_jsonl(report.consensus_partition, partition_path)
    payload = pipeline.report_to_dict(report, cfg)
    payload["partition_path"] = "partition.jsonl"
    atomic_write_text(os.path.join(args.out, "report.json"), _json_dumps(payload))
    print(f"ensemble finished in {report.elapsed_seconds:.2f}s", file=sys.stderr)
    if report.consensus_test_scores is not None:
        print(report.consensus_test_scores.to_json())
    else:
        print(f"{report.consensus_partition.cluster_count()} consensus clusters")
    return 0


def _cmd_baseline(args) -> int:
    cfg, d_l, d_ul, _, matrix = _load_inputs(args)
    part = experiments.kmeans_baseline(d_l, d_ul, cfg, embeddings=matrix)
    optics.save_partition_jsonl(part, os.path.join(args.out, "partition.jsonl"))
    if metrics.has_ground_truth(d_ul):
        scores = metrics.score(d_ul, part)
        atomic_write_text(os.path.join(args.out, "scores.json"), scores.to_json() + "\n")
        print(scores.to_json())
    else:
        print(f"{part.cluster_count()} clusters over {part.n} samples")
    return 0


def _cmd_evaluate(args) -> int:
    truth = corpus.load_unlabeled_jsonl(args.truth)
    pred = optics.load_partition_jsonl(args.pred)
    print(metrics.score(truth, pred).to_json())
    return 0


class _Sweep(NamedTuple):  # one sweep subcommand
    run: Callable
    values_flag: str
    element: type
    reps: int | None  # default --reps; None when the sweep takes no reps
    csv_name: str
    help: str
    values_help: str


SWEEPS = {
    "sweep-alpha": _Sweep(
        experiments.sweep_alpha, "--alphas", float, 3, "alpha_sweep.csv",
        "score vs split ratio for a single base model", "comma-separated ratios"),
    "sweep-outliers": _Sweep(
        experiments.sweep_outlier_ratio, "--ratios", float, None, "outlier_sweep.csv",
        "ensemble vs base scores across outlier ratios injected into the --unlabeled set",
        "comma-separated ratios"),
    "sweep-size": _Sweep(
        experiments.sweep_training_size, "--o-values", int, 5, "size_sweep.csv",
        "relative ensemble improvement vs labeled intent count", "comma-separated intent counts"),
}


def _value_list(element: type):
    """argparse type of a comma-separated ``element`` list; a bad value is a usage error."""
    def parse(text: str) -> list:
        return [element(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {element.__name__}"
    return parse


def _cmd_sweep(args) -> int:
    cfg, d_l, d_ul, source, _ = _load_inputs(args)
    reps = () if args.sweep.reps is None else (args.reps,)
    _, csv_text = args.sweep.run(d_l, d_ul, source, cfg, args.values, *reps)
    atomic_write_text(os.path.join(args.out, args.sweep.csv_name), csv_text)
    print(csv_text, end="")
    return 0


def _add_common(sub, *inputs: str, embeddings=False):
    """The flags of the pipeline commands: --labeled and the other input
    files named in ``inputs``, then --config, --seed, --out, --embeddings
    when asked for, and --max-per-intent."""
    for flag in ("--labeled", *inputs):
        sub.add_argument(flag, required=True)
    sub.add_argument("--config", help="JSON config mirroring the pipeline settings")
    sub.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sub.add_argument("--out", required=True, help="output directory")
    if embeddings:
        sub.add_argument("--embeddings", help="EMB1 file of precomputed vectors "
                                              "(bypasses the built-in encoder)")
    sub.add_argument("--max-per-intent", type=int, default=50,
                     help="cap rows per intent at load time; 0 disables (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddce",
        description="Density-based deep clustering ensemble for intent induction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--intents", type=int, required=True)
    p.add_argument("--per-intent", type=int, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--prefix", default="intent")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("inject", help="inject outliers from a source dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inject)

    p = subs.add_parser("train", help="train the K base clustering models")
    _add_common(p, "--outlier-source", embeddings=True)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("cluster", help="single-model density clustering of an EMB1 file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--max-eps", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--min-samples", type=int, required=True)
    p.add_argument("--s-min", type=int, default=2)
    p.add_argument("--metric", choices=list(optics.METRICS), default="cosine")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = subs.add_parser("ensemble", help="full pipeline: train, cluster, consensus")
    _add_common(p, "--unlabeled", "--outlier-source", embeddings=True)
    p.set_defaults(func=_cmd_ensemble)

    p = subs.add_parser("baseline-kmeans", help="centroid baseline with inflated cluster count")
    _add_common(p, "--unlabeled", embeddings=True)
    p.set_defaults(func=_cmd_baseline)

    p = subs.add_parser("evaluate", help="score a partition against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=_cmd_evaluate)

    for name, sweep in SWEEPS.items():
        p = subs.add_parser(name, help=sweep.help)
        _add_common(p, "--unlabeled", "--outlier-source")
        p.add_argument(sweep.values_flag, dest="values", required=True,
                       type=_value_list(sweep.element), help=sweep.values_help)
        if sweep.reps is not None:
            p.add_argument("--reps", type=int, default=sweep.reps)
        p.set_defaults(func=_cmd_sweep, sweep=sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    # A byte that is not UTF-8 reaches argv as a lone surrogate, which the
    # manifest and every output could not hold.
    for name, value in vars(args).items():
        if isinstance(value, str) and not utf8_encodable(value):
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} is not valid UTF-8: {value!r}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (DdceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
