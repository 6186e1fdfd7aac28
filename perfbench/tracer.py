"""Per-layer tracing of one ddce run, from outside the program.

Each traced entry point is a public function of a ddce module. The
wrapper replaces the function under every name a ddce module holds it by,
so both ``optics.cluster`` and a ``from .search import random_search``
binding in another module are traced. Entry points map to layer groups.
For each group the tracer keeps:

- ``calls`` and ``busy``: outermost calls only, so a group member calling
  another member (``cluster`` -> ``compute_ordering``) counts once;
- ``self``: time inside group members minus time in any wrapped callee;
- counters filled by per-entry-point hooks (rows, trials, matrix size).

An entry point that no longer exists is recorded as absent and its
metrics are reported absent; a hook that fails marks only its counter
absent. Neither changes what the program computes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# module -> {function: layer group}
ENTRY_POINTS = {
    "corpus": {
        "load_labeled_jsonl": "corpus.load",
        "load_unlabeled_jsonl": "corpus.load",
        "split_by_intents": "corpus.split",
        "inner_split": "corpus.split",
        "inject_outliers": "corpus.split",
    },
    "embed": {
        "featurize": "embed.featurize",
        "train_encoder": "embed.train_encoder",
        "encode": "embed.encode",
        "load_precomputed": "embed.load_precomputed",
    },
    "optics": {
        "pairwise_distances": "optics.distances",
        "cluster": "optics.ordering",
        "cluster_with_distances": "optics.ordering",
        "compute_ordering": "optics.ordering",
        "extract_xi_clusters": "optics.xi",
        "filter_small_clusters": "optics.filter",
    },
    "search": {"random_search": "search.random_search"},
    "metrics": {"score": "metrics.score", "nmi": "metrics.nmi", "nmi_labels": "metrics.nmi"},
    "consensus": {
        "run_consensus": "consensus.run",
        "cspa": "consensus.cspa",
        "hgpa": "consensus.hgpa",
        "mcla": "consensus.mcla",
        "bokv_with_details": "consensus.bokv",
        "bokv": "consensus.bokv",
        "k_target": "consensus.k_target",
    },
    "pipeline": {"train_base_models": "pipeline.train_base_models", "infer": "pipeline.infer"},
}


def _hook_distances(counters, args, kwargs, result):
    counters["n_max"] = max(counters.get("n_max", 0), int(result.shape[0]))


def _hook_encode(counters, args, kwargs, result):
    texts = kwargs["texts"] if "texts" in kwargs else args[1]
    counters["rows"] = counters.get("rows", 0) + len(texts)


def _hook_search(counters, args, kwargs, result):
    counters["trials"] = counters.get("trials", 0) + len(result.trials)
    counters["nonzero"] = counters.get("nonzero", 0) + sum(
        1 for t in result.trials if t.scores.score > 0.0
    )


def _hook_k_target(counters, args, kwargs, result):
    counters["value"] = max(counters.get("value", 0), int(result))


HOOKS = {
    "optics.pairwise_distances": (_hook_distances, ("n_max",)),
    "embed.encode": (_hook_encode, ("rows",)),
    "search.random_search": (_hook_search, ("trials", "nonzero")),
    "consensus.k_target": (_hook_k_target, ("value",)),
}


@dataclass
class GroupStats:
    members: int = 0  # installed entry points
    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Wraps ddce entry points; ``install`` then run; ``report`` after."""

    def __init__(self, entry_points: dict | None = None):
        self.entry_points = ENTRY_POINTS if entry_points is None else entry_points
        # Every group the metrics read exists, so one with no installed member reads absent.
        self.groups = {g: GroupStats() for eps in (ENTRY_POINTS, self.entry_points)
                       for fns in eps.values() for g in fns.values()}
        self.absent_entry_points: list[str] = []
        self.absent_counters: set[str] = set()
        self._stack: list[list[float]] = []  # [start, time in wrapped callees]
        self._depth: dict[str, int] = {g: 0 for g in self.groups}
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        importlib.import_module("ddce.cli")  # load every module callers use
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ddce" or n.startswith("ddce."))]
        for mod_name, fns in self.entry_points.items():
            try:
                module = importlib.import_module(f"ddce.{mod_name}")
            except ImportError:
                self.absent_entry_points += [f"{mod_name}.{fn}" for fn in fns]
                continue
            for fn_name, group in fns.items():
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent_entry_points.append(f"{mod_name}.{fn_name}")
                    continue
                self.groups[group].members += 1
                wrapper = self._wrap(original, group, f"{mod_name}.{fn_name}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, group: str, entry: str):
        stats = self.groups[group]
        hook = HOOKS.get(entry)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[group] += 1
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._stack.pop()
                stats.self += elapsed - frame[1]
                self._depth[group] -= 1
                if self._depth[group] == 0:
                    stats.calls += 1
                    stats.busy += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                try:
                    hook[0](stats.counters, args, kwargs, result)
                except Exception:  # a refactored signature loses one counter, not the run
                    self.absent_counters.update(f"{group}.{c}" for c in hook[1])
            return result

        return wrapper

    def report(self, wall_s: float) -> dict:
        """Raw per-group figures plus the derived layer metrics."""
        groups = {
            g: {"members": s.members, "calls": s.calls, "busy_s": s.busy, "self_s": s.self,
                "counters": dict(s.counters)}
            for g, s in self.groups.items()
        }
        metrics, absent = layer_metrics(self, wall_s)
        return {"wall_s": wall_s, "groups": groups, "metrics": metrics, "absent_metrics": absent,
                "absent_entry_points": list(self.absent_entry_points),
                "largest_self": max(self.groups, key=lambda name: self.groups[name].self)}


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics as {name: [value, unit]}, and the names of those
    whose entry points or counters are absent; those read 0."""
    g = tracer.groups
    metrics: dict[str, list] = {}
    absent: list[str] = []

    def put(name, unit, groups, fn, counters=()):
        if any(g[x].members == 0 for x in groups) or any(c in tracer.absent_counters for c in counters):
            absent.append(name)
            metrics[name] = [0, unit]
            return
        metrics[name] = [fn(), unit]

    def ratio(a, b):
        return a / b if b else 0.0

    def count(group, key):
        return g[group].counters.get(key, 0)

    ordering = g["optics.ordering"]
    put("optics.ordering_s", "s", ["optics.ordering"], lambda: ordering.self)
    put("optics.ordering_calls", "count", ["optics.ordering"], lambda: ordering.calls)
    put("optics.ordering_ms_per_call", "ms", ["optics.ordering"],
        lambda: 1000.0 * ratio(ordering.self, ordering.calls))
    put("optics.distances_s", "s", ["optics.distances"], lambda: g["optics.distances"].busy)
    put("optics.distances_calls", "count", ["optics.distances"], lambda: g["optics.distances"].calls)
    put("optics.distances_n_max", "count", ["optics.distances"],
        lambda: count("optics.distances", "n_max"), ["optics.distances.n_max"])
    put("optics.distances_bytes", "bytes", ["optics.distances"],
        lambda: 8 * count("optics.distances", "n_max") ** 2, ["optics.distances.n_max"])
    put("optics.xi_s", "s", ["optics.xi"], lambda: g["optics.xi"].busy)
    put("optics.xi_calls", "count", ["optics.xi"], lambda: g["optics.xi"].calls)
    put("optics.filter_s", "s", ["optics.filter"], lambda: g["optics.filter"].busy)

    search = g["search.random_search"]
    trial_counters = ["search.random_search.trials", "search.random_search.nonzero"]
    put("search.random_search_s", "s", ["search.random_search"], lambda: search.busy)
    put("search.self_s", "s", ["search.random_search"], lambda: search.self)
    put("search.trials", "count", ["search.random_search"],
        lambda: count("search.random_search", "trials"), trial_counters)
    put("search.trials_per_s", "1/s", ["search.random_search"],
        lambda: ratio(count("search.random_search", "trials"), search.busy), trial_counters)
    put("search.nonzero_trial_ratio", "ratio", ["search.random_search"],
        lambda: ratio(count("search.random_search", "nonzero"),
                      count("search.random_search", "trials")), trial_counters)

    put("metrics.score_s", "s", ["metrics.score"], lambda: g["metrics.score"].busy)
    put("metrics.score_calls", "count", ["metrics.score"], lambda: g["metrics.score"].calls)
    put("metrics.nmi_s", "s", ["metrics.nmi"], lambda: g["metrics.nmi"].busy)
    put("metrics.nmi_calls", "count", ["metrics.nmi"], lambda: g["metrics.nmi"].calls)

    put("embed.featurize_s", "s", ["embed.featurize"], lambda: g["embed.featurize"].busy)
    put("embed.train_encoder_s", "s", ["embed.train_encoder"], lambda: g["embed.train_encoder"].busy)
    put("embed.train_encoder_calls", "count", ["embed.train_encoder"],
        lambda: g["embed.train_encoder"].calls)
    put("embed.encode_s", "s", ["embed.encode"], lambda: g["embed.encode"].busy)
    put("embed.encode_rows", "count", ["embed.encode"], lambda: count("embed.encode", "rows"),
        ["embed.encode.rows"])
    put("embed.load_precomputed_s", "s", ["embed.load_precomputed"],
        lambda: g["embed.load_precomputed"].busy)

    for name in ("run", "cspa", "hgpa", "mcla", "bokv"):
        put(f"consensus.{name}_s", "s", [f"consensus.{name}"], lambda n=name: g[f"consensus.{n}"].busy)
    put("consensus.k_target", "count", ["consensus.k_target"],
        lambda: count("consensus.k_target", "value"), ["consensus.k_target.value"])

    put("corpus.load_s", "s", ["corpus.load"], lambda: g["corpus.load"].busy)
    put("corpus.split_s", "s", ["corpus.split"], lambda: g["corpus.split"].busy)
    put("pipeline.train_base_models_s", "s", ["pipeline.train_base_models"],
        lambda: g["pipeline.train_base_models"].busy)
    put("pipeline.infer_s", "s", ["pipeline.infer"], lambda: g["pipeline.infer"].busy)
    metrics["unattributed_s"] = [wall_s - sum(s.self for s in g.values()), "s"]
    return metrics, absent
