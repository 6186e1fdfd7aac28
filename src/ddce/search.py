"""Random search over OPTICS hyperparameters, scored on a held-out split
with injected outliers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics, optics
from .embed import EmbeddingMatrix
from .errors import DdceError
from .util import atomic_write_text, csv_text, substream


@dataclass(frozen=True)
class SearchSpace:
    max_eps_range: tuple[float, float] = (0.0, 0.5)
    xi_range: tuple[float, float] = (0.0, 0.5)
    min_samples_range: tuple[int, int] = (2, 20)
    n_trials: int = 100

    def __post_init__(self):
        if not np.nextafter(*self.max_eps_range) < self.max_eps_range[1]:
            raise DdceError(f"empty max_eps range {self.max_eps_range}: no float strictly inside")
        if not np.nextafter(*self.xi_range) < self.xi_range[1]:
            raise DdceError(f"empty xi range {self.xi_range}: no float strictly inside")
        if not (self.max_eps_range[0] >= 0.0 and self.max_eps_range[1] < np.inf):
            raise DdceError(f"max_eps_range must be finite and >= 0, got {self.max_eps_range}")
        if not (self.xi_range[0] >= 0.0 and self.xi_range[1] <= 1.0):
            raise DdceError(f"xi_range must lie within [0, 1], got {self.xi_range}")
        if self.min_samples_range[0] > self.min_samples_range[1]:
            raise DdceError(f"empty min_samples range {self.min_samples_range}")
        if self.min_samples_range[0] < 2:
            raise DdceError("min_samples must be >= 2")
        if self.min_samples_range[1] >= 2**63:  # the sampler draws int64
            raise DdceError(f"min_samples_range must end below 2**63, got {self.min_samples_range}")
        if self.n_trials < 1:
            raise DdceError(f"n_trials must be >= 1, got {self.n_trials}")


@dataclass(frozen=True)
class Trial:
    index: int
    params: optics.OpticsParams
    scores: metrics.Scores


@dataclass(frozen=True)
class SearchResult:
    best_params: optics.OpticsParams
    best_scores: metrics.Scores
    trials: list[Trial] = field(default_factory=list)


def _open_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    # rng.uniform samples [lo, hi) but can round up to hi; reject both
    # endpoints so the result lies strictly inside the open interval.
    value = rng.uniform(lo, hi)
    while not lo < value < hi:
        value = rng.uniform(lo, hi)
    return float(value)


def sample_params(space: SearchSpace, rng: np.random.Generator) -> optics.OpticsParams:
    """One uniform draw from the space: reals on open intervals, the
    min-samples count on its inclusive integer interval."""
    max_eps = _open_uniform(rng, *space.max_eps_range)
    xi = _open_uniform(rng, *space.xi_range)
    lo, hi = space.min_samples_range
    min_samples = int(rng.integers(lo, hi + 1))
    return optics.OpticsParams(max_eps=max_eps, xi=xi, min_samples=min_samples)


def random_search(
    e_hs: EmbeddingMatrix,
    truth,
    space: SearchSpace,
    s_min: int,
    seed: int,
    metric: str = "cosine",
) -> SearchResult:
    """Run ``space.n_trials`` independent trials of sample/cluster/score and
    keep the highest-scoring parameters (earliest trial on ties).

    Each trial draws from its own stream derived from (seed, trial index),
    so results do not depend on evaluation order. The neighbourhood
    structure, at the largest max_eps the space can draw, and the
    ground-truth labels are shared across trials since the embeddings and
    the validation rows never change.
    """
    truth_ids = [r.id for r in truth.rows]
    if e_hs.row_ids != truth_ids:
        raise DdceError("embedding rows are not aligned with the validation rows")
    truth_labels = metrics.ground_truth_labels(truth, e_hs.row_ids)
    nbrs = optics.pairwise_distances(e_hs.data, metric, space.max_eps_range[1])
    trials = []
    for t in range(space.n_trials):
        params = sample_params(space, substream(seed, "trial", t))
        part = optics.cluster_with_distances(nbrs, e_hs.row_ids, params, s_min)
        trials.append(Trial(t, params, metrics.score_against(truth_labels, part)))
    best = max(trials, key=lambda trial: trial.scores.score)  # first maximum: earliest on ties
    return SearchResult(best_params=best.params, best_scores=best.scores, trials=trials)


def trials_to_csv(result: SearchResult) -> str:
    header = ["trial_idx", "max_eps", "xi", "min_samples", "score_c", "score_ari", "score"]
    return csv_text(header, ([t.index, t.params.max_eps, t.params.xi, t.params.min_samples,
                              t.scores.score_c, t.scores.score_ari, t.scores.score]
                             for t in result.trials))


def save_trial_log(result: SearchResult, path: str) -> None:
    atomic_write_text(path, trials_to_csv(result))
