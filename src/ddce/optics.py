"""Density-based clustering: OPTICS reachability ordering, xi-cluster
extraction from the reachability plot, and the minimum-cluster-size
outlier rule.

All tie-breaking is deterministic (smallest index wins) so ensemble runs
are exactly reproducible. Neighbor search is brute force over every pair,
computed once; only the pairs within max_eps are kept, so memory scales
with their number, not with n². The intended scale is thousands of points,
not millions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingMatrix, normalize_rows
from .errors import DdceError
from .util import read_jsonl, write_jsonl

METRICS = ("cosine", "euclidean")


@dataclass(frozen=True)
class OpticsParams:
    max_eps: float
    xi: float
    min_samples: int

    def __post_init__(self):
        if not (np.isfinite(self.max_eps) and self.max_eps > 0):
            raise DdceError(f"max_eps must be finite and > 0, got {self.max_eps}")
        if not 0.0 < self.xi < 1.0:
            raise DdceError(f"xi must be in (0, 1), got {self.xi}")
        if self.min_samples < 2:
            raise DdceError(f"min_samples must be >= 2, got {self.min_samples}")


@dataclass(frozen=True)
class ReachabilityOrdering:
    """OPTICS output: a processing order plus per-sample reachability,
    core distance and predecessor (-1 where undefined)."""

    order: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray
    predecessor: np.ndarray
    ids: list[str]


@dataclass(frozen=True)
class Partition:
    """Per-sample integer cluster labels, held as a 1-D int array; -1
    marks outliers."""

    labels: np.ndarray
    ids: list[str]

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DdceError(f"labels must be 1-D, got shape {labels.shape}")
        if len(labels) != len(self.ids):
            raise DdceError(f"{len(labels)} labels but {len(self.ids)} ids")
        object.__setattr__(self, "labels", labels.astype(int, copy=False))

    @property
    def n(self) -> int:
        return len(self.ids)

    def cluster_count(self) -> int:
        return len(np.unique(self.labels[self.labels != -1]))


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber non-outlier labels to 0..C-1 in order of first appearance."""
    labels = np.asarray(labels)
    out = np.full(len(labels), -1, dtype=int)
    kept = labels != -1
    _, first, inverse = np.unique(labels[kept], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    out[kept] = rank[inverse]
    return out


@dataclass(frozen=True)
class Neighbourhood:
    """Every pair within ``radius``, as CSR rows: row i is
    ``indices[indptr[i]:indptr[i + 1]]`` with the matching ``distances``,
    holding each j with d(i, j) <= radius (i itself at 0.0), ordered by
    (distance, index)."""

    indptr: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    radius: float

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return (n, n)


def pairwise_distances(x: np.ndarray, metric: str, radius: float = np.inf) -> Neighbourhood:
    """The pairs of rows of ``x`` within ``radius``. Cosine is 1 - dot of
    L2-normalized rows (clamped at 0, self-distance 0); euclidean is the
    usual norm.

    Row i computes only the columns j > i; d(j, i) is the same value,
    bitwise, so it is mirrored into row j rather than computed again.
    Memory scales with the number of pairs within ``radius``, not n².
    """
    if metric not in METRICS:
        raise DdceError(f"unknown metric {metric!r}, expected one of {METRICS}")
    n = x.shape[0]
    if metric == "cosine":
        xn = normalize_rows(x)
    upper = []  # row i: (columns j > i within radius, their distances)
    row_len = np.ones(n, dtype=np.intp)  # i itself
    for i in range(n):
        if metric == "cosine":
            d = np.maximum(0.0, 1.0 - (xn[i + 1:] * xn[i]).sum(axis=1))
        else:
            d = np.sqrt(((x[i + 1:] - x[i]) ** 2).sum(axis=1))
        keep = np.flatnonzero(d <= radius)
        cols = keep + (i + 1)
        upper.append((cols, d[keep]))
        row_len[i] += len(cols)
        row_len[cols] += 1
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    indices = np.empty(indptr[-1], dtype=np.intp)
    distances = np.empty(indptr[-1])
    # Next free slot of each row's part j < i. Rows are filled in index
    # order, so that part arrives in index order and row i is complete
    # once its own columns j > i are written.
    fill = indptr[:-1].copy()
    for i in range(n):
        cols, d = upper[i]
        upper[i] = None
        start, mid, end = indptr[i], fill[i], indptr[i + 1]
        indices[mid] = i
        distances[mid] = 0.0
        indices[mid + 1:end] = cols
        distances[mid + 1:end] = d
        at = fill[cols]
        indices[at] = i
        distances[at] = d
        fill[cols] += 1
        by_distance = np.argsort(distances[start:end], kind="stable")
        indices[start:end] = indices[start:end][by_distance]
        distances[start:end] = distances[start:end][by_distance]
    return Neighbourhood(indptr=indptr, indices=indices, distances=distances, radius=radius)


def compute_ordering(
    nbrs: Neighbourhood, ids: list[str], params: OpticsParams
) -> ReachabilityOrdering:
    """Standard OPTICS on the neighbourhood structure: expand from each
    unprocessed point (index order), repeatedly processing the unreached
    point with the smallest tentative reachability, ties broken by
    smallest index. ``nbrs.radius`` must be at least ``params.max_eps``."""
    if params.max_eps > nbrs.radius:
        raise DdceError(f"max_eps {params.max_eps} exceeds the neighbourhood radius {nbrs.radius}")
    n = nbrs.shape[0]
    indptr, indices, distances = nbrs.indptr, nbrs.indices, nbrs.distances
    starts = indptr[:-1]
    # Core distance counts the point itself among its neighbors. A row with
    # fewer than min_samples entries has its min_samples-th neighbor beyond
    # the radius, so beyond max_eps: no core distance.
    k = params.min_samples
    has_k = indptr[1:] - starts >= k
    kth = np.full(n, np.inf)
    kth[has_k] = distances[starts[has_k] + (k - 1)]
    core = np.where(kth <= params.max_eps, kth, np.inf)
    # Rows are in distance order, so the neighbors within max_eps are a
    # prefix of each row: it ends at the row's first entry beyond max_eps.
    beyond = np.append(np.flatnonzero(distances > params.max_eps), len(distances))
    ends = np.minimum(beyond[np.searchsorted(beyond, starts)], indptr[1:])

    reach = np.empty(n)
    pred = np.full(n, -1, dtype=int)
    inf = np.inf
    core_list = core.tolist()
    lo_list = starts.tolist()
    hi_list = ends.tolist()
    # Tentative reachability of the open points (inf elsewhere), the number
    # of them, and the best reachability so far of each point, -inf once
    # processed so that no candidate improves on it.
    open_reach = np.full(n, inf)
    n_open = 0
    best = np.full(n, inf)
    order = []
    for start in range(n):
        if best[start] == -inf:
            continue
        current = start
        while True:
            reach[current] = best[current]
            best[current] = -inf
            order.append(current)
            c = core_list[current]
            if c != inf:
                lo, hi = lo_list[current], hi_list[current]
                nb = indices[lo:hi]
                cand = np.maximum(c, distances[lo:hi])
                old = best[nb]
                better = cand < old
                # cand is finite, so every unreached neighbor improves.
                n_open += int(np.count_nonzero(old == inf))
                upd = nb[better]
                val = cand[better]
                open_reach[upd] = val
                best[upd] = val
                pred[upd] = current
            if n_open == 0:
                break
            # Smallest tentative reachability, ties to the smallest index.
            current = int(open_reach.argmin())
            open_reach[current] = inf
            n_open -= 1
    return ReachabilityOrdering(
        order=np.array(order, dtype=int), reachability=reach, core_distance=core,
        predecessor=pred, ids=list(ids),
    )


def _extend_region(steep: np.ndarray, xward: np.ndarray, start: int, min_samples: int) -> int:
    """Grow a steep area from ``start``: ends at the last steep point before
    either a point moving the wrong way or more than min_samples
    consecutive flat points."""
    n = len(steep)
    index = start
    end = start
    non_xward = 0
    while index < n:
        if steep[index]:
            non_xward = 0
            end = index
        elif not xward[index]:
            non_xward += 1
            if non_xward > min_samples:
                break
        else:
            return end
        index += 1
    return end


def _filter_sdas(r: np.ndarray, sdas: list[dict], mib: float, xi_complement: float) -> list[dict]:
    if np.isinf(mib):
        return []
    kept = [sda for sda in sdas if mib <= r[sda["start"]] * xi_complement]
    for sda in kept:
        sda["mib"] = max(sda["mib"], mib)
    return kept


def _xi_candidate_clusters(r: np.ndarray, xi: float, min_samples: int) -> list[tuple[int, int]]:
    """Candidate cluster intervals (inclusive, in ordering positions) from
    the reachability plot, per the steep up/down area construction."""
    xi_complement = 1.0 - xi
    r = np.hstack([r, np.inf])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = r[:-1] / r[1:]
        steep_up = ratio <= xi_complement
        steep_down = ratio >= 1.0 / xi_complement
        upward = ratio < 1.0
        downward = ratio > 1.0

    clusters: list[tuple[int, int]] = []
    sdas: list[dict] = []
    index = 0
    mib = 0.0
    for steep_index in np.flatnonzero(steep_up | steep_down):
        steep_index = int(steep_index)
        if steep_index < index:
            continue
        mib = max(mib, float(np.max(r[index : steep_index + 1])))
        if steep_down[steep_index]:
            sdas = _filter_sdas(r, sdas, mib, xi_complement)
            d_start = steep_index
            d_end = _extend_region(steep_down, upward, d_start, min_samples)
            sdas.append({"start": d_start, "end": d_end, "mib": 0.0})
            index = d_end + 1
            mib = float(r[index])
        else:
            sdas = _filter_sdas(r, sdas, mib, xi_complement)
            u_start = steep_index
            u_end = _extend_region(steep_up, downward, u_start, min_samples)
            index = u_end + 1
            mib = float(r[index])
            for sda in sdas:
                c_start = sda["start"]
                c_end = u_end
                # Cluster must dip below both of its shoulders.
                if r[c_end + 1] * xi_complement < sda["mib"]:
                    continue
                d_max = r[sda["start"]]
                if d_max * xi_complement >= r[c_end + 1]:
                    # Left shoulder higher: trim the start down to the end's level.
                    while r[c_start + 1] > r[c_end + 1] and c_start < sda["end"]:
                        c_start += 1
                elif r[c_end + 1] * xi_complement >= d_max:
                    # Right shoulder higher: trim the end down to the start's level.
                    while r[c_end - 1] > d_max and c_end > u_start:
                        c_end -= 1
                if c_end - c_start + 1 < min_samples:
                    continue
                if c_start > sda["end"]:
                    continue
                if c_end < u_start:
                    continue
                clusters.append((c_start, c_end))
    return clusters


def extract_xi_clusters(ordering: ReachabilityOrdering, xi: float, min_samples: int) -> Partition:
    """Extract clusters as valleys between steep-down and steep-up areas of
    the reachability plot. Each point is assigned to the smallest candidate
    interval containing it; points in no candidate become outliers."""
    if not 0.0 < xi < 1.0:
        raise DdceError(f"xi must be in (0, 1), got {xi}")
    n = len(ordering.order)
    labels = np.full(n, -1, dtype=int)
    r = ordering.reachability[ordering.order]
    cands = _xi_candidate_clusters(r, xi, min_samples)
    by_size = sorted(cands, key=lambda c: c[1] - c[0], reverse=True)
    pos_labels = np.full(n, -1, dtype=int)
    for lab, (s, e) in enumerate(by_size):
        pos_labels[s : e + 1] = lab
    labels[ordering.order] = pos_labels
    return Partition(labels=canonicalize_labels(labels), ids=list(ordering.ids))


def filter_small_clusters(p: Partition, s_min: int) -> Partition:
    """Relabel every cluster smaller than ``s_min`` as outliers and
    renumber the survivors by first appearance."""
    if s_min < 1:
        raise DdceError(f"s_min must be >= 1, got {s_min}")
    labels = p.labels.copy()
    values, counts = np.unique(labels[labels != -1], return_counts=True)
    labels[np.isin(labels, values[counts < s_min])] = -1
    return Partition(labels=canonicalize_labels(labels), ids=list(p.ids))


def cluster(
    x: EmbeddingMatrix, params: OpticsParams, s_min: int, metric: str = "cosine"
) -> Partition:
    """Full density clustering pass: ordering, xi extraction, small-cluster
    outlier filtering."""
    nbrs = pairwise_distances(x.data, metric, params.max_eps)
    return cluster_with_distances(nbrs, x.row_ids, params, s_min)


def cluster_with_distances(
    nbrs: Neighbourhood, ids: list[str], params: OpticsParams, s_min: int
) -> Partition:
    """As :func:`cluster` but on a precomputed neighbourhood structure of
    radius >= ``params.max_eps``; lets a hyperparameter search, or several
    models clustering the same rows, share one."""
    ordering = compute_ordering(nbrs, ids, params)
    extracted = extract_xi_clusters(ordering, params.xi, params.min_samples)
    return filter_small_clusters(extracted, s_min)


def save_partition_jsonl(p: Partition, path: str) -> None:
    write_jsonl(path, ({"id": rid, "cluster": int(lab)} for rid, lab in zip(p.ids, p.labels)))


def load_partition_jsonl(path: str) -> Partition:
    rows: dict[str, int] = {}  # id -> label, in file order
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict) or not {"id", "cluster"} <= obj.keys():
            raise DdceError(f"{path}:{lineno}: expected an object with id and cluster")
        if not isinstance(obj["id"], str):
            raise DdceError(f"{path}:{lineno}: id must be a string, got {obj['id']!r}")
        if obj["id"] in rows:
            raise DdceError(f"{path}:{lineno}: repeated id {obj['id']!r}")
        label = obj["cluster"]
        # A label must fit the int64 array below; -1 is the only negative one.
        if isinstance(label, bool) or not isinstance(label, int) or not -1 <= label < 2**63:
            raise DdceError(f"{path}:{lineno}: cluster must be an integer >= -1, got {label!r}")
        rows[obj["id"]] = label
    return Partition(labels=list(rows.values()), ids=list(rows))
