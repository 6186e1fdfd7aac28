"""Consensus functions over K aligned base partitions.

Three label-correspondence-free combiners (co-association CSPA, hypergraph
HGPA, meta-clustering MCLA), their agreement-maximizing selector, best-of-K
selection by mutual information, and best-of-K with per-sample outlier
voting gated on the base models' validation recall.

The classic hypergraph partitioners are replaced by deterministic,
dependency-free stand-ins: average-linkage agglomeration (CSPA, MCLA) and
a greedy balanced min-hyperedge-cut (HGPA). Ties always break toward the
smallest index. All three combiners read one hyperedge incidence matrix H,
``PartitionSet.incidence``, with a row per sample and a 0/1 column per
non-outlier base cluster. It is built once per ensemble from
``PartitionSet.labels``, the K x n matrix of base labels that BOK and BOKV
read directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DdceError
from .metrics import nmi_labels
from .optics import Partition, canonicalize_labels
from .util import round_half_up, substream

HGPA_RESTARTS = 8  # seeded descents per HGPA call; the lowest cut wins


@dataclass(frozen=True)
class PartitionSet:
    """K aligned partitions plus each base model's validation recall. The
    label matrix and the hyperedge incidence matrix H are built once per
    ensemble, on first use, and shared by every consensus function."""

    partitions: list[Partition]
    val_recalls: list[float] | None = None

    def __post_init__(self):
        if not self.partitions:
            raise DdceError("PartitionSet needs at least one partition")
        ids = self.partitions[0].ids
        for p in self.partitions[1:]:
            if p.ids != ids:
                raise DdceError("base partitions are not aligned on ids")
        if self.val_recalls is not None and len(self.val_recalls) != len(self.partitions):
            raise DdceError(
                f"{len(self.val_recalls)} recalls for {len(self.partitions)} partitions"
            )

    @property
    def k(self) -> int:
        return len(self.partitions)

    @property
    def n(self) -> int:
        return self.partitions[0].n

    @property
    def ids(self) -> list[str]:
        return self.partitions[0].ids

    @cached_property
    def labels(self) -> np.ndarray:
        """K x n int matrix whose row i is partition i's labels."""
        return np.vstack([p.labels for p in self.partitions])

    @cached_property
    def incidence(self) -> np.ndarray:
        """Hyperedge incidence matrix H: n x m floats, H[i, e] = 1 when
        sample i is in cluster e, one column per non-outlier cluster in
        (partition, label value) order. Products of H hold exact integer
        counts."""
        columns = [lab[:, None] == np.unique(lab[lab != -1]) for lab in self.labels]
        return np.hstack(columns).astype(float)


def k_target(ts: PartitionSet) -> int:
    """Consensus cluster count: median of the base partitions' non-outlier
    cluster counts, halves rounded up, never below 1."""
    median = float(np.median([p.cluster_count() for p in ts.partitions]))
    return max(1, round_half_up(median))


def average_linkage_labels(D: np.ndarray, k: int) -> np.ndarray:
    """Agglomerative clustering with average linkage on a precomputed
    distance matrix, cut at k clusters. Merge ties take the smallest
    (row, column) pair; output labels are numbered by first appearance.

    Each row r caches its minimum ``nd[r]`` and the first column holding
    it, ``nn[r]`` (the nearest-neighbour caching of Müllner 2011, "Modern
    hierarchical, agglomerative clustering algorithms"). The first row
    holding the smallest ``nd`` and its ``nn`` are then exactly the pair
    an argmin over the whole matrix takes, so each merge costs O(n) plus
    the rows rescanned, not O(n^2).

    A merge of i < j rewrites row and column i, fills row and column j
    with inf and leaves every other entry alone. Row i is rescanned. In
    any other row r, with v the new value in column i, every column
    before ``nn[r]`` held more than ``nd[r]`` and none held less:
    - v < nd[r]: column i is the new first minimum.
    - v == nd[r]: the minimum is unchanged. Column i takes it when
      i < nn[r], which covers ``nn[r] == j``; when ``nn[r] == i`` the
      cache already names it.
    - v > nd[r]: if ``nn[r]`` is neither i nor j, that column still
      holds the minimum and comes first. Otherwise the minimum may have
      risen, and only these rows are rescanned, one row at a time so
      that no block of the matrix is copied.
    """
    n = D.shape[0]
    k = max(1, min(k, n))
    gd = np.array(D, dtype=float)
    np.fill_diagonal(gd, np.inf)
    sizes = np.ones(n)
    group_of = np.arange(n)
    nn = gd.argmin(axis=1) if n else np.empty(0, dtype=np.intp)
    nd = gd[np.arange(n), nn]
    for _ in range(n - k):
        i = int(nd.argmin())
        j = int(nn[i])
        if i > j:
            i, j = j, i
        wi, wj = sizes[i], sizes[j]
        merged = (wi * gd[i] + wj * gd[j]) / (wi + wj)  # inf at i and j
        gd[i, :] = merged
        gd[:, i] = merged
        gd[i, i] = np.inf
        gd[j, :] = np.inf
        gd[:, j] = np.inf
        sizes[i] = wi + wj
        group_of[group_of == j] = i
        stale = ((nn == i) | (nn == j)) & (merged > nd)
        take = (merged < nd) | ((merged == nd) & (i < nn))
        nd[take] = merged[take]
        nn[take] = i
        nd[j] = np.inf
        stale[[i, j]] = False
        for r in (i, *np.flatnonzero(stale).tolist()):
            nn[r] = gd[r].argmin()
            nd[r] = gd[r, nn[r]]
    return canonicalize_labels(group_of)


def cspa(ts: PartitionSet) -> Partition:
    """Cluster-based similarity partitioning: average-linkage consensus on
    the co-association matrix. Samples co-clustered with nobody in any
    model (every cluster holding them is a singleton) become outliers."""
    H = ts.incidence
    rest = np.flatnonzero(H[:, H.sum(axis=0) > 1].any(axis=1))
    shared = H[rest]
    labels = np.full(ts.n, -1, dtype=int)
    # rest ascends and its labels are numbered by first appearance, so labels is canonical.
    labels[rest] = average_linkage_labels(1.0 - shared @ shared.T / ts.k, k_target(ts))
    return Partition(labels=labels, ids=ts.ids)


def _hgpa_descend(H, k, part) -> int:
    """Best-improvement single-vertex moves until no move reduces the cut;
    mutates ``part`` in place and returns the final cut, the number of
    hyperedges whose members fall in more than one part.

    With c the edge-by-part member counts and P(e) the number of parts
    edge e touches, moving v from part s to d changes the cut by
    #{e ∋ v : P(e) = 1, |e| > 1} - #{e ∋ v : P(e) = 2, c[e, s] = 1, c[e, d] > 0},
    so every move is scored at once as an n x k array. Moves the balance
    rule forbids (a part leaving one of n / k) score 0; the first strictly
    best move in (vertex, part) order is taken.
    """
    n = len(part)
    counts = H.T @ (part[:, None] == np.arange(k))
    sizes = np.bincount(part, minlength=k)
    target = n / k
    shared = H.sum(axis=0) > 1  # edges with more than one member
    while True:
        spans = np.count_nonzero(counts, axis=1)
        whole = (spans == 1) & shared
        lone = (spans == 2)[:, None] & (counts == 1)
        delta = (H @ whole)[:, None] - (H * lone[:, part].T) @ (counts > 0)
        can_leave = np.abs(sizes[part] - 1 - target) <= 1
        allowed = can_leave[:, None] & (np.abs(sizes + 1 - target) <= 1)
        allowed[np.arange(n), part] = False
        delta[~allowed] = 0
        v, dst = divmod(int(np.argmin(delta)), k)
        if delta[v, dst] >= 0:
            return int(np.count_nonzero(spans > 1))
        src = part[v]
        counts[:, src] -= H[v]
        counts[:, dst] += H[v]
        sizes[src] -= 1
        sizes[dst] += 1
        part[v] = dst


def hgpa(ts: PartitionSet, seed: int = 0, k: int | None = None) -> Partition:
    """Hypergraph partitioning consensus: greedy balanced minimum
    hyperedge cut into k parts (the consensus cluster count by default).

    Each restart draws a random balanced assignment from a stream derived
    from the seed, then applies best-improvement single-vertex moves
    (keeping every part within one of n / k) until no move reduces the
    number of cut hyperedges; the lowest-cut restart wins, earliest on
    ties. Purely greedy descent can stall on symmetric mixes, hence the
    restarts. A move's change in cut has a closed form on the incidence
    matrix: +1 for each uncut edge of the vertex with another member, -1
    for each edge spanning two parts where the vertex is alone on its side
    and the target is the other part.
    """
    if k is not None and k < 1:
        raise DdceError(f"hgpa needs k >= 1, got {k}")
    n = ts.n
    if n == 0:
        return Partition(labels=np.empty(0, dtype=int), ids=ts.ids)
    k = min(k_target(ts) if k is None else k, n)
    H = ts.incidence
    best_part = None
    best_cut = None
    for r in range(HGPA_RESTARTS):
        part = np.empty(n, dtype=int)
        part[substream(seed, "hgpa", r).permutation(n)] = np.arange(n) % k
        cut = _hgpa_descend(H, k, part)
        if best_cut is None or cut < best_cut:
            best_part, best_cut = part, cut
        if best_cut == 0:
            break
    return Partition(labels=canonicalize_labels(best_part), ids=ts.ids)


def mcla(ts: PartitionSet) -> Partition:
    """Meta-clustering consensus: group the clusters themselves by Jaccard
    similarity into k_target meta-clusters, then give each sample the
    meta-cluster holding the largest fraction of its K labels."""
    H = ts.incidence
    labels = np.full(ts.n, -1, dtype=int)
    m = H.shape[1]
    if m == 0:
        return Partition(labels=labels, ids=ts.ids)
    inter = H.T @ H
    size = np.diag(inter)
    jd = 1.0 - inter / (size[:, None] + size[None, :] - inter)
    meta = average_linkage_labels(jd, min(k_target(ts), m))
    assoc = H @ (meta[:, None] == np.arange(int(meta.max()) + 1)) / ts.k
    has_any = assoc.sum(axis=1) > 0.0
    labels[has_any] = np.argmax(assoc[has_any], axis=1)
    return Partition(labels=canonicalize_labels(labels), ids=ts.ids)


def _most_agreeing(candidates, base: np.ndarray) -> tuple[int, list[float]]:
    """Index of the candidate labeling with the highest total NMI with the
    rows of ``base`` (the first on ties), and every candidate's total."""
    sums = [float(sum(nmi_labels(c, b) for b in base)) for c in candidates]
    return int(np.argmax(sums)), sums


def chm_with_details(ts: PartitionSet, seed: int = 0) -> tuple[Partition, dict]:
    names = ("CSPA", "HGPA", "MCLA")
    candidates = [cspa(ts), hgpa(ts, seed=seed), mcla(ts)]
    idx, sums = _most_agreeing([c.labels for c in candidates], ts.labels)
    return candidates[idx], {
        "candidate_nmi_sums": dict(zip(names, sums)), "chosen_candidate": names[idx],
    }


def chm(ts: PartitionSet, seed: int = 0) -> Partition:
    """Run all three combiners and return the one agreeing most with the
    base partitions (ties prefer CSPA, then HGPA, then MCLA)."""
    return chm_with_details(ts, seed=seed)[0]


def bok_with_details(ts: PartitionSet) -> tuple[Partition, dict]:
    idx, sums = _most_agreeing(ts.labels, ts.labels)
    return ts.partitions[idx], {"winner_index": idx, "nmi_sums": sums}


def bok(ts: PartitionSet) -> Partition:
    """Best of K: the base partition with the highest total agreement with
    all base partitions (lowest model index on ties)."""
    return bok_with_details(ts)[0]


def outlier_vote(ts: PartitionSet) -> np.ndarray:
    """Per-sample majority vote on outlier status as a bool mask: a sample
    is voted outlier when strictly more than half the models label it -1."""
    return np.count_nonzero(ts.labels == -1, axis=0) * 2 > ts.k


def bokv_with_details(ts: PartitionSet) -> tuple[Partition, dict]:
    if ts.val_recalls is None:
        raise DdceError("bokv requires the base models' validation recalls")
    gate_open = sum(1 for r in ts.val_recalls if r > 0.5) * 2 > ts.k
    n_voted_outliers = None
    if not gate_open:
        part, best = bok_with_details(ts)
    else:
        voted_out = outlier_vote(ts)
        n_voted_outliers = int(np.count_nonzero(voted_out))
        if voted_out.all():
            part = Partition(labels=np.full(ts.n, -1), ids=ts.ids)
            best = {"winner_index": None, "nmi_sums": None}
        else:
            kept = ts.labels[:, ~voted_out]
            idx, sums = _most_agreeing(kept, kept)
            part = Partition(labels=np.where(voted_out, -1, ts.labels[idx]), ids=ts.ids)
            best = {"winner_index": idx, "nmi_sums": sums}
    return part, {
        "gate_open": gate_open, "degraded_to_bok": not gate_open, **best,
        "n_voted_outliers": n_voted_outliers,
    }


def bokv(ts: PartitionSet) -> Partition:
    """Best of K with outlier voting. When more than half the base models
    clear 0.5 validation recall, outlier status is decided by majority
    vote and the best base partition (by agreement restricted to voted
    non-outliers) labels the rest; otherwise falls back to plain best-of-K.
    """
    return bokv_with_details(ts)[0]


# Name -> (ts, seed) -> (partition, details). The lambdas look the functions
# up when called, so a wrapper installed on a module attribute sees the call.
_DISPATCH = {
    "CHM": lambda ts, seed: chm_with_details(ts, seed=seed),
    "BOK": lambda ts, seed: bok_with_details(ts),
    "BOKV": lambda ts, seed: bokv_with_details(ts),
}
CONSENSUS_FUNCTIONS = tuple(_DISPATCH)


def run_consensus(name: str, ts: PartitionSet, seed: int = 0) -> tuple[Partition, dict]:
    """Dispatch by consensus function name, returning the partition and a
    diagnostics dict for reporting."""
    if name not in _DISPATCH:
        raise DdceError(f"unknown consensus function {name!r}, expected one of {CONSENSUS_FUNCTIONS}")
    return _DISPATCH[name](ts, seed)
