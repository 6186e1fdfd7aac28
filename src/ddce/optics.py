"""Density-based clustering: OPTICS reachability ordering, xi-cluster
extraction from the reachability plot, and the minimum-cluster-size
outlier rule.

All tie-breaking is deterministic (smallest index wins) so ensemble runs
are exactly reproducible. Neighbor search builds the ε-neighbourhood
exactly: a blocked float32 matrix product over the upper triangle picks
the candidate pairs, with a margin from the floating-point error bound,
and only those are evaluated in float64 by the exact per-pair expression,
each pair once; the distance is symmetric to the last bit, so it is
mirrored into the other row. Only the pairs within max_eps are kept, so
memory scales with their number, not with n².
The ordering loop closes a start with no core distance as a block of its
own, without scanning for the next point. The intended scale is thousands
of points, not millions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingMatrix, normalize_rows
from .errors import DdceError
from .util import atomic_write_text, read_jsonl

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
        if not 2 <= self.min_samples < 2**63:  # offsets into the int64 rows
            raise DdceError(f"min_samples must be in [2, 2**63), got {self.min_samples}")


@dataclass(frozen=True)
class ReachabilityOrdering:
    """OPTICS output: a processing order plus per-sample reachability and
    core distance (inf where undefined)."""

    order: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray
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


# A block of rows holds at most this many float32 approximations (1 MB).
_BLOCK_ELEMENTS = 2**18
# A chunk of candidate pairs gathers at most this many float64 values
# (256 kB), so that the gather, product and sum stay in cache.
_GATHER_ELEMENTS = 2**15
_U = 2.0**-53  # float64 unit roundoff
_U32 = 2.0**-24  # float32 unit roundoff
_ETA32 = 2.0**-150  # half the smallest float32 subnormal


def _gamma32(m: int) -> float:
    """Higham's γ_m = m·u / (1 - m·u) for float32's u, the relative error
    bound of an m-term float32 sum; inf once m·u reaches 1."""
    mu = m * _U32
    return mu / (1.0 - mu) if mu < 1.0 else np.inf


def _float32_beyond(v: float, toward: float) -> np.float32:
    """A float32 strictly past ``v`` in the direction of ``toward`` (±inf):
    the nearest float32 is within half a step of v, so one more step
    clears it."""
    with np.errstate(over="ignore"):
        return np.nextafter(np.float32(v), np.float32(toward))


def _exact_distances(
    x: np.ndarray, i: np.ndarray, j: np.ndarray, cosine: bool, e: int
) -> np.ndarray:
    """d(i[p], j[p]) for each pair p, by the per-row expression on the rows
    :func:`pairwise_distances` prepares: normalized for cosine, and for
    euclidean scaled by 2^-e, each distance then scaled back by 2^e. A
    row's reduction does not depend on the other rows in the array, so each
    value is bitwise what a full row of the distance matrix holds."""
    out = np.empty(len(i))
    step = max(1, _GATHER_ELEMENTS // max(x.shape[1], 1))
    for s in range(0, len(i), step):
        xi = np.take(x, i[s:s + step], axis=0)
        xj = np.take(x, j[s:s + step], axis=0)
        if cosine:
            out[s:s + step] = np.maximum(0.0, 1.0 - (xj * xi).sum(axis=1))
        else:
            with np.errstate(over="ignore"):  # a distance beyond float64's range is inf
                out[s:s + step] = np.ldexp(np.sqrt(((xj - xi) ** 2).sum(axis=1)), e)
    return out


def _pairs_within(
    x: np.ndarray, x32: np.ndarray, a: int, b: int, radius: float, sq32: np.ndarray | None,
    bound: np.float32, cosine: bool, e: int, upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j) within ``radius`` with a <= i < b and i < j, in
    (i, j) order: their rows and columns as int32, and their distances.
    The candidates are the pairs whose float32 approximation is at least
    ``bound`` for cosine and not above it for euclidean: see
    :func:`pairwise_distances`. ``upper`` is True above the diagonal of a
    square at least b - a wide: a mask made once per call saves a new one
    per block."""
    approx = x32[a:b] @ x32[a:].T
    if cosine:
        near = approx >= bound
    else:
        approx *= -2.0
        approx += sq32[a:b, None]
        approx += sq32[a:]
        near = ~(approx > bound)
    del approx  # freed before the candidates are evaluated, to lower the peak
    near[:, :b - a] &= upper[:b - a, :b - a]  # columns [a, b): keep j > i only
    r, c = np.divmod(np.flatnonzero(near), len(x) - a)
    i, j = r + a, c + a
    dist = _exact_distances(x, i, j, cosine, e)
    kept = dist <= radius
    return i[kept].astype(np.int32), j[kept].astype(np.int32), dist[kept]


def pairwise_distances(x: np.ndarray, metric: str, radius: float = np.inf) -> Neighbourhood:
    """The pairs of rows of ``x`` within ``radius``. Cosine is 1 - dot of
    L2-normalized rows (clamped at 0, self-distance 0); euclidean is the
    usual norm.

    The distances are taken on the L2-normalized rows for cosine, and for
    euclidean on the rows scaled by 2^-e, e the binary exponent of
    max|x|, each distance then scaled back by 2^e. That scaling is exact
    (short of float64 underflow) and keeps every |x_k| < 1, so no square
    overflows and float32 cannot, and the distances of x·2^k are those of
    x times 2^k, bit for bit. The rows so prepared are cast to float32
    once. The pairs are found in blocks of ``2**18 // n`` rows, so that
    one block's float32 values take 1 MB. For each block [a, b) one
    float32 matrix product approximates the columns [a, n): the dot
    product for cosine, and |x|² + |y|² - 2 x·y, the scaled squared
    distance, for euclidean. The block's leading square is masked on and
    below its diagonal, so each pair (i, j), i < j, is seen once, from row
    i. Only the pairs that the approximation cannot rule out are
    evaluated, in float64, with the exact per-row expression. Row j gets
    a mirror entry of each pair (i, j) kept: products commute and
    x - y = -(y - x) exactly, so every term, and the sum taken in the same
    order, is equal, and evaluating the pair from row j would give the
    same bytes. Each row lists its mirror entries by i, then itself at
    0.0, then its own pairs by j, so its columns increase; one stable
    lexsort per block by (row, distance) then leaves equal distances in
    index order. Memory scales with the number of pairs within
    ``radius``, not n².

    The filter never drops a pair the exact expression keeps. Let
    u = 2^-53 and u32 = 2^-24 be the float64 and float32 unit roundoffs,
    γ_m = m·u32 / (1 - m·u32), and η = 2^-150, half the smallest float32
    subnormal. Under gradual underflow the float32 error has three terms:
    input rounding, |fl32(v) - v| <= u32·|v| + η per element; the product,
    where a length-d dot summed in any order, BLAS and fused
    multiply-adds included, is within γ_d·Σ|a_k b_k| of the exact one
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    §3.1); and subnormals, η more per product that underflows. The float64
    exact expression errs by d·u relative, far below one more u32, plus
    2^-1075 per product. Rounding to nearest is monotone, so a computed
    value below a real bound stays below any float above it.

    - Cosine, radius r, M the largest squared norm of a row of xn, every
      |xn_k| < 1.25 (a square that reaches the subnormals rounds to at
      least 2/3 of itself, or to 0 below half the norm's). A kept pair has
      fl(1 - s) <= r, so the exact dot s* >= 1 - r(1 + u) - d·u·M - d·2^-1075.
      The cast rows' exact dot is within (2u32 + u32²)·M + 2.5d·η of s*,
      and their float32 product s' within γ_d(1 + u32)²·M + d·η more, so
      s' >= 1 - r(1 + u) - γ_{d+3}·M - 5d·η. The candidates are the pairs
      with s' >= t, t the float32 strictly below
      1 - r(1 + 8u) - γ_{d+4}·M - 8(d + 1)·η: the spare u's, γ index and
      η's cover the float64 rounding of t and of M.
    - Euclidean, rows scaled by 2^-e: D the distance of a pair of scaled
      rows, S its two squared norms summed, and r the scaled radius. The
      computed sum q is within relative (d + 2)·u of D², less 2^-1075 per
      square that underflows. A kept pair has fl(√q)·2^e <= radius, where
      the product rounds only below 2^-1022, and only when e < 0, by at
      most 2^-1075, which adds less than 2^(-2095 - 2e) to the square; so
      D² <= r²(1 + u32) + d·2^-1075 + 2^(-2043 - 2e), whose last term also
      covers the float64 rounding of the bound. The cast rows b have
      |b_i - b_j|² <= D² + 4.01·u32·S + 9d·η. The approximation takes the
      squared norms of b in float64, where products of float32 values are
      exact, lowered by the factor 1 - c, c = γ_{d+14}. Its float32
      product, the norms' rounding and its two additions add at most
      γ_{d+8}·S_b + 3d·η to |b_i - b_j|², S_b the squared norms of b, and
      the lowering takes c·S_b off. As S_b >= (1 - u32)²·S - 4d·η, the
      approximation is at most D² + 13d·η. The candidates are the pairs
      whose approximation is at most the float32 strictly above
      r²(1 + 2u32) + 2^(-2043 - 2e) + 16(d + 1)·η, whose η terms also
      cover d·2^-1075; NaN counts as one.

    At radius infinity every pair is a candidate, and so it is when γ is
    infinite, at d >= 2^24 - 14. A looser bound only costs time; a
    tighter one could drop pairs at the radius.
    """
    if metric not in METRICS:
        raise DdceError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if not radius >= 0:  # every row holds itself
        raise DdceError(f"radius must be >= 0, got {radius}")
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    cosine = metric == "cosine"
    # The bound's float64 arithmetic may overflow to inf, which only
    # widens the filter.
    if cosine:
        e = 0  # unused: normalized rows need no scaling
        x = normalize_rows(x)
        x32 = x.astype(np.float32)
        sq32 = None
        largest = (x * x).sum(axis=1).max(initial=0.0)
        with np.errstate(over="ignore"):
            gap = radius * (1 + 8 * _U) + 8 * (dim + 1) * _ETA32
        if largest > 0:  # all-zero rows have an exact dot of 0
            gap += _gamma32(dim + 4) * largest
        bound = _float32_beyond(1.0 - gap, -np.inf)
    else:
        e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
        x = np.ldexp(x, -e)
        x32 = x.astype(np.float32)
        sq = np.square(x32, dtype=float).sum(axis=1) * (1.0 - _gamma32(dim + 14))
        sq32 = sq.astype(np.float32)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(radius, -e)
            limit = scaled * scaled * (1 + 2 * _U32) + np.ldexp(1.0, -2043 - 2 * e)
        bound = _float32_beyond(limit + 16 * (dim + 1) * _ETA32, np.inf)
    block = max(1, _BLOCK_ELEMENTS // max(n, 1))
    upper = ~np.tri(min(block, n), dtype=bool)
    # Rows and columns stay int32, half the bytes of intp, until they are
    # written out: an O(n²) build never sees 2**31 rows. When n is 0 the
    # one empty block gives each concatenation a part.
    parts = [
        _pairs_within(x, x32, a, min(a + block, n), radius, sq32, bound, cosine, e, upper)
        for a in range(0, max(n, 1), block)
    ]
    del x, x32, sq32  # freed before the structure is assembled, to lower the peak
    rows, cols, dists = (np.concatenate([p[k] for p in parts]) for k in range(3))
    del parts
    # Each pair (i, j) also lies in row j, at column i < j. One argsort of
    # the unique keys j·n + i puts these mirror entries in (j, i) order,
    # and row j lists them, then itself, then its own pairs: its columns
    # increase.
    key = cols.astype(np.int64)
    key *= n
    key += rows
    mirror = key.argsort()
    del key
    own_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    mirror_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    indptr = own_ptr + mirror_ptr + np.arange(n + 1)
    indices = np.empty(indptr[-1], dtype=np.intp)
    distances = np.empty(indptr[-1])
    diagonal, zeros = np.arange(n, dtype=np.int32), np.zeros(min(block, n))
    for a in range(0, n, block):
        b = min(a + block, n)
        m = mirror[mirror_ptr[a]:mirror_ptr[b]]
        own = slice(own_ptr[a], own_ptr[b])
        # Rows relative to the block are below min(block, n) <= 2**9, and
        # lexsort orders 16-bit keys faster.
        r = (np.concatenate((cols[m], diagonal[a:b], rows[own])) - a).astype(np.uint16)
        c = np.concatenate((rows[m], diagonal[a:b], cols[own]))
        d = np.concatenate((dists[m], zeros[:b - a], dists[own]))
        # lexsort is stable, so equal distances stay in column order.
        order = np.lexsort((d, r))
        indices[indptr[a]:indptr[b]] = c[order]
        distances[indptr[a]:indptr[b]] = d[order]
    return Neighbourhood(indptr=indptr, indices=indices, distances=distances, radius=radius)


def compute_ordering(
    nbrs: Neighbourhood, ids: list[str], params: OpticsParams
) -> ReachabilityOrdering:
    """Standard OPTICS on the neighbourhood structure: expand from each
    unprocessed point (index order), repeatedly processing the unreached
    point with the smallest tentative reachability, ties broken by
    smallest index. ``nbrs.radius`` must be at least ``params.max_eps``,
    and each row must hold the point itself and be sorted by (distance,
    index), as :func:`pairwise_distances` builds it.

    A start with no core distance relaxes nothing, so it is closed as a
    block of its own before any scan for the next point."""
    if params.max_eps > nbrs.radius:
        raise DdceError(f"max_eps {params.max_eps} exceeds the neighbourhood radius {nbrs.radius}")
    n = nbrs.shape[0]
    indptr, indices, distances = nbrs.indptr, nbrs.indices, nbrs.distances
    starts = indptr[:-1]
    # Rows are in distance order, so the neighbors within max_eps are a
    # prefix of each row: it ends at the row's first entry beyond max_eps.
    beyond = np.append(np.flatnonzero(distances > params.max_eps), len(distances))
    ends = np.minimum(beyond[np.searchsorted(beyond, starts)], indptr[1:])
    # Core distance counts the point itself among its neighbors: it is the
    # min_samples-th entry of the prefix, and there is none when the prefix
    # is shorter.
    k = params.min_samples
    has_core = ends - starts >= k
    core = np.full(n, np.inf)
    core[has_core] = distances[starts[has_core] + k - 1]

    reach = np.full(n, np.inf)
    inf = np.inf
    core_list = core.tolist()
    lo_list = starts.tolist()
    hi_list = ends.tolist()
    # Tentative reachability of the open points (inf elsewhere), and the
    # best reachability so far of each point, -inf once processed so that
    # no candidate improves on it. An open point's tentative reachability
    # is max(core, d) <= max_eps, so it is finite: a smallest value of inf
    # means that no point is open.
    open_reach = np.full(n, inf)
    best = np.full(n, inf)
    order = []
    for start in range(n):
        if best[start] == -inf:
            continue
        if core_list[start] == inf:
            # Nothing is open between blocks, and a point without a core
            # distance relaxes nothing: it is a block of its own.
            best[start] = -inf
            order.append(start)
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
                better = cand < best[nb]
                upd = nb[better]
                val = cand[better]
                open_reach[upd] = val
                best[upd] = val
            # Smallest tentative reachability, ties to the smallest index.
            current = int(open_reach.argmin())
            if open_reach[current] == inf:
                break
            open_reach[current] = inf
    return ReachabilityOrdering(order=np.array(order, dtype=int), reachability=reach,
                                core_distance=core, ids=list(ids))


def _extend_region(steep: list, xward: list, start: int, min_samples: int) -> int:
    """Grow a steep area from ``start``: ends at the last steep point before
    either a point moving the wrong way or more than min_samples
    consecutive flat points."""
    end = start
    non_xward = 0
    for index in range(start, len(steep)):
        if steep[index]:
            non_xward = 0
            end = index
        elif xward[index]:
            break
        else:
            non_xward += 1
            if non_xward > min_samples:
                break
    return end


def _xi_candidate_clusters(r: np.ndarray, xi: float, min_samples: int) -> list[tuple[int, int]]:
    """Candidate cluster intervals (inclusive, in ordering positions) from
    the reachability plot, per the steep up/down area construction."""
    xi_complement = 1.0 - xi
    r = np.hstack([r, np.inf])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = r[:-1] / r[1:]
    steep_up = ratio <= xi_complement
    steep_down = ratio >= 1.0 / xi_complement
    steep_points = np.flatnonzero(steep_up | steep_down).tolist()
    upward, downward = (ratio < 1.0).tolist(), (ratio > 1.0).tolist()
    steep_up, steep_down, r = steep_up.tolist(), steep_down.tolist(), r.tolist()

    clusters: list[tuple[int, int]] = []
    # The open steep-down areas as [start, end, mib], mib being the largest
    # value since the area's end. An area closes once a value since its end
    # exceeds r[start]·(1 - xi), and every area closes at an inf.
    sdas: list[list] = []
    index = 0
    mib = 0.0
    for steep_index in steep_points:
        if steep_index < index:
            continue
        mib = max(mib, max(r[index : steep_index + 1]))
        sdas = [] if mib == np.inf else [sda for sda in sdas if mib <= r[sda[0]] * xi_complement]
        for sda in sdas:
            sda[2] = max(sda[2], mib)
        if steep_down[steep_index]:
            end = _extend_region(steep_down, upward, steep_index, min_samples)
            sdas.append([steep_index, end, 0.0])
        else:
            end = _extend_region(steep_up, downward, steep_index, min_samples)
            right = r[end + 1]
            for d_start, d_end, d_mib in sdas:
                # The filter keeps the valley below the left shoulder; it
                # must also lie below the right one.
                if right * xi_complement < d_mib:
                    continue
                c_start, c_end = d_start, end
                d_max = r[d_start]
                if d_max * xi_complement >= right:
                    # Left shoulder higher: trim the start down to the end's level.
                    while r[c_start + 1] > right and c_start < d_end:
                        c_start += 1
                elif right * xi_complement >= d_max:
                    # Right shoulder higher: trim the end down to the start's level.
                    while r[c_end - 1] > d_max and c_end > steep_index:
                        c_end -= 1
                if c_end - c_start + 1 >= min_samples:
                    clusters.append((c_start, c_end))
        index = end + 1
        mib = r[index]
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
    for lab, (s, e) in enumerate(by_size):
        labels[ordering.order[s : e + 1]] = lab
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
    """One ``{"id": ..., "cluster": ...}`` line per row, the bytes that
    :func:`util.write_jsonl` writes for those objects. The ids go through
    the encoder's string fast path: encoding a dict builds a new C encoder
    on every call."""
    quote = json.JSONEncoder(ensure_ascii=False).encode
    atomic_write_text(path, "".join(
        f'{{"id": {quote(rid)}, "cluster": {lab}}}\n' for rid, lab in zip(p.ids, p.labels.tolist())
    ))


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
