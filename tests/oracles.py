"""Independent reference implementations used as test oracles.

Everything here is deliberately written in a different style from the
package code (per-pair distances, linear scans, dict-based counting,
exhaustive enumeration) so that agreement is meaningful evidence.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# Pair-counting adjusted Rand index

def ref_ari(a, b) -> float:
    """ARI from direct agreement counts over all sample pairs."""
    n = len(a)
    assert n >= 2
    both = a_only = b_only = neither = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                both += 1
            elif same_a:
                a_only += 1
            elif same_b:
                b_only += 1
            else:
                neither += 1
    pairs = both + a_only + b_only + neither
    sum_a = both + a_only
    sum_b = both + b_only
    expected = sum_a * sum_b / pairs
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        # Degenerate margins: identical groupings iff no disagreeing pair.
        return 1.0 if (a_only == 0 and b_only == 0) else 0.0
    return (both - expected) / (maximum - expected)


# ---------------------------------------------------------------------------
# Direct entropy-summation NMI

def ref_nmi(a, b) -> float:
    """NMI via explicit joint/marginal counting with dicts."""
    n = len(a)
    ca = Counter(a)
    cb = Counter(b)
    cab = Counter(zip(a, b))
    if len(cab) == len(ca) == len(cb):
        # One-to-one block correspondence: identical groupings.
        return 1.0
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hb = -sum((c / n) * math.log(c / n) for c in cb.values())
    if ha == 0.0 or hb == 0.0:
        return 0.0
    info = sum(
        (c / n) * math.log(c * n / (ca[x] * cb[y])) for (x, y), c in cab.items()
    )
    return info / math.sqrt(ha * hb)


def ref_nmi_sum(a, labelsets) -> float:
    """Total :func:`ref_nmi` of labeling ``a`` with each of ``labelsets``."""
    return sum(ref_nmi(np.asarray(a).tolist(), np.asarray(b).tolist()) for b in labelsets)


# ---------------------------------------------------------------------------
# Quadratic-pass OPTICS reference

def _pair_distance(x, i, j, metric) -> float:
    if metric == "euclidean":
        return float(np.sqrt(np.sum((x[i] - x[j]) ** 2)))
    a, b = x[i], x[j]
    na = np.sqrt(np.sum(a * a))
    nb = np.sqrt(np.sum(b * b))
    ua = a / na if na != 0.0 else a
    ub = b / nb if nb != 0.0 else b
    if i == j:
        return 0.0
    return max(0.0, float(1.0 - np.sum(ua * ub)))


def ref_optics(x, max_eps, min_samples, metric="euclidean"):
    """Textbook OPTICS with a seeds dict and linear minimum scans."""
    n = len(x)
    core = []
    for i in range(n):
        ds = sorted(_pair_distance(x, i, j, metric) for j in range(n))
        cd = ds[min_samples - 1] if min_samples <= n else math.inf
        core.append(cd if cd <= max_eps else math.inf)
    reach = [math.inf] * n
    pred = [-1] * n
    processed = [False] * n
    order = []

    def expand_from(p, seeds):
        if not math.isfinite(core[p]):
            return
        for o in range(n):
            if processed[o]:
                continue
            d = _pair_distance(x, p, o, metric)
            if d > max_eps:
                continue
            new_reach = max(core[p], d)
            if new_reach < reach[o]:
                reach[o] = new_reach
                pred[o] = p
                seeds[o] = new_reach

    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        order.append(start)
        seeds: dict[int, float] = {}
        expand_from(start, seeds)
        while seeds:
            nxt = min(seeds, key=lambda o: (seeds[o], o))
            del seeds[nxt]
            processed[nxt] = True
            order.append(nxt)
            expand_from(nxt, seeds)
    return order, reach, core, pred


# ---------------------------------------------------------------------------
# Pairwise xi-cluster candidates

def ref_xi_clusters(r, xi, min_samples) -> list[tuple[int, int]]:
    """xi candidate clusters (Ankerst et al. 1999, §4.3) as inclusive
    (start, end) ordering positions, from pairs of steep areas rather than
    a running scan.

    The plot gets inf appended. Point i is steep down when r[i] / r[i+1]
    >= 1 / (1 - xi), steep up when it is <= 1 - xi, and moves up or down
    when the ratio is below or above 1; inf / inf and 0 / 0 are NaN, which
    is none of these. One left-to-right walk finds the areas: from a steep
    point, an area takes in the next steep point of its kind when the
    points between them number at most ``min_samples`` and none moves the
    wrong way. The walk resumes after the area.

    A steep-down area D and a later steep-up area U pair up when M, the
    largest value of r[D.end + 1 .. U.start], is finite and at most both
    r[D.start]·(1 - xi) and r[U.end + 1]·(1 - xi). The pair's interval
    runs from D.start to U.end. When r[D.start]·(1 - xi) >= r[U.end + 1],
    its start moves right, up to D.end, while the next value is above
    r[U.end + 1]. Otherwise, when r[U.end + 1]·(1 - xi) >= r[D.start], its
    end moves left, down to U.start, while the previous value is above
    r[D.start]. Intervals shorter than ``min_samples`` are dropped. The
    list goes by U, then by D, both left to right."""
    r = [float(v) for v in r] + [math.inf]
    n = len(r) - 1
    keep = 1.0 - xi

    def ratio(i):
        a, b = r[i], r[i + 1]
        if b == 0.0:
            return math.nan if a == 0.0 else math.inf
        return a / b  # inf / inf is NaN

    ratios = [ratio(i) for i in range(n)]
    kinds = {
        "down": ([q >= 1.0 / keep for q in ratios], [q < 1.0 for q in ratios]),
        "up": ([q <= keep for q in ratios], [q > 1.0 for q in ratios]),
    }

    def area(kind, start):
        steep, wrong_way = kinds[kind]
        end = start
        while True:
            following = [j for j in range(end + 1, n) if steep[j]]
            if not following:
                return end
            between = range(end + 1, following[0])
            if len(between) > min_samples or any(wrong_way[j] for j in between):
                return end
            end = following[0]

    downs, ups = [], []
    i = 0
    while i < n:
        kind = "down" if kinds["down"][0][i] else "up" if kinds["up"][0][i] else None
        if kind is None:
            i += 1
            continue
        end = area(kind, i)
        (downs if kind == "down" else ups).append((i, end))
        i = end + 1

    clusters = []
    for u_start, u_end in ups:
        right = r[u_end + 1]
        for d_start, d_end in downs:
            if d_start > u_start:
                continue
            left = r[d_start]
            m = max(r[d_end + 1 : u_start + 1])
            if not (math.isfinite(m) and m <= left * keep and m <= right * keep):
                continue
            start, end = d_start, u_end
            if left * keep >= right:
                while start < d_end and r[start + 1] > right:
                    start += 1
            elif right * keep >= left:
                while end > u_start and r[end - 1] > left:
                    end -= 1
            if end - start + 1 >= min_samples:
                clusters.append((start, end))
    return clusters


# ---------------------------------------------------------------------------
# First-appearance relabelling

def ref_canonicalize_labels(labels) -> list[int]:
    """Per-element loop: a label other than -1 gets the next free number
    the first time it appears; -1 stays -1."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        out.append(-1 if lab == -1 else mapping.setdefault(lab, len(mapping)))
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration helpers

def partitions_into_k(n: int, k: int):
    """All set partitions of range(n) into exactly k blocks, as label lists
    in restricted-growth form."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            if used == k:
                yield labels.copy()
            return
        for v in range(min(used + 1, k)):
            labels[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(0, 0)


def balanced_splits(n: int, k: int):
    """All assignments of range(n) into k parts with every part size within
    one of n / k. Only supports k == 2, which is all the tests need."""
    assert k == 2
    target = n / 2.0
    for size in range(n + 1):
        if abs(size - target) > 1 or abs((n - size) - target) > 1:
            continue
        for members in combinations(range(n), size):
            labels = [1] * n
            for m in members:
                labels[m] = 0
            yield labels


def ref_hyperedges(labelsets) -> list[list[int]]:
    """Members of every non-outlier cluster of every partition, grouped
    with a dict."""
    edges = []
    for labels in labelsets:
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            if lab != -1:
                groups.setdefault(lab, []).append(i)
        edges.extend(groups.values())
    return edges


def hyperedge_cut_value(edges, labels) -> int:
    cut = 0
    for members in edges:
        parts = {labels[m] for m in members}
        if len(parts) > 1:
            cut += 1
    return cut


def ref_hgpa(labelsets, seed: int = 0, k: int | None = None) -> list[int]:
    """Greedy balanced min-hyperedge-cut from the same eight seeded starts
    as the package, scoring each single-vertex move by recounting the whole
    cut after it. Per descent step the first strictly best move in
    (vertex, part) order is taken; moves leaving a part size more than one
    from n / k are skipped. The lowest-cut restart wins, earliest on ties."""
    from ddce.util import substream

    n = len(labelsets[0])
    if k is None:
        counts = [len({lab for lab in labels if lab != -1}) for labels in labelsets]
        k = max(1, math.floor(float(np.median(counts)) + 0.5))
    k = min(k, n)
    edges = ref_hyperedges(labelsets)
    target = n / k
    best, best_cut = None, None
    for restart in range(8):
        part = [0] * n
        for slot, v in enumerate(substream(seed, "hgpa", restart).permutation(n).tolist()):
            part[v] = slot % k
        while True:
            sizes = Counter(part)
            cut = hyperedge_cut_value(edges, part)
            move = None
            for v in range(n):
                src = part[v]
                for dst in range(k):
                    balanced = abs(sizes[src] - 1 - target) <= 1 and abs(sizes[dst] + 1 - target) <= 1
                    if dst == src or not balanced:
                        continue
                    delta = hyperedge_cut_value(edges, part[:v] + [dst] + part[v + 1:]) - cut
                    if delta < 0 and (move is None or delta < move[0]):
                        move = (delta, v, dst)
            if move is None:
                break
            part[move[1]] = move[2]
        cut = hyperedge_cut_value(edges, part)
        if best_cut is None or cut < best_cut:
            best, best_cut = part, cut
        if best_cut == 0:
            break
    return ref_canonicalize_labels(best)


# ---------------------------------------------------------------------------
# Pair-loop co-association

def ref_co_association(labelsets) -> list[list[float]]:
    """Fraction of the partitions that put i and j in the same non-outlier
    cluster, counted pair by pair."""
    n = len(labelsets[0])
    return [
        [sum(1 for labels in labelsets if labels[i] != -1 and labels[i] == labels[j])
         / len(labelsets) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Average linkage by direct search, and MCLA from its definitions

def ref_average_linkage(D, k) -> list[int]:
    """Average-linkage agglomeration of range(n) on the distances D (any
    n x n nested sequence; the diagonal is ignored) down to max(1, min(k,
    n)) clusters. Clusters are sets keyed by their smallest member. Each
    merge scans every ordered pair of active keys in (row, column) order
    and takes the first minimal one, then gives the union of a < b the
    Lance–Williams distance (|a| d(a, c) + |b| d(b, c)) / (|a| + |b|) to
    every other cluster c, in both directions, in plain floats. Labels
    are numbered by first appearance."""
    n = len(D)
    members = {a: {a} for a in range(n)}
    dist = {(a, b): float(D[a][b]) for a in range(n) for b in range(n) if a != b}
    for _ in range(n - max(1, min(k, n))):
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a != b and (best is None or dist[a, b] < dist[best]):
                    best = (a, b)
        a, b = sorted(best)
        wa, wb = len(members[a]), len(members[b])
        for c in members:
            if c not in (a, b):
                dist[a, c] = dist[c, a] = (wa * dist[a, c] + wb * dist[b, c]) / (wa + wb)
        members[a] |= members.pop(b)
    key_of = {s: key for key, group in members.items() for s in group}
    return ref_canonicalize_labels([key_of[s] for s in range(n)])


def ref_mcla(labelsets) -> list[int]:
    """Meta-clustering (Strehl & Ghosh 2002) from the definitions: the
    non-outlier clusters as member sets, in (partition, label value)
    order; their Jaccard distances 1 - |A ∩ B| / |A ∪ B|; meta-clusters by
    :func:`ref_average_linkage` at min(k_target, number of clusters); each
    sample goes to the meta-cluster holding the largest fraction of its K
    labels, the lowest meta-cluster on ties, and a sample in no cluster is
    -1. Labels are canonicalised."""
    n = len(labelsets[0])
    clusters = [
        {i for i, lab in enumerate(labels) if lab == value}
        for labels in labelsets
        for value in sorted({lab for lab in labels if lab != -1})
    ]
    counts = [len({lab for lab in labels if lab != -1}) for labels in labelsets]
    k = max(1, math.floor(float(np.median(counts)) + 0.5))
    jaccard = [[1.0 - len(a & b) / len(a | b) for b in clusters] for a in clusters]
    meta = ref_average_linkage(jaccard, min(k, len(clusters)))
    labels = []
    for i in range(n):
        share = Counter(meta[c] for c, members in enumerate(clusters) if i in members)
        best = None
        for g in sorted(share):
            if best is None or share[g] / len(labelsets) > share[best] / len(labelsets):
                best = g
        labels.append(-1 if best is None else best)
    return ref_canonicalize_labels(labels)


# ---------------------------------------------------------------------------
# Best of K with outlier voting, from the definitions

def ref_bokv(labelsets, recalls) -> dict:
    """BOKV by counting: the gate is open when strictly more than half the
    recalls exceed 0.5; with it open, a sample is voted out when strictly
    more than half the models label it -1 and the winner maximizes the
    summed :func:`ref_nmi` over the voted-in samples (first maximum); with
    it closed, every sample counts and nothing is voted out. No voted-in
    sample leaves all -1 and no winner. Returns the labels, the winner,
    the per-model sums and the gate."""
    k, n = len(labelsets), len(labelsets[0])
    gate_open = 2 * sum(1 for r in recalls if r > 0.5) > k
    voted_out = [
        gate_open and 2 * sum(1 for labels in labelsets if labels[i] == -1) > k
        for i in range(n)
    ]
    kept = [i for i in range(n) if not voted_out[i]]
    if gate_open and not kept:
        return {"labels": [-1] * n, "winner": None, "nmi_sums": None, "gate_open": True}
    restricted = [[labels[i] for i in kept] for labels in labelsets]
    sums = [ref_nmi_sum(a, restricted) for a in restricted]
    winner = 0
    for i, s in enumerate(sums):
        if s > sums[winner]:
            winner = i
    labels = [-1 if voted_out[i] else lab for i, lab in enumerate(labelsets[winner])]
    return {"labels": labels, "winner": winner, "nmi_sums": sums, "gate_open": gate_open}


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank by enumerating every sign vector, and by exact rational DP

def ref_wilcoxon(diffs) -> float:
    """Two-sided exact Wilcoxon signed-rank p-value: zeros dropped, midranks
    counted as (#smaller) + (#equal + 1) / 2, and the null distribution of
    W+ taken from all 2^n sign vectors. Meant for n <= 12."""
    d = [x for x in diffs if x != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    mags = [abs(x) for x in d]
    ranks = [sum(1 for m in mags if m < a) + (sum(1 for m in mags if m == a) + 1) / 2
             for a in mags]
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    low = high = 0
    for mask in range(2 ** n):
        w = sum(r for bit, r in enumerate(ranks) if mask >> bit & 1)
        low += w <= w_plus
        high += w >= w_plus
    return min(1.0, 2 * min(low, high) / 2 ** n)


def ref_wilcoxon_dp(diffs) -> float:
    """Two-sided exact Wilcoxon signed-rank p-value at any n: zeros dropped,
    doubled midranks counted as 2 (#smaller) + #equal + 1, the null
    distribution of 2 W+ kept as a dict from each reachable sum to its
    number of sign vectors (Python integers, so no count is rounded), and
    the tails divided by 2^n as Fractions."""
    d = [x for x in diffs if x != 0.0]
    if not d:
        return 1.0
    mags = [abs(x) for x in d]
    ranks2 = [2 * sum(1 for m in mags if m < a) + sum(1 for m in mags if m == a) + 1
              for a in mags]
    w2 = sum(r for r, x in zip(ranks2, d) if x > 0)
    ways = {0: 1}
    for r in ranks2:
        step = Counter(ways)
        for total, count in ways.items():
            step[total + r] += count
        ways = step
    low = sum(count for total, count in ways.items() if total <= w2)
    high = sum(count for total, count in ways.items() if total >= w2)
    return float(min(Fraction(1), Fraction(2 * min(low, high), 2 ** len(d))))


# ---------------------------------------------------------------------------
# K-means++ seeding and Lloyd iterations on nested lists

def ref_kmeans(X, k, seed, restarts) -> list[int]:
    """k-means by its textbook steps, in plain floats, with restart r
    drawing from the stream ``substream(seed, "kmeans", r)`` rebuilt from
    its SeedSequence entropy. Seeding: the first center is a uniformly
    drawn row; each next one is row i with probability proportional to
    w_i, its squared distance to the nearest chosen center, found by a
    running sum over u ~ U(0, sum w) (a uniform row when sum w is 0).
    Lloyd: every row goes to its nearest center, the smaller center on
    ties; each non-empty cluster's center moves to the mean of its rows;
    stop when no row moves or after 100 assignments. The restart with
    the smallest sum of squared distances wins, the earliest on ties."""
    points = [[float(v) for v in row] for row in X]
    n = len(points)

    def sq(p, c):
        total = 0.0
        for a, b in zip(p, c):
            total += (a - b) ** 2
        return total

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, _fnv1a64("kmeans"), r]))
        centers = [points[int(rng.integers(n))]]
        while len(centers) < k:
            weights = [min(sq(p, c) for c in centers) for p in points]
            total = 0.0
            for w in weights:
                total += w
            idx = n - 1
            if total <= 0.0:
                idx = int(rng.integers(n))
            else:
                draw, running = rng.uniform(0.0, total), 0.0
                for i, w in enumerate(weights):
                    running += w
                    if running > draw:
                        idx = i
                        break
            centers.append(points[idx])
        assign = None
        for _ in range(100):
            new = [min(range(k), key=lambda c: (sq(p, centers[c]), c)) for p in points]
            if new == assign:
                break
            assign = new
            for c in range(k):
                members = [p for p, a in zip(points, assign) if a == c]
                if members:
                    centers[c] = [sum(col) / len(members) for col in zip(*members)]
        inertia = 0.0
        for p, a in zip(points, assign):
            inertia += sq(p, centers[a])
        if best is None or inertia < best[0]:
            best = (inertia, assign)
    return best[1]


# ---------------------------------------------------------------------------
# Hashed TF-IDF rows

def _fnv1a64(text: str) -> int:
    """64-bit FNV-1a of the UTF-8 bytes, from the published constants."""
    h = 0xcbf29ce484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001b3) % 2**64
    return h


def ref_featurize(texts, feature_dim) -> list[list[float]]:
    """featurize as its docstring states it: whitespace tokens, idf
    ln((1 + n) / (1 + df)) + 1, each token's count × idf added to bucket
    FNV-1a 64 mod ``feature_dim``, rows L2-normalized (zero rows stay
    zero). Lists of floats, one per text."""
    n = len(texts)
    docs = [text.split() for text in texts]
    df = Counter(token for tokens in docs for token in set(tokens))
    rows = []
    for tokens in docs:
        row = [0.0] * feature_dim
        for token, count in Counter(tokens).items():
            idf = math.log((1 + n) / (1 + df[token])) + 1
            row[_fnv1a64(token) % feature_dim] += count * idf
        norm = math.sqrt(sum(v * v for v in row))
        rows.append([v / norm for v in row] if norm else row)
    return rows


# ---------------------------------------------------------------------------
# Central finite differences

def finite_difference_grads(loss_fn, params: list[np.ndarray], step: float = 1e-4):
    """Central-difference gradient of a scalar loss w.r.t. each array in
    ``params``. ``loss_fn`` takes the parameter list and returns a float."""
    grads = []
    for a_idx, array in enumerate(params):
        grad = np.zeros_like(array)
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn(params)
            flat[i] = original - step
            down = loss_fn(params)
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads
