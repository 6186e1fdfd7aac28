import tracemalloc

import numpy as np
import pytest

from ddce import optics
from ddce.embed import EmbeddingMatrix, normalize_rows
from ddce.errors import DdceError
from ddce.metrics import ari_labels
from ddce.optics import (
    Neighbourhood,
    OpticsParams,
    Partition,
    ReachabilityOrdering,
    canonicalize_labels,
    cluster,
    cluster_with_distances,
    compute_ordering,
    extract_xi_clusters,
    filter_small_clusters,
    load_partition_jsonl,
    pairwise_distances,
    save_partition_jsonl,
    _xi_candidate_clusters,
)
from ddce.util import write_jsonl

from conftest import cosine_blobs_with_noise, two_blob_points
from oracles import _pair_distance, ref_canonicalize_labels, ref_optics, ref_xi_clusters


def emb(data):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(data=data, row_ids=[f"p{i}" for i in range(len(data))])


def ordering_of(data, params, metric="cosine"):
    data = np.asarray(data, dtype=float)
    ids = [f"p{i}" for i in range(len(data))]
    return compute_ordering(pairwise_distances(data, metric), ids, params)


def assert_matches_reference(data, params, metric):
    """compute_ordering on the neighbourhood structure at radius max_eps,
    2·max_eps and infinity equals the reference bit for bit; returns the
    result."""
    data = np.asarray(data, dtype=float)
    order, reach, core, _ = ref_optics(data, params.max_eps, params.min_samples, metric)
    ids = [f"p{i}" for i in range(len(data))]
    for radius in (params.max_eps, 2 * params.max_eps, np.inf):
        got = compute_ordering(pairwise_distances(data, metric, radius), ids, params)
        assert got.order.tolist() == order
        assert got.reachability.tolist() == reach
        assert got.core_distance.tolist() == core
    return got


def assert_reachability_witnessed(data, ordering, max_eps, metric):
    """The OPTICS definition, read off the ordering's own output: each
    point's reachability is the smallest max(core[p], d(p, i)) over the
    points p before it in the order that have a core distance and lie
    within max_eps, or inf when there is none."""
    data = np.asarray(data, dtype=float)
    order, core = ordering.order.tolist(), ordering.core_distance.tolist()
    for at, i in enumerate(order):
        witnesses = [max(core[p], d) for p in order[:at]
                     if core[p] != np.inf and (d := _pair_distance(data, p, i, metric)) <= max_eps]
        assert ordering.reachability[i] == min(witnesses, default=np.inf)


def compute_battery_case(seed):
    """TestComputeOrdering's reference battery input: data, params, metric."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(5, 61))
    dim = int(rng.integers(1, 5))
    data = rng.normal(size=(n, dim))
    if seed % 3 == 0:
        # duplicated rows exercise exact-tie handling
        data[: n // 3] = data[0]
    metric = "euclidean" if seed % 2 == 0 else "cosine"
    params = OpticsParams(
        max_eps=float(rng.uniform(0.2, 3.0)),
        xi=0.05,
        min_samples=int(rng.integers(2, 8)),
    )
    return data, params, metric


def distances_battery_case(seed):
    """TestOrderingFromDistances' reference battery input: data, params, metric."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 71))
    data = rng.normal(size=(n, int(rng.integers(1, 5))))
    if seed % 4 == 0:
        data = np.round(data, 1)  # coarse grid: many tied distances
    if seed % 4 == 1:
        data[rng.integers(0, n, size=n // 2)] = data[0]  # duplicate points
    metric = ("euclidean", "cosine")[seed % 2]
    params = OpticsParams(
        max_eps=float(rng.uniform(0.05, 3.0)),
        xi=0.05,
        min_samples=int(rng.integers(2, 25)),
    )
    return data, params, metric


def dense_distances(data, metric):
    """The full n×n matrix, every row computed over all columns: the
    bitwise reference for the structure, which evaluates only the pairs
    its candidate filter keeps. Euclidean distances are taken on the rows
    scaled by 2^-e, e the binary exponent of max|data|, and scaled back."""
    if metric == "cosine":
        xn = normalize_rows(data)
        D = np.array([np.maximum(0.0, 1.0 - (xn * row).sum(axis=1)) for row in xn])
        D = D.reshape(len(data), len(data))
        np.fill_diagonal(D, 0.0)
        return D
    e = int(np.frexp(np.abs(data).max(initial=0.0))[1])
    x = np.ldexp(data, -e)
    D = np.array([np.sqrt(((x - row) ** 2).sum(axis=1)) for row in x])
    # A distance beyond float64's range is inf.
    with np.errstate(over="ignore"):
        return np.ldexp(D.reshape(len(data), len(data)), e)


def neighbourhood_cases():
    rng = np.random.default_rng(11)
    coarse = np.round(rng.normal(size=(40, 3)), 1)  # many tied distances
    dup = rng.normal(size=(30, 2))
    dup[rng.integers(0, 30, size=15)] = dup[0]
    zeros = rng.normal(size=(25, 4))
    zeros[[0, 3, 4, 20]] = 0.0  # all-zero rows are distance 1 from all under cosine
    return {
        "empty": np.empty((0, 3)),
        "single": rng.normal(size=(1, 3)),
        "random": rng.normal(size=(60, 5)),
        "coarse": coarse,
        "duplicates": dup,
        "zero_rows": zeros,
    }


def assert_rows_match_dense(data, metric, radius):
    """The structure at ``radius`` against the dense matrix: each pair
    within the radius exactly once, none beyond it, the same distance
    bytes, rows in (distance, index) order and each row's self at 0.0;
    offsets and columns as intp, distances as float64."""
    n = len(data)
    nbrs = pairwise_distances(data, metric, radius)
    D = dense_distances(data, metric)
    assert nbrs.shape == (n, n) and nbrs.radius == radius
    assert nbrs.indptr.dtype == nbrs.indices.dtype == np.intp
    assert nbrs.distances.dtype == np.float64
    assert len(nbrs.indptr) == n + 1 and nbrs.indptr[0] == 0
    assert nbrs.indptr[-1] == len(nbrs.indices) == len(nbrs.distances)
    for i in range(n):
        row = slice(nbrs.indptr[i], nbrs.indptr[i + 1])
        j, d = nbrs.indices[row], nbrs.distances[row]
        assert sorted(j.tolist()) == np.flatnonzero(D[i] <= radius).tolist()
        assert d.tobytes() == D[i, j].tobytes()
        pairs = list(zip(d.tolist(), j.tolist()))
        assert pairs == sorted(pairs)
        assert d[j == i].tolist() == [0.0]
    # Symmetric: j in row i exactly when i is in row j, with the same bytes.
    rows = np.repeat(np.arange(n), np.diff(nbrs.indptr))
    fwd, back = np.lexsort((nbrs.indices, rows)), np.lexsort((rows, nbrs.indices))
    assert np.array_equal(rows[fwd], nbrs.indices[back])
    assert np.array_equal(nbrs.indices[fwd], rows[back])
    assert nbrs.distances[fwd].tobytes() == nbrs.distances[back].tobytes()


def boundary_case(seed):
    """Rows at the candidate filter's edges: rounded coordinates (tied
    distances), duplicates, rows one ulp from another, all-zero rows, at
    scales 1e-3 to 1e3 and d up to 300."""
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 41))
    d = int(rng.choice([1, 2, 3, 8, 17, 64, 300]))
    data = rng.normal(size=(n, d)) * 10.0 ** int(rng.integers(-3, 4))
    some = rng.integers(0, n, size=max(1, n // 2))
    kind = seed % 5
    if kind == 1:
        data = np.round(data, 1)
    elif kind == 2:
        data[some] = data[0]
    elif kind == 3:
        data[some] = np.nextafter(data[0], np.inf)
    elif kind == 4:
        data[some] = 0.0
    return data


def extreme_case(seed):
    """Rows at the edges of float32, which the candidate filter computes in:
    scales from 1e-300 to 1e300, subnormal coordinates and values near
    float32's maximum, as EMB1 can hold."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 31))
    d = int(rng.choice([1, 2, 5, 16, 64]))
    kind = seed % 4
    if kind == 0:
        scale = [1e-300, 1e-160, 1e-30, 1e30, 1e150, 1e300][seed // 4 % 6]
        data = rng.normal(size=(n, d)) * scale
    elif kind == 1:  # some coordinates, or whole rows, subnormal
        data = rng.normal(size=(n, d))
        data[rng.random(size=(n, d)) < 0.3] *= 1e-310
        data[rng.integers(0, n, size=n // 3)] *= 1e-310
    elif kind == 2:
        data = rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(0.5, 1.0, size=(n, d))
        data = data.astype(np.float32).astype(float) * float(np.finfo(np.float32).max)
    else:  # near float32's maximum, in a few distinct values: tied distances
        data = rng.choice([-1.0, 0.99, 1.0], size=(n, d)) * float(np.finfo(np.float32).max)
    return data


class TestNeighbourhood:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("case", sorted(neighbourhood_cases()))
    @pytest.mark.parametrize("radius", [0.0, 0.3, 1.0, np.inf])
    def test_rows_match_dense_distances(self, metric, case, radius):
        assert_rows_match_dense(neighbourhood_cases()[case], metric, radius)

    def test_unknown_metric_rejected(self):
        with pytest.raises(DdceError, match="unknown metric"):
            pairwise_distances(np.ones((2, 2)), "manhattan")

    @pytest.mark.parametrize("radius", [-1.0, np.nan])
    def test_radius_below_zero_rejected(self, radius):
        with pytest.raises(DdceError, match="radius must be >= 0"):
            pairwise_distances(np.ones((2, 2)), "cosine", radius)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n", [40, 600])  # one block of rows; two blocks
    def test_each_pair_evaluated_once_from_its_upper_row(self, monkeypatch, metric, n):
        evaluated = []

        def recording(x, i, j, cosine, e):
            evaluated.append((i.copy(), j.copy()))
            return exact(x, i, j, cosine, e)

        exact = optics._exact_distances
        monkeypatch.setattr(optics, "_exact_distances", recording)
        assert (optics._BLOCK_ELEMENTS // n >= n) == (n == 40)
        data = np.random.default_rng(n).normal(size=(n, 3))
        middle = float(np.median(dense_distances(data, metric)))
        for radius in (0.0, middle, np.inf):
            evaluated.clear()
            assert_rows_match_dense(data, metric, radius)
            i = np.concatenate([p[0] for p in evaluated])
            j = np.concatenate([p[1] for p in evaluated])
            assert (i < j).all()
            assert len(np.unique(i * n + j)) == len(i)
            if radius == np.inf:
                assert len(i) == n * (n - 1) // 2

    def test_tiny_euclidean_rows_evaluate_no_more_pairs(self, monkeypatch):
        # Rows scaled by 2^-600 have squared distances far below float64's
        # smallest normal; the filter must still rule out the far pairs.
        counts = []

        def counting(x, i, j, cosine, e):
            counts[-1] += len(i)
            return exact(x, i, j, cosine, e)

        exact = optics._exact_distances
        monkeypatch.setattr(optics, "_exact_distances", counting)
        pts, _ = cosine_blobs_with_noise(0)
        for power in (0, -600):
            counts.append(0)
            pairwise_distances(np.ldexp(pts, power), "euclidean", np.ldexp(0.2, power))
        assert counts[1] <= counts[0]

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("seed", range(30))
    def test_boundary_battery_matches_dense_rows(self, metric, seed):
        # Radii equal to actual pair distances put pairs exactly on the
        # boundary, where a candidate filter without its error margin
        # drops them.
        data = boundary_case(seed)
        pair = dense_distances(data, metric)[np.triu_indices(len(data), 1)]
        picked = np.random.default_rng(seed).choice(pair, size=4).tolist()
        for radius in [0.0, np.inf, pair.min(), pair.max(), *picked]:
            assert_rows_match_dense(data, metric, radius)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("seed", range(40))
    def test_extreme_scale_battery_matches_dense_rows(self, metric, seed):
        data = extreme_case(seed)
        pair = dense_distances(data, metric)[np.triu_indices(len(data), 1)]
        picked = np.random.default_rng(seed).choice(pair, size=4).tolist()
        for radius in [0.0, np.inf, pair.min(), pair.max(), *picked]:
            assert_rows_match_dense(data, metric, radius)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_cosine_is_scale_invariant_beyond_float_squares(self, scale):
        x = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        plain = pairwise_distances(x, "cosine")
        assert np.allclose(plain.distances[:3], [0.0, 0.00496281, 1.0], atol=1e-8)
        got = pairwise_distances(x * scale, "cosine")
        assert np.array_equal(got.indices, plain.indices)
        assert np.allclose(got.distances, plain.distances, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("power", [-1000, -565, 565, 1000])
    def test_power_of_two_scale_leaves_the_structure(self, metric, power):
        # Scaling the rows by 2^k is exact. Cosine keeps every distance
        # byte and euclidean scales each by 2^k exactly, with no float
        # warning (the test configuration makes warnings errors).
        pts, _ = cosine_blobs_with_noise(0)
        radius = 0.3 if metric == "cosine" else 0.2
        plain = pairwise_distances(pts, metric, radius)
        factor = 1.0 if metric == "cosine" else np.ldexp(1.0, power)
        got = pairwise_distances(np.ldexp(pts, power), metric, radius * factor)
        assert np.array_equal(got.indptr, plain.indptr)
        assert np.array_equal(got.indices, plain.indices)
        assert got.distances.tobytes() == (plain.distances * factor).tobytes()

    def test_euclidean_near_float_max_stays_finite(self):
        pts, _ = cosine_blobs_with_noise(0)
        plain = pairwise_distances(pts, "euclidean")
        got = pairwise_distances(pts * 1e300, "euclidean")
        assert np.isfinite(got.distances).all()
        assert np.array_equal(got.indices, plain.indices)
        assert np.allclose(got.distances, plain.distances * 1e300, rtol=1e-14)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_long_runs_of_equal_distances_stay_in_index_order(self, metric):
        # Three points, each repeated about 100 times in shuffled order:
        # every row is three runs of equal distances.
        rng = np.random.default_rng(8)
        data = rng.normal(size=(3, 5))[rng.integers(0, 3, size=300)]
        middle = float(np.median(dense_distances(data, metric)))
        for radius in (0.0, middle, np.inf):
            assert_rows_match_dense(data, metric, radius)

    def test_memory_holds_one_block(self):
        # 6000 rows in tight groups of 10, so the structure takes about
        # 1 MB. The approximations of one 4 MB block alone would exceed
        # the bound.
        rng = np.random.default_rng(4)
        centers = normalize_rows(rng.normal(size=(600, 16)))
        data = np.repeat(centers, 10, axis=0) + rng.normal(0.0, 0.002, size=(6000, 16))
        tracemalloc.start()
        try:
            nbrs = pairwise_distances(data, "cosine", 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nbrs.indptr[-1] == 6000 * 10
        assert peak < 2**19 * 8


class TestOpticsParams:
    @pytest.mark.parametrize("max_eps, xi, min_samples, name", [
        (0.0, 0.05, 2, "max_eps"),
        (np.inf, 0.05, 2, "max_eps"),
        (0.5, 1.0, 2, "xi"),
        (0.5, 0.05, 1, "min_samples"),
        (0.5, 0.05, 2**63, "min_samples"),  # past the int64 row offsets
        (0.5, 0.05, 10**20, "min_samples"),
    ])
    def test_out_of_range_rejected(self, max_eps, xi, min_samples, name):
        with pytest.raises(DdceError, match=name):
            OpticsParams(max_eps, xi, min_samples)

    def test_largest_min_samples_gives_no_core_point(self):
        got = ordering_of(np.zeros((3, 2)), OpticsParams(1.0, 0.05, 2**63 - 1), "euclidean")
        assert np.all(np.isinf(got.core_distance))
        assert got.order.tolist() == [0, 1, 2]


class TestComputeOrdering:
    def test_radius_below_max_eps_rejected(self):
        data = np.random.default_rng(2).normal(size=(10, 2))
        ids = [f"p{i}" for i in range(10)]
        nbrs = pairwise_distances(data, "euclidean", 0.5)
        with pytest.raises(DdceError, match="exceeds the neighbourhood radius"):
            compute_ordering(nbrs, ids, OpticsParams(0.6, 0.05, 2))
        # A max_eps drawn at the end of its range equals the radius exactly.
        got = compute_ordering(nbrs, ids, OpticsParams(0.5, 0.05, 2))
        assert sorted(got.order.tolist()) == list(range(10))

    def test_not_enough_neighbors_all_infinite(self):
        data = np.random.default_rng(0).normal(size=(5, 2))
        got = ordering_of(data, OpticsParams(10.0, 0.05, 6), "euclidean")
        assert np.all(np.isinf(got.core_distance))
        assert np.all(np.isinf(got.reachability))
        assert got.order.tolist() == [0, 1, 2, 3, 4]

    def test_duplicates_have_zero_core_distance(self):
        data = np.tile([[1.0, 2.0]], (4, 1))
        got = ordering_of(data, OpticsParams(1.0, 0.05, 4), "euclidean")
        assert np.all(got.core_distance == 0.0)

    def test_two_blob_fixture_matches_reference(self):
        data = two_blob_points(seed=0)
        params = OpticsParams(max_eps=100.0, xi=0.05, min_samples=3)
        assert_matches_reference(data, params, "euclidean")

    @pytest.mark.parametrize("seed", range(20))
    def test_reference_battery(self, seed):
        assert_matches_reference(*compute_battery_case(seed))

    def test_empty_input(self):
        got = ordering_of(np.empty((0, 3)), OpticsParams(1.0, 0.1, 2))
        assert got.order.size == 0
        part = extract_xi_clusters(got, 0.1, 2)
        assert part.labels.dtype == np.int64 and part.labels.size == 0

    def test_reachability_witnessed(self):
        cases = [compute_battery_case(seed) for seed in range(20)]
        cases += [distances_battery_case(seed) for seed in range(40)]
        for data, params, metric in cases:
            got = ordering_of(data, params, metric)
            assert_reachability_witnessed(data, got, params.max_eps, metric)

    def test_core_distances_permutation_equivariant(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(30, 2))
        params = OpticsParams(2.0, 0.05, 3)
        base = ordering_of(data, params, "euclidean")
        perm = rng.permutation(30)
        permuted = ordering_of(data[perm], params, "euclidean")
        assert np.array_equal(permuted.core_distance, base.core_distance[perm])

    def test_clusters_stable_under_permutation(self):
        # Row order influences expansion roots, so raw reachability values
        # can shift; on separated blobs the extracted clusters must not.
        rng = np.random.default_rng(9)
        data = two_blob_points(seed=9)
        params = OpticsParams(100.0, 0.05, 15)
        base = cluster(emb(data), params, 2, "euclidean")
        perm = rng.permutation(len(data))
        permuted = cluster(emb(data[perm]), params, 2, "euclidean")
        restored = np.empty(len(data), dtype=int)
        restored[perm] = permuted.labels
        assert ari_labels(base.labels, restored) == 1.0

    def test_permutation_on_asymmetric_rows(self):
        # Row 0 holds point 1, but row 1 does not hold point 0: point 1 has
        # no core distance, yet the core point 0 reaches it.
        nbrs = Neighbourhood(indptr=np.array([0, 2, 3]), indices=np.array([0, 1, 1]),
                             distances=np.array([0.0, 0.1, 0.0]), radius=1.0)
        got = compute_ordering(nbrs, ["a", "b"], OpticsParams(0.5, 0.05, 2))
        assert got.order.tolist() == [0, 1]
        assert got.reachability.tolist() == [np.inf, 0.1]
        assert extract_xi_clusters(got, 0.05, 2).labels.size == 2


class TestOrderingFromDistances:
    @pytest.mark.parametrize("seed", range(40))
    def test_reference_battery(self, seed):
        assert_matches_reference(*distances_battery_case(seed))

    @pytest.mark.parametrize("seed", range(30))
    def test_sparse_core_battery(self, seed):
        # max_eps below most pair distances, at a quantile of the core
        # distances under 1/2: most points have none, and in every case some
        # of those are reached inside a block.
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(30, 71))
        data = rng.normal(size=(n, int(rng.integers(2, 5))))
        metric = ("euclidean", "cosine")[seed % 2]
        k = int(rng.integers(3, 7))  # at 2, every point without a core distance is alone
        kth = np.sort(dense_distances(data, metric), axis=1)[:, k - 1]
        max_eps = float(np.quantile(kth, rng.uniform(0.2, 0.45)))
        got = assert_matches_reference(data, OpticsParams(max_eps, 0.05, k), metric)
        assert_reachability_witnessed(data, got, max_eps, metric)
        coreless = np.isinf(got.core_distance)
        assert coreless.mean() > 0.5
        assert np.isfinite(got.reachability[coreless]).any()

    @pytest.mark.parametrize("params", [
        OpticsParams(max_eps=10.0, xi=0.05, min_samples=9),  # more than n
        OpticsParams(max_eps=1e-3, xi=0.05, min_samples=2),  # no neighbor within max_eps
    ])
    def test_no_finite_core_gives_identity_order(self, params):
        data = np.random.default_rng(1).normal(size=(8, 2))
        got = assert_matches_reference(data, params, "euclidean")
        assert got.order.tolist() == list(range(8))
        assert np.all(np.isinf(got.core_distance)) and np.all(np.isinf(got.reachability))

    def test_exactly_one_finite_core(self):
        data = [[0.0], [1.0], [2.0], [10.0], [20.0], [30.0]]
        got = assert_matches_reference(data, OpticsParams(1.5, 0.05, 3), "euclidean")
        assert np.isfinite(got.core_distance).tolist() == [False, True, False, False, False, False]
        assert got.order.tolist() == [0, 1, 2, 3, 4, 5]
        # Only point 2 is reached, from the core point 1 at distance 1.0.
        assert got.reachability.tolist() == [np.inf, np.inf, 1.0, np.inf, np.inf, np.inf]

    def test_frontier_empties_between_expansions(self):
        # Two tight groups farther apart than max_eps, with isolated points
        # before, between and after them: the frontier runs dry after each
        # group and the next expansion starts from the smallest open index.
        data = [[50.0], [0.0], [0.1], [0.2], [70.0], [5.0], [5.1], [5.2], [90.0]]
        got = assert_matches_reference(data, OpticsParams(0.5, 0.05, 2), "euclidean")
        assert_reachability_witnessed(data, got, 0.5, "euclidean")
        assert got.order.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        # Each group's start is unreached and its other two points are
        # reached; the isolated points are not.
        reached = np.isfinite(got.reachability).tolist()
        assert reached == [False, False, True, True, False, False, True, True, False]

    def test_tied_duplicates_break_by_smallest_index(self):
        data = [[1.0, 1.0]] * 3 + [[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 2
        got = assert_matches_reference(data, OpticsParams(0.5, 0.05, 2), "euclidean")
        assert got.order.tolist() == [0, 1, 2, 6, 7, 3, 4, 5]
        assert np.all(got.core_distance == 0.0)


def flat_blob_points(n_per_blob=20, spacing=0.05, gap=10.0):
    """Two evenly spaced 1-D runs: the reachability plot is flat inside each
    blob, so the expected extraction is derivable by hand."""
    a = np.arange(n_per_blob) * spacing
    b = gap + np.arange(n_per_blob) * spacing
    return np.concatenate([a, b]).reshape(-1, 1)


class TestXiExtraction:
    def test_flat_plot_yields_no_clusters(self):
        # All-equal finite reachability: no steep-down area anywhere.
        n = 15
        ordering = ReachabilityOrdering(
            order=np.arange(n),
            reachability=np.full(n, 0.25),
            core_distance=np.full(n, 0.25),
            ids=[f"p{i}" for i in range(n)],
        )
        part = extract_xi_clusters(ordering, 0.1, 2)
        assert np.all(part.labels == -1)

    def test_two_blobs_two_clusters(self):
        data = flat_blob_points()
        ordering = ordering_of(data, OpticsParams(100.0, 0.05, 3), "euclidean")
        part = extract_xi_clusters(ordering, 0.05, 3)
        truth = np.array([0] * 20 + [1] * 20)
        assert part.cluster_count() == 2
        assert ari_labels(truth, part.labels) == 1.0

    def test_gaussian_blobs_two_clusters_with_dense_min_samples(self):
        data = two_blob_points(seed=1)
        ordering = ordering_of(data, OpticsParams(100.0, 0.05, 15), "euclidean")
        part = extract_xi_clusters(ordering, 0.05, 15)
        truth = np.array([0] * 20 + [1] * 20)
        assert part.cluster_count() == 2
        assert ari_labels(truth, part.labels) == 1.0

    def test_single_blob_single_cluster(self):
        data = (np.arange(30) * 0.01).reshape(-1, 1)
        ordering = ordering_of(data, OpticsParams(100.0, 0.05, 3), "euclidean")
        part = extract_xi_clusters(ordering, 0.05, 3)
        assert part.cluster_count() == 1
        biggest = max(np.bincount(part.labels[part.labels != -1]))
        assert biggest >= 3

    def test_xi_bounds(self):
        data = two_blob_points(seed=0)
        ordering = ordering_of(data, OpticsParams(1.0, 0.05, 3), "euclidean")
        with pytest.raises(DdceError):
            extract_xi_clusters(ordering, 1.5, 3)


def random_plot(rng):
    """A reachability plot of 0-80 values: rounded uniform values, or runs
    of a few levels (long flat stretches), with zeros and inf entries mixed
    in. Returns it with an xi and a min_samples."""
    n = int(rng.integers(0, 81))
    if rng.random() < 0.5:
        r = np.round(rng.uniform(0.0, 1.0, size=n), int(rng.integers(1, 4)))
    else:
        levels = rng.choice([0.1, 0.2, 0.25, 0.4, 0.5, 0.8, 1.0, 2.0], size=n)
        r = np.repeat(levels, rng.integers(1, 6, size=n))[:n]
    r[rng.random(n) < rng.choice([0.0, 0.05, 0.2])] = 0.0
    r[rng.random(n) < rng.choice([0.0, 0.05, 0.2])] = np.inf
    xi = float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75]))
    return r, xi, int(rng.integers(2, 8))


def ordering_plot(rng):
    """A reachability ordering from compute_ordering on 5-100 blob points
    under either metric, with an xi and a min_samples."""
    n = int(rng.integers(5, 101))
    centers = rng.normal(size=(int(rng.integers(1, 6)), 3))
    data = centers[rng.integers(0, len(centers), size=n)]
    data = data + rng.normal(0.0, rng.choice([0.02, 0.1, 0.3]), size=data.shape)
    if rng.random() < 0.3:
        data = np.round(data, 1)  # tied distances, flat stretches
    metric = ("cosine", "euclidean")[int(rng.integers(0, 2))]
    min_samples = int(rng.integers(2, 11))
    params = OpticsParams(float(rng.uniform(0.1, 3.0)), 0.05, min_samples)
    xi = float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.4]))
    return ordering_of(data, params, metric), xi, min_samples


def assert_xi_matches_reference(ordering, xi, min_samples):
    """The candidate list equals the pairwise oracle's, in order, and
    extract_xi_clusters gives each point the shortest candidate holding
    its position (on equal lengths, the later one), labels numbered by
    first appearance."""
    r = ordering.reachability[ordering.order]
    cands = ref_xi_clusters(r.tolist(), xi, min_samples)
    assert _xi_candidate_clusters(r, xi, min_samples) == cands
    at = [-1] * len(r)
    for p in range(len(r)):
        holding = [c for c, (s, e) in enumerate(cands) if s <= p <= e]
        if holding:
            at[p] = min(holding, key=lambda c: (cands[c][1] - cands[c][0], -c))
    labels = [-1] * len(r)
    for p, point in enumerate(ordering.order.tolist()):
        labels[point] = at[p]
    got = extract_xi_clusters(ordering, xi, min_samples)
    assert got.labels.tolist() == ref_canonicalize_labels(labels)


class TestXiOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_plots(self, seed):
        rng = np.random.default_rng(7000 + seed)
        for _ in range(50):
            r, xi, min_samples = random_plot(rng)
            n = len(r)
            order = rng.permutation(n)
            reach = np.empty(n)
            reach[order] = r
            ordering = ReachabilityOrdering(
                order=order, reachability=reach, core_distance=np.full(n, np.inf),
                ids=[f"p{i}" for i in range(n)],
            )
            assert_xi_matches_reference(ordering, xi, min_samples)

    @pytest.mark.parametrize("seed", range(20))
    def test_ordering_plots(self, seed):
        rng = np.random.default_rng(8000 + seed)
        for _ in range(10):
            assert_xi_matches_reference(*ordering_plot(rng))

    @pytest.mark.parametrize("r, min_samples, expected", [
        ([], 2, []),
        ([1.0, 0.1, 0.1, 0.1, 1.0], 2, [(0, 4)]),
        ([1.0, 0.1, 0.1, 0.1, 1.0], 6, []),  # shorter than min_samples
        ([1.0, 0.1, 0.1, 0.1, np.inf], 2, [(0, 3)]),  # inf / inf is not steep
        ([np.inf, 0.1, 0.1, 0.1, 1.0], 2, [(0, 4)]),
        # The inf ends one cluster and is the left shoulder of the next.
        ([1.0, 0.1, np.inf, 0.1, 1.0], 2, [(0, 1), (2, 4)]),
        ([0.0, 0.0, 0.0, 1.0], 2, []),  # 0 / 0 is not steep: no steep-down area
        # Left shoulder higher: the start moves right to the end's level.
        ([4.0, 2.0, 1.0, 0.1, 0.1, 1.5, 1.2], 2, [(1, 4), (0, 6), (5, 6)]),
        # Right shoulder higher: the end moves left to the start's level.
        ([1.5, 0.1, 0.1, 1.0, 2.0, 4.0], 2, [(0, 4)]),
    ])
    def test_hand_cases(self, r, min_samples, expected):
        r = np.array(r, dtype=float)
        assert ref_xi_clusters(r.tolist(), 0.1, min_samples) == expected
        assert _xi_candidate_clusters(r, 0.1, min_samples) == expected


class TestPartition:
    def test_list_labels_become_int_array(self):
        p = Partition(labels=[0, -1, 2], ids=["a", "b", "c"])
        assert isinstance(p.labels, np.ndarray) and p.labels.dtype == np.int64
        assert p.labels.tolist() == [0, -1, 2]
        assert Partition(labels=[], ids=[]).labels.dtype == np.int64

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(DdceError, match="1-D"):
            Partition(labels=np.array([[0, 1]]), ids=["a"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DdceError, match="2 labels but 3 ids"):
            Partition(labels=[0, 1], ids=["a", "b", "c"])

    def test_cluster_count_ignores_outliers(self):
        assert Partition(labels=[3, -1, 3, 7], ids=list("abcd")).cluster_count() == 2


class TestFilterSmallClusters:
    def part(self, labels):
        labels = np.asarray(labels)
        return Partition(labels=labels, ids=[f"s{i}" for i in range(len(labels))])

    def test_small_cluster_to_outliers(self):
        p = self.part([0] * 5 + [1] + [2] * 3)
        out = filter_small_clusters(p, 2)
        assert out.labels.tolist() == [0] * 5 + [-1] + [1] * 3

    def test_s_min_one_only_canonicalizes(self):
        p = self.part([5, 5, 9, -1])
        out = filter_small_clusters(p, 1)
        assert out.labels.tolist() == [0, 0, 1, -1]

    def test_all_small(self):
        p = self.part([0, 1, 2])
        assert np.all(filter_small_clusters(p, 2).labels == -1)

    def test_s_min_below_one_rejected(self):
        with pytest.raises(DdceError, match="s_min must be >= 1, got 0"):
            filter_small_clusters(self.part([0, 0]), 0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(-1, 5, size=50)
        once = filter_small_clusters(self.part(labels), 3)
        twice = filter_small_clusters(once, 3)
        assert np.array_equal(once.labels, twice.labels)

    def test_canonicalize_first_appearance(self):
        assert canonicalize_labels(np.array([7, -1, 7, 3])).tolist() == [0, -1, 0, 1]

    @pytest.mark.parametrize("labels, expected", [
        ([], []),
        ([-1, -1, -1], [-1, -1, -1]),
        ([10**12, -1, 3, 10**12, 0, 3], [0, -1, 1, 0, 2, 1]),
        ([-2, 5, -2], [0, 1, 0]),  # only -1 marks an outlier
    ])
    def test_canonicalize_edge_cases(self, labels, expected):
        got = canonicalize_labels(np.array(labels, dtype=np.int64))
        assert got.tolist() == expected and got.dtype == np.dtype(int)

    @pytest.mark.parametrize("seed", range(10))
    def test_canonicalize_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        values = np.append(rng.integers(0, 2**40, size=int(rng.integers(1, 12))), -1)
        labels = rng.choice(values, size=int(rng.integers(0, 200)))
        assert canonicalize_labels(labels).tolist() == ref_canonicalize_labels(labels)


class TestCluster:
    def test_empty_matrix(self):
        part = cluster(emb(np.empty((0, 4))), OpticsParams(0.3, 0.05, 3), 2)
        assert part.n == 0
        empty = Neighbourhood(indptr=np.zeros(1, dtype=np.intp), indices=np.empty(0, dtype=np.intp),
                              distances=np.empty(0), radius=0.3)
        part = cluster_with_distances(empty, [], OpticsParams(0.3, 0.05, 3), 2)
        assert part.labels.dtype == np.int64 and part.labels.size == 0

    def test_memory_scales_with_pairs_within_max_eps(self):
        # 3000 rows in 100 tight, well-separated groups: about 30 pairs per
        # row lie within max_eps. An n×n float64 matrix would be 72 MB.
        rng = np.random.default_rng(4)
        centers = normalize_rows(rng.normal(size=(100, 16)))
        data = np.repeat(centers, 30, axis=0) + rng.normal(0.0, 0.002, size=(3000, 16))
        n = len(data)
        tracemalloc.start()
        try:
            part = cluster(emb(data), OpticsParams(0.01, 0.05, 5), 2, "cosine")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        group = np.repeat(np.arange(100), 30)
        clustered = part.labels != -1
        assert clustered.sum() > n // 2
        # No cluster spans two groups.
        assert len(set(zip(part.labels[clustered], group[clustered]))) == part.cluster_count()
        assert peak < n * n * 8 / 8

    @pytest.mark.parametrize("seed", range(10))
    def test_cosine_blobs_with_noise(self, seed):
        pts, truth = cosine_blobs_with_noise(seed)
        params = OpticsParams(max_eps=0.3, xi=0.05, min_samples=15)
        part = cluster(emb(pts), params, 2, "cosine")
        blob = truth != -1
        assert ari_labels(truth[blob], part.labels[blob]) >= 0.9

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 2.0**-600, 2.0**600, 1e170, 1e300])
    def test_cosine_partition_ignores_scale(self, scale):
        # Cosine distance does not depend on a row's length, including
        # lengths whose squares are outside float64's range.
        pts, _ = cosine_blobs_with_noise(2)
        params = OpticsParams(max_eps=0.3, xi=0.05, min_samples=15)
        plain = cluster(emb(pts), params, 2, "cosine")
        scaled = cluster(emb(pts * scale), params, 2, "cosine")
        assert plain.cluster_count() == 2
        assert np.array_equal(scaled.labels, plain.labels)

    @pytest.mark.parametrize("power", [-990, -565, 565, 1000])
    def test_euclidean_partition_ignores_power_of_two_scale(self, power):
        pts, _ = cosine_blobs_with_noise(2)
        params = OpticsParams(max_eps=0.2, xi=0.05, min_samples=15)
        plain = cluster(emb(pts), params, 2, "euclidean")
        scaled_params = OpticsParams(np.ldexp(0.2, power), 0.05, 15)
        scaled = cluster(emb(np.ldexp(pts, power)), scaled_params, 2, "euclidean")
        assert plain.cluster_count() == 2
        assert np.array_equal(scaled.labels, plain.labels)

    def test_deterministic(self):
        pts, _ = cosine_blobs_with_noise(0)
        params = OpticsParams(0.3, 0.05, 5)
        a = cluster(emb(pts), params, 2, "cosine")
        b = cluster(emb(pts), params, 2, "cosine")
        assert np.array_equal(a.labels, b.labels)

    def test_s_min_enforced(self):
        pts, _ = cosine_blobs_with_noise(4)
        part = cluster(emb(pts), OpticsParams(0.4, 0.03, 3), 5, "cosine")
        labels = part.labels[part.labels != -1]
        if labels.size:
            assert np.bincount(labels).min() >= 5

    def test_partition_jsonl_bytes_match_write_jsonl(self, tmp_path):
        ids = ["é", "日本語", "\U0001F600", '"', "\\", "\x00\x1f\x7f", "\u2028", "", "a b"]
        labels = [-1, 0, 2**62, 3, -1, 1, 0, 2, 4]
        p = Partition(labels=np.array(labels), ids=ids)
        save_partition_jsonl(p, str(tmp_path / "p.jsonl"))
        write_jsonl(str(tmp_path / "w.jsonl"),
                    [{"id": rid, "cluster": lab} for rid, lab in zip(ids, labels)])
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "w.jsonl").read_bytes()

    def test_partition_jsonl_roundtrip(self, tmp_path):
        p = Partition(labels=np.array([0, -1, 1]), ids=["a", "b", "c"])
        path = str(tmp_path / "p.jsonl")
        save_partition_jsonl(p, path)
        loaded = load_partition_jsonl(path)
        assert loaded.ids == p.ids and np.array_equal(loaded.labels, p.labels)
