import itertools

import numpy as np
import pytest

from ddce.consensus import (
    PartitionSet,
    _hgpa_descend,
    average_linkage_labels,
    bok,
    bokv,
    bokv_with_details,
    chm,
    chm_with_details,
    cspa,
    hgpa,
    k_target,
    mcla,
    outlier_vote,
    run_consensus,
)
from ddce.errors import DdceError
from ddce.metrics import nmi
from ddce.optics import Partition

from oracles import (
    balanced_splits,
    hyperedge_cut_value,
    partitions_into_k,
    ref_average_linkage,
    ref_bokv,
    ref_co_association,
    ref_hgpa,
    ref_hyperedges,
    ref_mcla,
    ref_nmi_sum,
)


def co_association(ts):
    """Fraction of the base models co-clustering each pair, as CSPA builds
    it from the incidence matrix."""
    H = ts.incidence
    return H @ H.T / ts.k


def hyperedge_cut(ts, labels):
    """Hyperedges spanning more than one part, counted edge by edge."""
    return hyperedge_cut_value(ref_hyperedges(ts.labels.tolist()), list(labels))


def P(labels, n=None):
    labels = np.asarray(labels, dtype=int)
    return Partition(labels=labels, ids=[f"s{i}" for i in range(len(labels))])


def TS(labelsets, recalls=None):
    return PartitionSet(partitions=[P(ls) for ls in labelsets], val_recalls=recalls)


class TestPartitionSet:
    def test_alignment_enforced(self):
        bad = Partition(labels=np.array([0, 1]), ids=["x", "y"])
        with pytest.raises(DdceError, match="base partitions are not aligned on ids"):
            PartitionSet(partitions=[P([0, 1]), bad])

    def test_recall_count_checked(self):
        with pytest.raises(DdceError):
            TS([[0, 1], [0, 1]], recalls=[0.5])

    def test_needs_at_least_one(self):
        with pytest.raises(DdceError):
            PartitionSet(partitions=[])

    def test_labels_matrix(self):
        ts = TS([[0, 1, -1], [2, 2, 0]])
        assert ts.labels.tolist() == [[0, 1, -1], [2, 2, 0]]
        assert TS([[], []]).labels.shape == (2, 0)

    def test_incidence_built_once(self):
        ts = TS([[0, 1, -1], [2, 2, 0]])
        assert ts.incidence.tolist() == [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]]
        assert ts.incidence is ts.incidence
        assert TS([[-1, -1]]).incidence.shape == (2, 0)


class TestKTarget:
    def test_unanimous(self):
        assert k_target(TS([[0, 0, 1, 1, 2, 3]] * 3)) == 4

    def test_median_odd(self):
        ts = TS([
            [0, 0, 1, 1, 1, 1, 1],
            [0, 0, 1, 1, 2, 2, 2],
            [0, 1, 2, 3, 4, 5, 6],
        ])
        assert k_target(ts) == 3

    def test_median_even_rounds_up(self):
        ts = TS([
            [0, 0, 0, 0, 1, 1],
            [0, 0, 1, 1, 2, 3, ][:6],
        ])
        # counts {2, 4}: median 3.0 -> 3
        assert k_target(ts) == 3
        ts2 = TS([
            [0, 0, 0, 0, 1, 1],
            [0, 1, 2, 3, 4, 4],
        ])
        # counts {2, 5}: median 3.5 rounds up to 4
        assert k_target(ts2) == 4

    def test_minimum_one(self):
        assert k_target(TS([[-1, -1, -1]])) == 1


IDENTICAL = [0, 0, 0, 1, 1, 1, 2, 2, 2]


class TestCspa:
    def test_identical_partitions_recovered(self):
        ts = TS([IDENTICAL] * 4)
        out = cspa(ts)
        assert nmi(out, ts.partitions[0]) == 1.0

    def test_co_association_fraction(self):
        ts = TS([
            [0, 0, 1],
            [0, 0, 1],
            [0, 1, 1],
            [0, 1, 0],
        ])
        S = co_association(ts)
        assert S[0, 1] == pytest.approx(0.5)

    def test_outlier_never_co_associates(self):
        ts = TS([[0, 0, -1], [0, 0, -1]])
        S = co_association(ts)
        assert S[0, 2] == 0.0 and S[2, 2] == 0.0

    def test_unanimous_outlier_stays_outlier(self):
        ts = TS([[0, 0, 1, 1, -1]] * 3)
        assert cspa(ts).labels[4] == -1

    @pytest.mark.parametrize("labelsets", [
        [[0, 1, 2, 3], [3, 2, 1, 0]],
        [[-1, -1, -1], [0, -1, 1]],
    ])
    def test_all_isolated_all_outliers(self, labelsets):
        out = cspa(TS(labelsets))
        assert out.labels.tolist() == [-1] * len(labelsets[0])

    # Exhaustive oracle instances: clean block structure where the
    # co-association consensus should reach the enumeration optimum.
    ORACLE_INSTANCES = [
        [[0, 0, 0, 1, 1, 1, 2, 2, 2]] * 3,
        [[0, 0, 0, 0, 1, 1, 1, 1, 1]] * 2,
        [[0, 0, 0, 1, 1, 1, 2, 2, 2],
         [0, 0, 0, 1, 1, 1, 2, 2, 2],
         [0, 0, 1, 1, 1, 1, 2, 2, 2]],
        [[0, 0, 0, 0, 1, 1, 1, 1],
         [0, 0, 0, 0, 1, 1, 1, 1],
         [0, 0, 0, 1, 1, 1, 1, 1],
         [0, 0, 0, 0, 0, 1, 1, 1]],
        [[0, 0, 1, 1, 2, 2]] * 2,
        [[0, 0, 0, 0, 1, 1, 1, 1, 1],
         [0, 0, 0, 1, 1, 1, 1, 1, 1]],
    ]

    @pytest.mark.parametrize("idx", range(len(ORACLE_INSTANCES)))
    def test_matches_exhaustive_oracle(self, idx):
        labelsets = self.ORACLE_INSTANCES[idx]
        ts = TS(labelsets)
        out = cspa(ts)
        achieved = ref_nmi_sum(out.labels, ts.labels)
        best = max(
            ref_nmi_sum(cand, ts.labels)
            for cand in partitions_into_k(ts.n, k_target(ts))
        )
        assert achieved >= best - 1e-9


class TestHgpa:
    def test_identical_equal_sizes_zero_cut(self):
        ts = TS([[0, 0, 0, 0, 1, 1, 1, 1]] * 2)
        out = hgpa(ts, seed=0)
        assert hyperedge_cut(ts, out.labels) == 0
        assert nmi(out, ts.partitions[0]) == 1.0

    def test_single_cluster_forced_two_parts(self):
        # k_target is 2, so the one six-member cluster must be cut.
        ts = TS([[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]])
        out = hgpa(ts, seed=0)
        sizes = np.bincount(out.labels)
        assert sorted(sizes.tolist()) == [3, 3]
        assert hyperedge_cut(ts, out.labels) == 1

    def test_eight_point_instance_matches_balanced_split_oracle(self):
        labelsets = [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 1, 1, 2, 2, 3, 3],
        ]
        ts = TS(labelsets)
        assert k_target(ts) == 2
        out = hgpa(ts, seed=0)
        edges = ref_hyperedges(labelsets)
        oracle_best = min(
            hyperedge_cut_value(edges, labels) for labels in balanced_splits(8, 2)
        )
        assert hyperedge_cut(ts, out.labels) <= oracle_best

    def test_balance_respected(self):
        rng = np.random.default_rng(0)
        ts = TS([rng.integers(0, 3, size=17).tolist() for _ in range(3)])
        out = hgpa(ts, seed=1)
        k = k_target(ts)
        sizes = np.bincount(out.labels, minlength=k)
        assert all(abs(int(s) - 17 / k) <= 1 for s in sizes)

    def test_deterministic(self):
        ts = TS([[0, 0, 1, 1, 2, 2, 0, 1], [0, 1, 1, 2, 2, 0, 0, 1]])
        a = hgpa(ts, seed=5)
        b = hgpa(ts, seed=5)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("labelsets", [
        [[0, 0, 1, 1, 2], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],  # counts 3, 1, 1
        [[-1, -1, -1, -1]] * 2,  # no hyperedges
    ])
    def test_one_part_or_no_hyperedges_all_zero(self, labelsets):
        ts = TS(labelsets)
        assert k_target(ts) == 1
        assert hgpa(ts, seed=2).labels.tolist() == [0] * ts.n


class TestMcla:
    def test_identical_partitions_recovered(self):
        ts = TS([IDENTICAL] * 5)
        out = mcla(ts)
        assert nmi(out, ts.partitions[0]) == 1.0

    def test_unanimous_outlier(self):
        ts = TS([[0, 0, 1, 1, -1]] * 3)
        assert mcla(ts).labels[4] == -1

    def test_nine_point_manual_trace(self):
        # Three partitions; the third moves samples 2 and 3 across blocks.
        # Meta-clusters group the column-wise duplicates, so sample 2
        # associates 2/3 with the first meta-cluster and 1/3 with the
        # second, and symmetrically for sample 3.
        ts = TS([
            [0, 0, 0, 1, 1, 1, 2, 2, 2],
            [0, 0, 0, 1, 1, 1, 2, 2, 2],
            [0, 0, 1, 0, 1, 1, 2, 2, 2],
        ])
        out = mcla(ts)
        assert out.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_argmax_tie_takes_lowest_meta(self):
        # One model splits, one merges: sample 0 ties between meta-clusters.
        ts = TS([[0, 0, 1, 1], [0, 0, 0, 0]])
        out = mcla(ts)
        assert out.labels[0] == out.labels[1]


def random_labelsets(seed: int) -> list[list[int]]:
    """K = 1..6 partitions of n = 1..30 samples with arbitrary label values
    and outliers; every fourth set is all outliers, all singletons or K
    copies of one partition."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 7)), int(rng.integers(1, 31))
    kind = seed % 4
    if kind == 1:
        return [[-1] * n for _ in range(k)]
    if kind == 2:
        return [rng.permutation(n).tolist() for _ in range(k)]
    labelsets = []
    for _ in range(k):
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n) * 5 + 3
        labels[rng.random(n) < rng.random() * 0.6] = -1
        labelsets.append(labels.tolist())
    return [labelsets[0]] * k if kind == 3 else labelsets


class TestIncidenceOracles:
    """Seeded battery checking the incidence-matrix products against the
    pair-loop and per-edge definitions."""

    @pytest.mark.parametrize("seed", range(40))
    def test_co_association_equals_pair_loop(self, seed):
        labelsets = random_labelsets(seed)
        S = co_association(TS(labelsets))
        assert S.dtype == np.float64
        assert S.tolist() == ref_co_association(labelsets)

    @pytest.mark.parametrize("seed", range(40))
    def test_hyperedge_cut_equals_per_edge_count(self, seed):
        """The cut a descent returns equals the per-edge count of the parts
        it leaves, from seeded balanced starts at k_target and random k."""
        labelsets = random_labelsets(seed)
        ts = TS(labelsets)
        edges = ref_hyperedges(labelsets)
        rng = np.random.default_rng(1000 + seed)
        for k in (min(k_target(ts), ts.n), *rng.integers(1, ts.n + 1, size=3).tolist()):
            part = np.empty(ts.n, dtype=int)
            part[rng.permutation(ts.n)] = np.arange(ts.n) % k
            cut = _hgpa_descend(ts.incidence, k, part)
            assert cut == hyperedge_cut_value(edges, part.tolist())


class TestHgpaOracle:
    @pytest.mark.parametrize("seed", range(180))
    def test_matches_brute_force_cut_oracle(self, seed):
        """Labels equal the oracle's at k_target."""
        labelsets = random_labelsets(seed)
        assert hgpa(TS(labelsets), seed=seed).labels.tolist() == ref_hgpa(labelsets, seed)


class TestMclaOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_definition(self, seed):
        labelsets = random_labelsets(seed)
        assert mcla(TS(labelsets)).labels.tolist() == ref_mcla(labelsets)


class TestChm:
    def test_identical_partitions(self):
        ts = TS([IDENTICAL] * 3)
        out, details = chm_with_details(ts)
        assert nmi(out, ts.partitions[0]) == 1.0
        # All three candidates tie at K; the similarity-partitioning one wins.
        assert details["chosen_candidate"] == "CSPA"

    def test_sum_is_at_least_each_candidate(self):
        rng = np.random.default_rng(3)
        ts = TS([rng.integers(-1, 3, size=10).tolist() for _ in range(3)])
        out = chm(ts, seed=0)
        best = ref_nmi_sum(out.labels, ts.labels)
        for cand in (cspa(ts), hgpa(ts, seed=0), mcla(ts)):
            assert best >= ref_nmi_sum(cand.labels, ts.labels) - 1e-12


class TestBok:
    def test_identical(self):
        ts = TS([IDENTICAL] * 3)
        assert bok(ts) is ts.partitions[0]

    def test_two_agreeing_beat_divergent(self):
        # NMI between the checkerboard pair is 0, so the agreeing pair sums
        # to 2 while the divergent one only reaches 1.
        ts = TS([[0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]])
        out = bok(ts)
        assert out is ts.partitions[0]

    def test_single_model(self):
        ts = TS([[0, 1, 0, -1]])
        assert bok(ts) is ts.partitions[0]

    def test_output_is_member_of_input_set(self):
        rng = np.random.default_rng(11)
        ts = TS([rng.integers(-1, 4, size=12).tolist() for _ in range(5)])
        assert any(bok(ts) is p for p in ts.partitions)


class TestOutlierVote:
    def test_majority_of_five(self):
        ts = TS([[-1], [-1], [-1], [0], [0]])
        assert outlier_vote(ts).tolist() == [True]

    def test_two_of_five_not_enough(self):
        ts = TS([[-1], [-1], [0], [0], [0]])
        assert outlier_vote(ts).tolist() == [False]

    def test_exact_tie_is_non_outlier(self):
        ts = TS([[-1], [-1], [0], [0]])
        assert outlier_vote(ts).tolist() == [False]

    def test_index_sets_partition_everything(self):
        rng = np.random.default_rng(2)
        ts = TS([rng.integers(-1, 2, size=9).tolist() for _ in range(5)])
        vote = outlier_vote(ts)
        assert vote.dtype == bool and vote.shape == (9,)
        i_out, i_nout = np.flatnonzero(vote), np.flatnonzero(~vote)
        assert sorted(i_out.tolist() + i_nout.tolist()) == list(range(9))

    def test_adding_all_outlier_model_only_grows_i_out(self):
        rng = np.random.default_rng(4)
        base = [rng.integers(-1, 2, size=8).tolist() for _ in range(4)]
        before = set(np.flatnonzero(outlier_vote(TS(base))).tolist())
        after = set(np.flatnonzero(outlier_vote(TS(base + [[-1] * 8]))).tolist())
        assert before <= after


class TestBokv:
    def test_gate_closed_is_bit_identical_to_bok(self):
        rng = np.random.default_rng(6)
        labelsets = [rng.integers(-1, 3, size=10).tolist() for _ in range(5)]
        recalls = [0.4, 0.4, 0.6, 0.4, 0.4]
        ts = TS(labelsets, recalls=recalls)
        out, details = bokv_with_details(ts)
        assert details["gate_open"] is False
        assert out is bok(ts)

    def test_identical_partitions_gate_open(self):
        ts = TS([IDENTICAL] * 5, recalls=[0.9] * 5)
        out = bokv(ts)
        assert nmi(out, P(IDENTICAL)) == 1.0

    def test_requires_recalls(self):
        with pytest.raises(DdceError):
            bokv(TS([[0, 1]]))

    def test_voting_catches_outliers_bok_absorbs(self):
        # Hand-built: two identical base models absorb the two true
        # outliers into clusters and dominate the agreement sum, while
        # three mutually divergent models flag them. Voting forces both
        # samples out even though the winning partition absorbed them.
        absorb = [0, 0, 0, 1, 1, 1, 0, 1]
        ts = TS(
            [
                absorb,
                absorb,
                [2, 1, 1, 2, 2, 2, -1, -1],
                [2, 1, 2, -1, 2, 1, -1, -1],
                [2, 2, 1, 1, 0, 1, -1, -1],
            ],
            recalls=[0.9, 0.9, 0.8, 0.7, 0.6],
        )
        bok_out = bok(ts)
        assert bok_out.labels.tolist()[6:] == [0, 1]
        out, details = bokv_with_details(ts)
        assert details["gate_open"] is True
        assert out.labels.tolist() == [0, 0, 0, 1, 1, 1, -1, -1]

    def test_all_voted_outlier(self):
        ts = TS([[-1, -1], [-1, -1], [-1, -1]], recalls=[0.9, 0.9, 0.9])
        out = bokv(ts)
        assert out.labels.tolist() == [-1, -1]

    def test_winner_restricted_to_nonoutliers(self):
        # The winner is chosen on voted non-outlier indices only: model 0
        # matches the consensus structure there even though it disagrees
        # wildly on the voted-out samples.
        ts = TS(
            [
                [0, 0, 1, 1, 2, 3],
                [0, 0, 1, 1, -1, -1],
                [0, 0, 1, 1, -1, -1],
            ],
            recalls=[0.9, 0.9, 0.9],
        )
        out, details = bokv_with_details(ts)
        assert details["winner_index"] == 0
        assert out.labels.tolist() == [0, 0, 1, 1, -1, -1]


def _bokv_case(seed: int):
    """A random labeling set and recalls; the seed picks the label mode
    (mixed, none -1, all -1, mostly -1) and whether the gate can open."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 7)), int(rng.integers(0, 41))
    mode = seed % 4
    low = 0 if mode == 1 else -1
    high = 0 if mode == 2 else int(rng.integers(1, 6))
    labelsets = rng.integers(low, high, size=(k, n))
    if mode == 3:
        labelsets[rng.random((k, n)) < 0.6] = -1
    recalls = (rng.uniform(0.5, 1.0, size=k) if seed % 8 < 4 else rng.choice([0.2, 0.5, 0.9], size=k))
    return labelsets.tolist(), recalls.tolist()


def _assert_same_choice(ref, out, winner):
    """Winner and labels as the oracle's; where its top two sums lie
    within 1e-9 of each other, either of them may win."""
    if ref["winner"] is None:
        assert winner is None and out.labels.tolist() == ref["labels"]
    elif winner == ref["winner"]:
        assert out.labels.tolist() == ref["labels"]
    else:
        sums = ref["nmi_sums"]
        near = [i for i, s in enumerate(sums) if s >= max(sums) - 1e-9]
        assert len(near) > 1 and winner in near


class TestBokvOracle:
    @pytest.mark.parametrize("seed", range(240))
    def test_matches_definition(self, seed):
        labelsets, recalls = _bokv_case(seed)
        ts = TS(labelsets, recalls=recalls)
        ref = ref_bokv(labelsets, recalls)
        out, details = bokv_with_details(ts)
        assert details["gate_open"] is ref["gate_open"]
        if ref["nmi_sums"] is None:
            assert details["nmi_sums"] is None
        else:
            assert np.allclose(details["nmi_sums"], ref["nmi_sums"], rtol=0, atol=1e-12)
        _assert_same_choice(ref, out, details["winner_index"])
        if not ref["gate_open"]:
            assert out is ts.partitions[details["winner_index"]]
        # BOK is the gate-closed case: every sample counts, a member wins.
        out = bok(ts)
        winner = next(i for i, p in enumerate(ts.partitions) if p is out)
        _assert_same_choice(ref_bokv(labelsets, [0.0] * len(labelsets)), out, winner)

    def test_battery_covers_every_regime(self):
        refs = [ref_bokv(*_bokv_case(seed)) for seed in range(240)]
        cases = [_bokv_case(seed) for seed in range(240)]
        assert any(r["gate_open"] for r in refs) and not all(r["gate_open"] for r in refs)
        assert any(r["winner"] is None for r in refs)  # all voted out
        assert any(len(ls[0]) == 0 for ls, _ in cases)
        assert any(r["gate_open"] and -1 not in r["labels"] and r["labels"] for r in refs)


class TestRunConsensus:
    def test_dispatch_names(self):
        ts = TS([IDENTICAL] * 3, recalls=[0.9] * 3)
        for name in ("CHM", "BOK", "BOKV"):
            part, details = run_consensus(name, ts, seed=0)
            assert part.n == 9
        with pytest.raises(DdceError):
            run_consensus("NOPE", ts)

    def test_outputs_aligned(self):
        rng = np.random.default_rng(9)
        ts = TS([rng.integers(-1, 3, size=11).tolist() for _ in range(4)], recalls=[0.8] * 4)
        for name in ("CHM", "BOK", "BOKV"):
            part, _ = run_consensus(name, ts, seed=0)
            assert part.ids == ts.ids

    @pytest.mark.parametrize("fn", [
        lambda ts: run_consensus("CHM", ts)[0], lambda ts: run_consensus("BOK", ts)[0],
        lambda ts: run_consensus("BOKV", ts)[0], cspa, hgpa, mcla,
    ], ids=["CHM", "BOK", "BOKV", "CSPA", "HGPA", "MCLA"])
    def test_empty_set_gives_empty_partition(self, fn):
        part = fn(TS([[], [], []], recalls=[0.5, 0.6, 0.7]))
        assert part.n == 0 and part.ids == [] and part.labels.dtype == np.int64


class TestAverageLinkage:
    def test_two_clean_blocks(self):
        D = np.ones((4, 4))
        D[0, 1] = D[1, 0] = 0.1
        D[2, 3] = D[3, 2] = 0.1
        np.fill_diagonal(D, 0.0)
        labels = average_linkage_labels(D, 2)
        assert labels.tolist() == [0, 0, 1, 1]

    def test_k_one_merges_all(self):
        D = np.random.default_rng(0).uniform(size=(5, 5))
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        assert set(average_linkage_labels(D, 1).tolist()) == {0}

    def test_k_at_least_n_keeps_singletons(self):
        D = np.ones((3, 3))
        np.fill_diagonal(D, 0.0)
        assert average_linkage_labels(D, 5).tolist() == [0, 1, 2]
        empty = average_linkage_labels(np.empty((0, 0)), 5)
        assert empty.dtype == np.int64 and empty.size == 0

    def test_average_rounding_onto_a_row_minimum(self):
        # Row 0's nearest is 2 (0.5 against 0.5 + ulp). Merging 1 and 2
        # gives (0.5 + ulp + 0.5) / 2, which rounds to 0.5: row 0 keeps its
        # minimum but must move its nearest column to the merged cluster 1.
        up = np.nextafter(0.5, 1.0)
        D = np.array([[0.0, up, 0.5], [up, 0.0, 0.1], [0.5, 0.1, 0.0]])
        assert (up + 0.5) / 2 == 0.5
        assert average_linkage_labels(D, 2).tolist() == [0, 1, 1]
        assert average_linkage_labels(D, 1).tolist() == [0, 0, 0]


def linkage_case(seed: int) -> tuple[np.ndarray, int]:
    """A distance matrix and a cut k from 1 to n + 2. Seeds cycle through
    co-association distances of :func:`random_labelsets` (ties at
    multiples of 1/K), random symmetric distances, symmetric distances in
    quarters (ties everywhere), the same with some entries one ulp above
    their quarter (an average of the two can round onto a row's minimum),
    and n = 0 or n = 1."""
    rng = np.random.default_rng(3000 + seed)
    kind = seed % 5
    if kind == 0:
        D = 1.0 - np.array(ref_co_association(random_labelsets(seed)))
    else:
        n = int(rng.integers(0, 2)) if kind == 4 else int(rng.integers(2, 41))
        A = rng.random((n, n))
        if kind == 1:
            D = (A + A.T) / 2
        else:
            D = np.floor(A * 4) / 4 + 0.25
            if kind == 3:
                D = np.where(rng.random((n, n)) < 0.5, np.nextafter(D, np.inf), D)
            D = np.maximum(D, D.T)
    np.fill_diagonal(D, 0.0)
    return D, int(rng.integers(1, len(D) + 3))


class TestAverageLinkageOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_matches_direct_search(self, seed):
        D, k = linkage_case(seed)
        labels = average_linkage_labels(D, k)
        assert labels.dtype == np.int64
        assert labels.tolist() == ref_average_linkage(D.tolist(), k)

    @pytest.mark.parametrize("seed", [s for s in range(120) if s % 5 in (0, 3)])
    def test_every_cut_of_a_tied_matrix(self, seed):
        """Every k from 1 to n + 1 on one tie-heavy matrix."""
        D, _ = linkage_case(seed)
        for k in range(1, len(D) + 2):
            assert average_linkage_labels(D, k).tolist() == ref_average_linkage(D.tolist(), k)

    @pytest.mark.parametrize("n, values", [
        (2, (0.0, 0.5, 1.0)), (3, (0.0, 0.5, 1.0)), (4, (0.0, 0.5, 1.0)), (5, (0.5, 1.0)),
    ], ids=["n2", "n3", "n4", "n5"])
    def test_every_small_tied_matrix(self, n, values):
        """Every finite symmetric matrix of size n with off-diagonal entries
        drawn from ``values``, cut at every k from 1 to n. Averages of these
        values land on each other, so merge ties arise at every step."""
        upper = np.triu_indices(n, 1)
        for entries in itertools.product(values, repeat=len(upper[0])):
            D = np.zeros((n, n))
            D[upper] = entries
            D = D + D.T
            for k in range(1, n + 1):
                assert average_linkage_labels(D, k).tolist() == ref_average_linkage(D.tolist(), k)

    def test_battery_covers_small_and_large_cuts(self):
        cases = [linkage_case(seed) for seed in range(120)]
        assert {len(D) for D, _ in cases} >= {0, 1}
        assert any(k >= len(D) > 1 for D, k in cases)
        assert any(1 < k < len(D) - 1 for D, k in cases)
