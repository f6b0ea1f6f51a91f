"""Per-signal upsampling and merged-distribution tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.dedup import DuplicateCluster
from corpusprep.errors import ConfigError, UnknownSignalError
from corpusprep.sampling import (
    UpsamplePolicy,
    WeightMap,
    build_weight_map,
    draw,
    merge_distributions,
    restrict_clusters,
    restrict_distribution,
    select_variant,
)

from conftest import annotated_doc


def singleton_cluster(doc_id: str) -> DuplicateCluster:
    return DuplicateCluster(
        cluster_id=doc_id,
        member_ids=[doc_id],
        retained_ids=[doc_id],
        occurrence_count=1, snapshot_count=1, domain_count=1,
    )


class TestTransforms:
    @pytest.mark.parametrize(
        "count,expected",
        [(1, 1.0), (8, 4.0), (10**6, 6.0), (2, 2.0), (3, 2.0), (63, 6.0), (64, 6.0)],
    )
    def test_log2_sublinear(self, count, expected):
        policy = UpsamplePolicy("freq:occurrence", "log2_sublinear", cap=6)
        assert policy.weight(count) == expected

    def test_threshold(self):
        policy = UpsamplePolicy("clf:a", "threshold", threshold=0.9, boost=5.0)
        assert policy.weight(0.95) == 5.0
        assert policy.weight(0.5) == 1.0

    def test_identity(self):
        policy = UpsamplePolicy("clf:a", "identity")
        assert policy.weight(0.37) == 0.37
        assert policy.weight(-1.0) == 0.0

    def test_log2_monotone_and_sublinear(self):
        policy = UpsamplePolicy("freq:occurrence", "log2_sublinear", cap=40)
        prev = 0.0
        for c in range(1, 4096):
            w = policy.weight(c)
            assert w >= prev
            assert policy.weight(2 * c) <= w + 1
            prev = w

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError):
            UpsamplePolicy("x", "cubic")


class TestBuildWeightMap:
    def docs(self):
        return [
            annotated_doc("d1", {"freq:occurrence": 1, "clf:a": 0.95})[0],
            annotated_doc("d2", {"freq:occurrence": 8, "clf:a": 0.2})[0],
        ]

    def test_weights_follow_transform(self):
        wm = build_weight_map(
            self.docs(), UpsamplePolicy("freq:occurrence", "log2_sublinear", cap=6)
        )
        assert wm.weights == {"d1": 1.0, "d2": 4.0}

    def test_unknown_signal_rejected(self):
        with pytest.raises(UnknownSignalError):
            build_weight_map(self.docs(), UpsamplePolicy("clf:nope"))

    def test_covers_all_docs(self):
        wm = build_weight_map(self.docs(), UpsamplePolicy("clf:a"))
        assert set(wm.weights) == {"d1", "d2"}


class TestMergeDistributions:
    def test_hand_computed_case(self):
        a = WeightMap("s1", {"d1": 1.0, "d2": 1.0})
        b = WeightMap("s2", {"d1": 1.0})
        merged = merge_distributions([a, b], [0.5, 0.5])
        assert merged["d1"] == 0.75
        assert merged["d2"] == 0.25

    def test_identical_maps_identity(self):
        a = WeightMap("s1", {"d1": 2.0, "d2": 6.0})
        b = WeightMap("s2", {"d1": 2.0, "d2": 6.0})
        merged = merge_distributions([a, b], [0.5, 0.5])
        assert merged["d1"] == pytest.approx(0.25, abs=1e-12)
        assert merged["d2"] == pytest.approx(0.75, abs=1e-12)

    def test_single_map_is_normalization(self):
        a = WeightMap("s1", {"d1": 3.0, "d2": 1.0})
        merged = merge_distributions([a], [1.0])
        assert merged == {"d1": 0.75, "d2": 0.25}

    def test_all_zero_map_names_signal(self):
        a = WeightMap("s1", {"d1": 0.0})
        with pytest.raises(ConfigError, match="s1"):
            merge_distributions([a], [1.0])

    def test_lambdas_must_sum_to_one(self):
        a = WeightMap("s1", {"d1": 1.0})
        b = WeightMap("s2", {"d1": 1.0})
        with pytest.raises(ConfigError):
            merge_distributions([a, b], [0.5, 0.6])

    def test_sums_to_one_random_maps(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n_maps = int(rng.integers(1, 5))
            n_docs = int(rng.integers(1, 30))
            docs = [f"d{i}" for i in range(n_docs)]
            maps = []
            for s in range(n_maps):
                weights = {d: float(w) for d, w in zip(docs, rng.random(n_docs) * 10)}
                weights[docs[int(rng.integers(0, n_docs))]] += 1.0  # ensure mass
                maps.append(WeightMap(f"s{s}", weights))
            lam = rng.random(n_maps) + 0.01
            lam = lam / lam.sum()
            lam = [float(x) for x in lam]
            lam[-1] = 1.0 - math.fsum(lam[:-1])
            merged = merge_distributions(maps, lam)
            assert abs(math.fsum(merged.values()) - 1.0) <= 1e-9

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.01, max_value=100), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100)
    def test_sums_to_one_property(self, weight_rows):
        docs = ["d0", "d1", "d2"]
        maps = [
            WeightMap(f"s{i}", dict(zip(docs, row)))
            for i, row in enumerate(weight_rows)
        ]
        lam = [1.0 / len(maps)] * len(maps)
        lam[-1] = 1.0 - math.fsum(lam[:-1])
        merged = merge_distributions(maps, lam)
        assert abs(math.fsum(merged.values()) - 1.0) <= 1e-9

    def test_dominance_bound_removing_one_signal(self):
        """Deleting signal s (renormalizing the rest) moves any doc's
        probability by at most lambda_s."""
        rng = np.random.default_rng(23)
        docs = [f"d{i}" for i in range(20)]
        for _ in range(50):
            n_maps = int(rng.integers(2, 5))
            maps = []
            for s in range(n_maps):
                weights = {d: float(w) + 0.01 for d, w in zip(docs, rng.random(len(docs)))}
                maps.append(WeightMap(f"s{s}", weights))
            lam = rng.random(n_maps) + 0.05
            lam = [float(x) for x in lam / lam.sum()]
            lam[-1] = 1.0 - math.fsum(lam[:-1])
            merged = merge_distributions(maps, lam)
            for drop in range(n_maps):
                rest = [m for i, m in enumerate(maps) if i != drop]
                rest_lam = [l for i, l in enumerate(lam) if i != drop]
                scale = math.fsum(rest_lam)
                rest_lam = [l / scale for l in rest_lam]
                rest_lam[-1] = 1.0 - math.fsum(rest_lam[:-1])
                reduced = merge_distributions(rest, rest_lam)
                for d in docs:
                    delta = abs(
                        merged.get(d, 0.0)
                        - reduced.get(d, 0.0)
                    )
                    assert delta <= lam[drop] + 1e-12

    def test_per_signal_contribution_capped(self):
        a = WeightMap("s1", {"d1": 100.0, "d2": 0.001})
        b = WeightMap("s2", {"d1": 1.0, "d2": 1.0})
        merged = merge_distributions([a, b], [0.3, 0.7])
        # Even with s1 all-in on d1, d1 cannot exceed lambda_1 + its share of s2.
        assert merged["d1"] <= 0.3 + 0.7 * 0.5 + 1e-12


class TestSelectVariant:
    def cluster(self, retained):
        return DuplicateCluster(
            cluster_id=retained[0],
            member_ids=sorted(retained),
            retained_ids=list(retained),
            occurrence_count=len(retained), snapshot_count=1, domain_count=1,
        )

    def test_round_robin(self):
        c = self.cluster(["a", "b", "c"])
        assert [select_variant(c, i) for i in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_singleton(self):
        c = self.cluster(["a"])
        assert all(select_variant(c, i) == "a" for i in range(5))

    def test_mod_arithmetic(self):
        c = self.cluster(["a", "b"])
        assert select_variant(c, 7) == "b"

    def test_exact_rotation_counts(self):
        c = self.cluster(["a", "b", "c"])
        reps = 4
        picks = [select_variant(c, i) for i in range(reps * 3)]
        for v in ("a", "b", "c"):
            assert picks.count(v) == reps


class TestDraw:
    def test_point_mass_cycles_variants(self):
        c = DuplicateCluster(
            cluster_id="a",
            member_ids=["a", "b", "c"],
            retained_ids=["a", "b", "c"],
            occurrence_count=3, snapshot_count=1, domain_count=1,
        )
        dist = {"a": 1.0}
        out = draw(dist, [c], seed=1, n=6)
        assert out == ["a", "b", "c", "a", "b", "c"]

    def test_same_seed_same_sequence(self):
        docs = [f"d{i}" for i in range(10)]
        dist = {d: 0.1 for d in docs}
        clusters = [singleton_cluster(d) for d in docs]
        assert draw(dist, clusters, seed=9, n=200) == draw(dist, clusters, seed=9, n=200)

    def test_different_seed_differs(self):
        docs = [f"d{i}" for i in range(10)]
        dist = {d: 0.1 for d in docs}
        clusters = [singleton_cluster(d) for d in docs]
        assert draw(dist, clusters, seed=1, n=200) != draw(dist, clusters, seed=2, n=200)

    def test_uniform_empirical_frequencies_within_3_sigma(self):
        m, n = 20, 1_000_000
        docs = [f"d{i:02d}" for i in range(m)]
        dist = {d: 1.0 / m for d in docs}
        clusters = [singleton_cluster(d) for d in docs]
        out = draw(dist, clusters, seed=31, n=n)
        sigma = math.sqrt((1 / m) * (1 - 1 / m) / n)
        counts = {d: 0 for d in docs}
        for d in out:
            counts[d] += 1
        for d in docs:
            assert abs(counts[d] / n - 1 / m) <= 3 * sigma

    def test_chi_square_goodness_of_fit(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        m, n = 100, 100_000
        probs = rng.random(m) + 0.05
        probs = probs / probs.sum()
        docs = [f"d{i:03d}" for i in range(m)]
        dist = dict(zip(docs, probs))
        clusters = [singleton_cluster(d) for d in docs]
        out = draw(dist, clusters, seed=47, n=n)
        counts = np.zeros(m)
        index = {d: i for i, d in enumerate(docs)}
        for d in out:
            counts[index[d]] += 1
        result = stats.chisquare(counts, f_exp=probs * n)
        assert result.pvalue >= 0.001

    def test_draw_count_validated(self):
        dist = {"d": 1.0}
        with pytest.raises(ConfigError):
            draw(dist, [singleton_cluster("d")], seed=0, n=0)


class TestRestriction:
    def test_restrict_distribution_renormalizes(self):
        dist = {"a": 0.5, "b": 0.3, "c": 0.2}
        r = restrict_distribution(dist, {"a", "b"})
        assert math.fsum(r.values()) == pytest.approx(1.0, abs=1e-12)
        assert r["a"] == pytest.approx(0.625)
        assert "c" not in r

    def test_restrict_clusters_filters_variants(self):
        c = DuplicateCluster("a", ["a", "b", "c"], ["a", "b", "c"], 3, 1, 1)
        out = restrict_clusters([c], {"b", "c"})
        assert out[0].retained_ids == ["b", "c"]

    def test_restrict_clusters_drops_empty(self):
        c = DuplicateCluster("a", ["a"], ["a"], 1, 1, 1)
        assert restrict_clusters([c], {"zzz"}) == []

    @staticmethod
    def _restrict_clusters_copying(clusters, doc_ids):
        """The earlier implementation, which copied every cluster."""
        allowed = set(doc_ids)
        out = []
        for c in clusters:
            retained = [i for i in c.retained_ids if i in allowed]
            if retained:
                out.append(DuplicateCluster(
                    c.cluster_id, list(c.member_ids), retained,
                    c.occurrence_count, c.snapshot_count, c.domain_count,
                ))
        return out

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 5)), max_size=12),
        st.sets(st.integers(0, 60)),
    )
    @settings(max_examples=200, deadline=None)
    def test_restrict_clusters_equals_the_copying_version(self, shapes, allowed_ints):
        clusters, next_id = [], 0
        for size, keep in shapes:
            members = [f"d{next_id + j:02d}" for j in range(size)]
            next_id += size
            clusters.append(
                DuplicateCluster(members[0], members, members[:keep][::-1], size, 1, 1)
            )
        allowed = {f"d{i:02d}" for i in allowed_ints}
        out = restrict_clusters(clusters, allowed)
        assert out == self._restrict_clusters_copying(clusters, allowed)
        for c in out:
            original = next(o for o in clusters if o.cluster_id == c.cluster_id)
            if c.retained_ids == original.retained_ids:
                assert c is original

    def test_restrict_to_nothing_rejected(self):
        dist = {"a": 1.0}
        with pytest.raises(ConfigError):
            restrict_distribution(dist, set())
