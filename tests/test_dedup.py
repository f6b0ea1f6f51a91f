"""Dedup tests: MinHash accuracy, LSH recall and cluster semantics are
all checked against brute-force set-arithmetic oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.classifier import ngram_hashes
from corpusprep.corpus import Corpus, ingest_record
from corpusprep.dedup import (
    DedupConfig,
    FrequencySignals,
    MinHashSignature,
    UnionFind,
    build_clusters,
    compute_signatures,
    estimated_jaccard,
    exact_jaccard,
    lsh_candidate_pairs,
    minhash_signature,
    read_clusters,
    retain_top_k,
    run_dedup,
    shingle,
    write_clusters,
)
from corpusprep.errors import ConfigError

from conftest import (
    cluster_pairs,
    make_record,
    oracle_duplicate_pairs,
    oracle_jaccard,
    oracle_shingles,
)

CFG = DedupConfig()


def doc_from(text: str, idx: int, **kwargs):
    return ingest_record(json.dumps(make_record(text, idx, **kwargs)))


class TestShingle:
    def test_window_count(self):
        assert len(shingle("a b c", 2)) == 2

    def test_identical_windows_collapse(self):
        assert len(shingle("a a a a", 2)) == 1

    def test_short_text_single_shingle(self):
        assert len(shingle("a b", 5)) == 1

    def test_matches_string_oracle_cardinality(self):
        rng = np.random.default_rng(3)
        from conftest import make_text, make_vocab

        vocab = make_vocab(rng, 500)
        for _ in range(20):
            text = make_text(rng, vocab, int(rng.integers(3, 80)))
            for w in (2, 5, 9):
                assert len(shingle(text, w)) == len(oracle_shingles(text, w))

    def test_case_insensitive(self):
        assert shingle("A b C", 2).shingles == shingle("a B c", 2).shingles

    @given(
        st.integers(1, 6),
        st.lists(
            st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8),
            min_size=7,
            max_size=40,
        ),
        st.sampled_from([" ", "\n", " \t "]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shingles_are_the_classifier_ngrams(self, width, words, sep):
        text = sep.join(words)
        assert shingle(text, width).shingles == frozenset(ngram_hashes(text, (width,)))


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        s = shingle("the quick brown fox jumps over the lazy dog again", 3)
        a, b = minhash_signature(s, CFG), minhash_signature(s, CFG)
        assert estimated_jaccard(a, b) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        rng = np.random.default_rng(11)
        from corpusprep.dedup import ShingleSet

        a = ShingleSet(frozenset(int(x) for x in rng.integers(0, 2**63, 300)), 5)
        b = ShingleSet(frozenset(int(x) + 2**63 for x in rng.integers(0, 2**62, 300)), 5)
        est = estimated_jaccard(minhash_signature(a, CFG), minhash_signature(b, CFG))
        assert est <= 0.05

    def test_empty_set_rejected(self):
        from corpusprep.dedup import ShingleSet

        with pytest.raises(ValueError):
            minhash_signature(ShingleSet(frozenset(), 5), CFG)

    def test_deterministic(self):
        s = shingle("alpha beta gamma delta epsilon zeta eta theta", 2)
        a, b = minhash_signature(s, CFG), minhash_signature(s, CFG)
        assert np.array_equal(a.values, b.values)

    def test_estimate_tracks_exact_jaccard_200_pairs(self):
        """|estimate - exact| <= 0.15 for >= 95% of 200 random set pairs."""
        rng = np.random.default_rng(2024)
        from corpusprep.dedup import ShingleSet

        within = 0
        for _ in range(200):
            n_shared = int(rng.integers(0, 150))
            n_only_a = int(rng.integers(1, 100))
            n_only_b = int(rng.integers(1, 100))
            pool = rng.integers(0, 2**63, size=n_shared + n_only_a + n_only_b)
            pool = np.unique(pool)
            shared = pool[:n_shared]
            only_a = pool[n_shared : n_shared + n_only_a]
            only_b = pool[n_shared + n_only_a :]
            sa = set(int(x) for x in shared) | set(int(x) for x in only_a)
            sb = set(int(x) for x in shared) | set(int(x) for x in only_b)
            exact = oracle_jaccard(sa, sb)
            est = estimated_jaccard(
                minhash_signature(ShingleSet(frozenset(sa), 5), CFG),
                minhash_signature(ShingleSet(frozenset(sb), 5), CFG),
            )
            within += abs(est - exact) <= 0.15
        assert within / 200 >= 0.95

    def test_mismatched_configs_rejected(self):
        s = shingle("one two three four five six", 2)
        a = minhash_signature(s, CFG)
        b = minhash_signature(s, DedupConfig(perm_seed=99))
        with pytest.raises(ConfigError):
            estimated_jaccard(a, b)


class TestLsh:
    def test_identical_signatures_pair(self):
        s = shingle("same text everywhere in both documents exactly alike", 3)
        sigs = {"a": minhash_signature(s, CFG), "b": minhash_signature(s, CFG)}
        assert lsh_candidate_pairs(sigs, CFG) == [("a", "b")]

    def test_everywhere_different_no_pair(self):
        sigs = {
            "a": MinHashSignature(np.arange(128, dtype=np.uint64), CFG.perm_seed),
            "b": MinHashSignature(np.arange(1000, 1128, dtype=np.uint64), CFG.perm_seed),
        }
        assert lsh_candidate_pairs(sigs, CFG) == []

    def test_mismatched_config_error(self):
        sigs = {
            "a": MinHashSignature(np.arange(128, dtype=np.uint64), CFG.perm_seed),
            "b": MinHashSignature(np.arange(64, dtype=np.uint64), CFG.perm_seed),
        }
        with pytest.raises(ConfigError):
            lsh_candidate_pairs(sigs, CFG)

    def test_output_sorted(self, small_planted):
        corpus, _, _, _ = small_planted
        pairs = lsh_candidate_pairs(compute_signatures(corpus, CFG), CFG)
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)


class TestBuildClusters:
    def test_exact_triples_cluster(self):
        docs = [
            doc_from("same exact text to copy verbatim", i, domain=f"d{i}.example")
            for i in range(3)
        ]
        corpus = Corpus(docs)
        clusters = build_clusters(corpus, [], CFG)
        assert len(clusters) == 1
        assert clusters[0].signals.occurrence_count == 3

    def test_transitive_chain_single_cluster(self):
        # Three docs where each adjacent pair clears tau: one component.
        rng_docs = [
            doc_from("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16", 901),
            doc_from("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 zz", 902),
            doc_from("w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15", 903),
        ]
        c = Corpus(rng_docs)
        sh = {d.doc_id: shingle(d.text, 2) for d in c}
        a, b, cc = [d.doc_id for d in c.documents]
        pairs = [(a, b), (b, cc), (a, cc)]
        usable = [
            p for p in pairs if exact_jaccard(sh[p[0]], sh[p[1]]) >= 0.8
        ]
        assert len(usable) >= 2  # chain exists
        clusters = build_clusters(c, pairs, DedupConfig(shingle_width=2), shingle_sets=sh)
        assert len(clusters) == 1
        assert set(clusters[0].member_ids) == {a, b, cc}

    def test_frequency_signals_hand_case(self):
        text = "identical text in every copy of this record set"
        docs = [
            doc_from(text, 0, snapshot="S1", domain="d1.example"),
            doc_from(text, 1, snapshot="S1", domain="d2.example"),
            doc_from(text, 2, snapshot="S2", domain="d2.example"),
        ]
        clusters = build_clusters(Corpus(docs), [], CFG)
        assert len(clusters) == 1
        # Distinct-count oracle by hand: 3 members, snapshots {S1,S2}, domains {d1,d2}.
        assert clusters[0].signals == FrequencySignals(3, 2, 2)

    def test_partition_property(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        total = sum(c.signals.occurrence_count for c in clusters)
        assert total == len(corpus)
        all_members = [m for c in clusters for m in c.member_ids]
        assert len(all_members) == len(set(all_members)) == len(corpus)

    def test_frequency_signals_equal_distinct_count_oracle(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        for c in clusters:
            docs = [corpus.get(i) for i in c.member_ids]
            assert c.signals.occurrence_count == len(docs)
            assert c.signals.snapshot_count == len({d.snapshot_id for d in docs})
            assert c.signals.domain_count == len({d.domain for d in docs})

    def test_cluster_ids_sorted_and_min_member(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        ids = [c.cluster_id for c in clusters]
        assert ids == sorted(ids)
        for c in clusters:
            assert c.cluster_id == min(c.member_ids)


class TestRetainTopK:
    def make_cluster_corpus(self, texts):
        docs = [doc_from(t, 800 + i) for i, t in enumerate(texts)]
        corpus = Corpus(docs)
        clusters = build_clusters(
            corpus, [], DedupConfig(jaccard_threshold=0.01, shingle_width=1)
        )
        return corpus, clusters

    def test_top_k_size(self):
        text = "one two three four five six seven eight"
        docs = [doc_from(text, 810 + i, domain=f"m{i}.example") for i in range(5)]
        corpus = Corpus(docs)
        clusters = build_clusters(corpus, [], CFG)
        assert len(clusters) == 1
        filled = retain_top_k(clusters[0], corpus, DedupConfig(top_k=3))
        assert len(filled.retained_ids) == 3
        assert set(filled.retained_ids) <= set(filled.member_ids)

    def test_singleton(self):
        corpus, clusters = self.make_cluster_corpus(["lonely text here indeed"])
        filled = retain_top_k(clusters[0], corpus, CFG)
        assert filled.retained_ids == clusters[0].member_ids

    def test_equal_length_tie_break_by_id(self):
        text = "same size text here"
        docs = [doc_from(text, 820, domain="a.example"), doc_from(text, 821, domain="b.example")]
        corpus = Corpus(docs)
        clusters = build_clusters(corpus, [], CFG)
        filled = retain_top_k(clusters[0], corpus, DedupConfig(top_k=2))
        assert filled.retained_ids == sorted(filled.member_ids)

    def test_rank_matches_sort_oracle(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        for c in clusters:
            docs = [corpus.get(i) for i in c.member_ids]
            expected = [
                d.doc_id
                for d in sorted(docs, key=lambda d: (-len(d.text), d.doc_id))
            ][: min(CFG.top_k, len(docs))]
            assert c.retained_ids == expected
            assert c.retained_ids[0] == expected[0]  # canonical

    def test_longer_text_first(self):
        short = "shared words one two three four five six seven"
        long = short + " extra tail words beyond"
        docs = [doc_from(short, 830), doc_from(long, 831)]
        corpus = Corpus(docs)
        clusters = build_clusters(
            corpus,
            [(docs[0].doc_id, docs[1].doc_id)],
            DedupConfig(jaccard_threshold=0.5, shingle_width=2),
            shingle_sets={d.doc_id: shingle(d.text, 2) for d in docs},
        )
        assert len(clusters) == 1
        filled = retain_top_k(clusters[0], corpus, CFG)
        assert corpus.get(filled.retained_ids[0]).text == normalize(long)


def normalize(t: str) -> str:
    from corpusprep.corpus import normalize_text

    return normalize_text(t)


class TestUnionFind:
    def test_min_roots(self):
        uf = UnionFind()
        uf.union("b", "c")
        uf.union("d", "e")
        uf.union("c", "d")
        assert uf.find("e") == "b"

    def test_order_independent(self):
        edges = [("a", "b"), ("c", "d"), ("b", "c"), ("x", "y")]
        uf1, uf2 = UnionFind(), UnionFind()
        for a, b in edges:
            uf1.union(a, b)
        for a, b in reversed(edges):
            uf2.union(a, b)
        nodes = ["a", "b", "c", "d", "x", "y"]
        assert [uf1.find(n) for n in nodes] == [uf2.find(n) for n in nodes]


class TestEndToEndDedup:
    def test_planted_recall_and_precision(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        predicted = cluster_pairs(clusters)
        truth = oracle_duplicate_pairs(corpus, CFG.shingle_width, CFG.jaccard_threshold)
        assert truth, "generator must plant duplicates"
        recall = len(predicted & truth) / len(truth)
        precision = len(predicted & truth) / len(predicted) if predicted else 1.0
        assert recall >= 0.9
        assert precision >= 0.95

    def test_exact_duplicates_always_clustered(self, small_planted):
        corpus, _, triples, records = small_planted
        # Regardless of LSH parameters: use a deliberately bad banding.
        bad_cfg = DedupConfig(num_perms=8, bands=1, rows=8)
        clusters, _ = run_dedup(corpus, bad_cfg)
        by_doc = {m: c.cluster_id for c in clusters for m in c.member_ids}
        by_hash: dict[str, set[str]] = {}
        for d in corpus:
            by_hash.setdefault(d.content_hash, set()).add(by_doc[d.doc_id])
        for chash, cluster_ids in by_hash.items():
            assert len(cluster_ids) == 1

    def test_byte_identical_across_runs_and_workers(self, small_planted, tmp_path):
        corpus, _, _, _ = small_planted
        out = []
        for i, workers in enumerate((1, 4)):
            clusters, annotated = run_dedup(corpus, CFG, workers=workers)
            path = tmp_path / f"clusters_{i}.jsonl"
            write_clusters(clusters, path)
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_cluster_file_round_trip(self, small_planted, tmp_path):
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        path = tmp_path / "clusters.jsonl"
        write_clusters(clusters, path)
        loaded = read_clusters(path)
        assert [c.to_record() for c in loaded] == [c.to_record() for c in clusters]

    def test_extra_annotation(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters, annotated = run_dedup(corpus, CFG)
        by_doc = {m: c for c in clusters for m in c.member_ids}
        for doc in annotated:
            c = by_doc[doc.doc_id]
            assert doc.extra["cluster_id"] == c.cluster_id
            assert doc.extra["freq:occurrence"] == str(c.signals.occurrence_count)

    def test_retained_estimated_jaccard_or_chain(self, small_planted):
        """Canonical-to-variant similarity >= tau or connected via a tau-chain;
        chain connectivity is exactly what the oracle components encode."""
        corpus, _, _, _ = small_planted
        clusters, _ = run_dedup(corpus, CFG)
        truth = oracle_duplicate_pairs(corpus, CFG.shingle_width, CFG.jaccard_threshold)
        for c in clusters:
            canonical = c.retained_ids[0]
            for other in c.retained_ids[1:]:
                pair = (min(canonical, other), max(canonical, other))
                assert pair in truth
