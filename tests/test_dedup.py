"""Dedup tests: MinHash accuracy, LSH recall and cluster semantics are
all checked against brute-force set-arithmetic oracles."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusprep.classifier import ngram_hashes
from corpusprep.corpus import Corpus, ingest_record
from corpusprep import dedup, hashing
from corpusprep.dedup import (
    DedupConfig,
    DuplicateCluster,
    UnionFind,
    build_clusters,
    compute_signatures,
    exact_jaccard,
    lsh_candidate_pairs,
    read_clusters,
    retain_top_k,
    run_dedup,
    shingle,
    write_clusters,
)
from corpusprep.errors import ConfigError
from corpusprep.hashing import WINDOW_BASE, hash64

from conftest import (
    cluster_pairs,
    make_record,
    make_text,
    make_vocab,
    oracle_duplicate_pairs,
    oracle_jaccard,
    oracle_shingles,
)

CFG = DedupConfig()


def doc_from(text: str, idx: int, **kwargs):
    return ingest_record(json.dumps(make_record(text, idx, **kwargs)))


def rows_by_id(corpus: Corpus, width: int) -> dict[str, np.ndarray]:
    return dict(zip((d.doc_id for d in corpus), shingle([d.text for d in corpus], width)))


def as_row(values) -> np.ndarray:
    """A set of ints as a shingle array: sorted, distinct, uint64."""
    return np.array(sorted(values), dtype=np.uint64)


_U64 = (1 << 64) - 1
_WORDS = st.one_of(
    st.sampled_from(["a", "A", "b", "Straße", "STRASSE", "İstanbul", "Жёлтый"]),
    st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8),
)
_SEPS = st.sampled_from([" ", "\n", " \t "])


def reference_mix64(z: int) -> int:
    """The splitmix64 finalizer on one Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def reference_shingles(text: str, width: int) -> frozenset[int]:
    """Shingle hashes one window at a time: the polynomial in WINDOW_BASE
    over hash64 of each lowercased word, mod 2^64, then the splitmix64
    finalizer. A text shorter than `width` has the hash64 of all its words."""
    words = text.lower().split()
    if len(words) < width:
        return frozenset([hash64(" ".join(words).encode("utf-8"))])
    out = set()
    for i in range(len(words) - width + 1):
        z = 0
        for word in words[i : i + width]:
            z = (z * WINDOW_BASE + hash64(word.encode("utf-8"))) & _U64
        out.add(reference_mix64(z))
    return frozenset(out)


@lru_cache(maxsize=None)
def reference_probes(k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Entry j: all bins b in ascending order of mix64((j * k + b) ^ seed)."""
    return tuple(
        tuple(sorted(range(k), key=lambda b: reference_mix64((j * k + b) ^ seed)))
        for j in range(k)
    )


def reference_signature(shingles: frozenset[int], cfg: DedupConfig) -> list[int]:
    """One text at a time: shingle x hashes to h = mix64(x ^ perm_seed) in
    bin h % num_perms, and each bin keeps its least h. Empty bin j then
    takes the first filled bin among all bins b, in ascending order of
    mix64((j * num_perms + b) ^ perm_seed)."""
    k, seed = cfg.num_perms, cfg.perm_seed & _U64
    bins: list[int | None] = [None] * k
    for x in shingles:
        h = reference_mix64(x ^ seed)
        if bins[h % k] is None or h < bins[h % k]:
            bins[h % k] = h
    out = []
    for j, value in enumerate(bins):
        if value is None:
            value = next(bins[b] for b in reference_probes(k, seed)[j] if bins[b] is not None)
        out.append(value)
    return out


class TestShingle:
    def test_window_count(self):
        assert len(shingle(["a b c"], 2)[0]) == 2

    def test_identical_windows_collapse(self):
        assert len(shingle(["a a a a"], 2)[0]) == 1

    def test_short_text_single_shingle(self):
        assert len(shingle(["a b"], 5)[0]) == 1
        # The one shingle is the window of all of the text's words.
        assert shingle(["A  b\tC"], 5)[0].tolist() == sorted(set(ngram_hashes("a b c", (3,))))

    @pytest.mark.parametrize("width", [1, 5])
    def test_empty_text_has_one_shingle(self, width):
        """The shingler never makes an empty row, so every row can be signed."""
        [row] = shingle([""], width)
        assert row.dtype == np.uint64 and row.shape == (1,)

    def test_matches_string_oracle_cardinality(self):
        rng = np.random.default_rng(3)
        vocab = make_vocab(rng, 500)
        for _ in range(20):
            text = make_text(rng, vocab, int(rng.integers(3, 80)))
            for w in (2, 5, 9):
                assert len(shingle([text], w)[0]) == len(oracle_shingles(text, w))

    def test_case_insensitive(self):
        upper, lower = shingle(["A b C", "a B c"], 2)
        assert upper.tolist() == lower.tolist()

    @given(st.integers(1, 6), st.lists(_WORDS, min_size=0, max_size=40), _SEPS)
    @settings(max_examples=200, deadline=None)
    def test_shingles_match_the_scalar_reference(self, width, words, sep):
        text = sep.join(words)
        assert shingle([text], width)[0].tolist() == sorted(reference_shingles(text, width))

    @given(
        st.integers(1, 6),
        st.lists(st.lists(_WORDS, min_size=0, max_size=12).map(" ".join), min_size=1, max_size=8),
        st.sets(st.integers(1, 7)),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunk_rows_equal_one_text_per_call(self, width, texts, cuts, batch):
        """Windows never cross texts: rows of any split of a text list into
        chunks, shingled in batches of any size, equal the rows of each
        text alone, and its reference shingles."""
        cfg = DedupConfig(shingle_width=width, num_perms=8, bands=1, rows=8)
        bounds = [0, *sorted(c for c in cuts if c < len(texts)), len(texts)]
        with mock.patch.object(dedup, "SHINGLE_BATCH", batch):
            rows = [row for a, b in zip(bounds, bounds[1:]) for row in shingle(texts[a:b], width)]
            minima = compute_signatures(rows, cfg)
        assert len(rows) == len(minima) == len(texts)
        for text, hashes, values in zip(texts, rows, minima):
            [alone] = shingle([text], width)
            [alone_minima] = compute_signatures([alone], cfg)
            assert hashes.tolist() == alone.tolist() == sorted(reference_shingles(text, width))
            assert values.tolist() == alone_minima.tolist()


_HASHES = st.one_of(st.integers(0, 8), st.integers(2**63, _U64), st.integers(0, _U64))


class TestExactJaccard:
    @given(st.sets(_HASHES, min_size=1, max_size=40), st.sets(_HASHES, min_size=1, max_size=40))
    @example({7}, {7})
    @example({0, 1, 2}, {0, 1, 2})
    @example({0, 1}, {2, 3})
    @example({2**63}, {_U64})
    @example({2**63, _U64}, {2**63 + 1, _U64})
    @settings(max_examples=200, deadline=None)
    def test_equals_python_set_jaccard(self, a, b):
        """On sorted distinct uint64 arrays, the array count gives the same
        float as Python set arithmetic."""
        assert exact_jaccard(as_row(a), as_row(b)) == len(a & b) / len(a | b)


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        [row] = shingle(["the quick brown fox jumps over the lazy dog again"], 3)
        a, b = compute_signatures([row, row], CFG)
        assert np.mean(a == b) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        rng = np.random.default_rng(11)
        a = np.unique(rng.integers(0, 2**63, 300)).astype(np.uint64)
        b = np.unique(rng.integers(0, 2**62, 300)).astype(np.uint64) + np.uint64(2**63)
        sa, sb = compute_signatures([a, b], CFG)
        assert np.mean(sa == sb) <= 0.05

    def test_deterministic(self):
        rows = shingle(["alpha beta gamma delta epsilon zeta eta theta"], 2)
        assert np.array_equal(compute_signatures(rows, CFG)[0], compute_signatures(rows, CFG)[0])

    def test_estimate_tracks_exact_jaccard_200_pairs(self):
        """|estimate - exact| <= 0.15 for >= 95% of 200 random set pairs."""
        rng = np.random.default_rng(2024)
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
            a, b = compute_signatures([as_row(sa), as_row(sb)], CFG)
            within += abs(float(np.mean(a == b)) - exact) <= 0.15
        assert within / 200 >= 0.95

    @pytest.mark.parametrize("batch", [1, 3, dedup.SHINGLE_BATCH])
    @pytest.mark.parametrize("cfg", [CFG, DedupConfig(num_perms=30, bands=5, rows=6)])
    def test_batch_signer_equals_the_per_text_reference(self, cfg, batch):
        """Sets of 1, 2, k - 1, k and 10k shingles, signed together in
        batches of any size, equal the plain per-text signer bit for bit."""
        rng = np.random.default_rng(5)
        k = cfg.num_perms
        sets = [
            frozenset(int(x) for x in rng.integers(0, 2**64, size=n, dtype=np.uint64))
            for n in (1, 2, k - 1, k, 10 * k, 1, 7)
        ]
        rows = [as_row(s) for s in sets]
        with mock.patch.object(dedup, "SHINGLE_BATCH", batch):
            signed = compute_signatures(rows, cfg)
        assert len(signed) == len(sets)
        for s, row, values in zip(sets, rows, signed):
            assert values.tolist() == reference_signature(s, cfg)
            assert compute_signatures([row], cfg)[0].tolist() == values.tolist()

    def test_signature_pinned(self):
        """Fixed bits for one fixed set, so no library upgrade can change
        dedup's output unnoticed. Its 5 shingles fill bins 4 to 7; bins 0 to
        3 borrow from bins 6, 7, 5 and 5."""
        cfg = DedupConfig(num_perms=8, bands=2, rows=4)
        rows = shingle(["the quick brown fox jumps over the lazy dog"], 5)
        assert compute_signatures(rows, cfg)[0].tolist() == [
            17266356209418166950,
            4201321962987394287,
            3178477075982746253,
            3178477075982746253,
            14658775288058014308,
            3178477075982746253,
            17266356209418166950,
            4201321962987394287,
        ]


class TestLsh:
    def test_identical_signatures_pair(self):
        rows = shingle(["same text everywhere in both documents exactly alike"], 3)
        [sig] = compute_signatures(rows, CFG)
        assert lsh_candidate_pairs({"a": sig, "b": sig}, CFG) == [("a", "b")]

    def test_everywhere_different_no_pair(self):
        sigs = {
            "a": np.arange(128, dtype=np.uint64),
            "b": np.arange(1000, 1128, dtype=np.uint64),
        }
        assert lsh_candidate_pairs(sigs, CFG) == []

    def test_mismatched_config_error(self):
        sigs = {
            "a": np.arange(128, dtype=np.uint64),
            "b": np.arange(64, dtype=np.uint64),
        }
        with pytest.raises(ConfigError):
            lsh_candidate_pairs(sigs, CFG)

    def test_output_sorted(self, small_planted):
        corpus, _, _, _ = small_planted
        rows = rows_by_id(corpus, CFG.shingle_width)
        sigs = dict(zip(rows, compute_signatures(list(rows.values()), CFG)))
        buckets = lsh_candidate_pairs(sigs, CFG)
        assert buckets, "planted duplicates must share a band"
        assert buckets == sorted(buckets)
        assert len(set(buckets)) == len(buckets)
        for bucket in buckets:
            assert len(bucket) >= 2
            assert all(a < b for a, b in zip(bucket, bucket[1:]))

    def test_identical_signatures_one_bucket(self):
        rows = shingle(["same text everywhere in all three documents exactly alike"], 3)
        [sig] = compute_signatures(rows, CFG)
        assert lsh_candidate_pairs({i: sig for i in ("c", "a", "b")}, CFG) == [("a", "b", "c")]


class TestBuildClusters:
    def test_exact_triples_cluster(self):
        docs = [
            doc_from("same exact text to copy verbatim", i, domain=f"d{i}.example")
            for i in range(3)
        ]
        corpus = Corpus(docs)
        clusters = build_clusters(corpus, [], CFG, {})
        assert len(clusters) == 1
        assert clusters[0].occurrence_count == 3

    def test_transitive_chain_single_cluster(self):
        # Three docs where each adjacent pair clears tau: one component.
        rng_docs = [
            doc_from("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16", 901),
            doc_from("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 zz", 902),
            doc_from("w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15", 903),
        ]
        c = Corpus(rng_docs)
        sh = rows_by_id(c, 2)
        a, b, cc = [d.doc_id for d in c.documents]
        pairs = [(a, b), (b, cc), (a, cc)]
        usable = [
            p for p in pairs if exact_jaccard(sh[p[0]], sh[p[1]]) >= 0.8
        ]
        assert len(usable) >= 2  # chain exists
        clusters = build_clusters(c, pairs, DedupConfig(shingle_width=2), sh)
        assert len(clusters) == 1
        assert set(clusters[0].member_ids) == {a, b, cc}

    def test_group_verifies_pairs_after_a_rejected_first_member(self):
        near = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16"
        docs = [
            doc_from("completely different words that share nothing at all here", 904),
            doc_from(near, 905),
            doc_from(near.replace("w16", "zz"), 906),
        ]
        corpus = Corpus(docs)
        group = sorted(d.doc_id for d in docs)
        assert group[0] == docs[0].doc_id  # the unrelated text is verified first
        cfg = DedupConfig(shingle_width=2)
        clusters = build_clusters(corpus, [group], cfg, rows_by_id(corpus, 2))
        assert sorted(len(c.member_ids) for c in clusters) == [1, 2]
        joined = next(c for c in clusters if len(c.member_ids) == 2)
        assert set(joined.member_ids) == {docs[1].doc_id, docs[2].doc_id}

    def test_frequency_signals_hand_case(self):
        text = "identical text in every copy of this record set"
        docs = [
            doc_from(text, 0, snapshot="S1", domain="d1.example"),
            doc_from(text, 1, snapshot="S1", domain="d2.example"),
            doc_from(text, 2, snapshot="S2", domain="d2.example"),
        ]
        clusters = build_clusters(Corpus(docs), [], CFG, {})
        assert len(clusters) == 1
        # Distinct-count oracle by hand: 3 members, snapshots {S1,S2}, domains {d1,d2}.
        c = clusters[0]
        assert (c.occurrence_count, c.snapshot_count, c.domain_count) == (3, 2, 2)

    def test_partition_property(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
        total = sum(c.occurrence_count for c in clusters)
        assert total == len(corpus)
        all_members = [m for c in clusters for m in c.member_ids]
        assert len(all_members) == len(set(all_members)) == len(corpus)

    def test_frequency_signals_equal_distinct_count_oracle(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
        for c in clusters:
            docs = [corpus.get(i) for i in c.member_ids]
            assert c.occurrence_count == len(docs)
            assert c.snapshot_count == len({d.snapshot_id for d in docs})
            assert c.domain_count == len({d.domain for d in docs})

    def test_cluster_ids_sorted_and_min_member(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
        ids = [c.cluster_id for c in clusters]
        assert ids == sorted(ids)
        for c in clusters:
            assert c.cluster_id == min(c.member_ids)


class TestRetainTopK:
    def make_cluster_corpus(self, texts):
        docs = [doc_from(t, 800 + i) for i, t in enumerate(texts)]
        corpus = Corpus(docs)
        clusters = build_clusters(
            corpus, [], DedupConfig(jaccard_threshold=0.01, shingle_width=1), {}
        )
        return corpus, clusters

    def test_top_k_size(self):
        text = "one two three four five six seven eight"
        docs = [doc_from(text, 810 + i, domain=f"m{i}.example") for i in range(5)]
        corpus = Corpus(docs)
        clusters = build_clusters(corpus, [], CFG, {})
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
        clusters = build_clusters(corpus, [], CFG, {})
        filled = retain_top_k(clusters[0], corpus, DedupConfig(top_k=2))
        assert filled.retained_ids == sorted(filled.member_ids)

    def test_rank_matches_sort_oracle(self, small_planted):
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
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
            rows_by_id(corpus, 2),
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
        clusters = run_dedup(corpus, CFG)
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
        clusters = run_dedup(corpus, bad_cfg)
        by_doc = {m: c.cluster_id for c in clusters for m in c.member_ids}
        by_hash: dict[str, set[str]] = {}
        for d in corpus:
            by_hash.setdefault(d.content_hash, set()).add(by_doc[d.doc_id])
        for chash, cluster_ids in by_hash.items():
            assert len(cluster_ids) == 1

    def test_byte_identical_across_runs(self, small_planted, tmp_path):
        corpus, _, _, _ = small_planted
        out = []
        for i in range(2):
            clusters = run_dedup(corpus, CFG)
            path = tmp_path / f"clusters_{i}.jsonl"
            write_clusters(clusters, path)
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_cluster_file_round_trip(self, small_planted, tmp_path):
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
        path = tmp_path / "clusters.jsonl"
        write_clusters(clusters, path)
        loaded = read_clusters(path)
        assert loaded == clusters

    def test_retained_estimated_jaccard_or_chain(self, small_planted):
        """Canonical-to-variant similarity >= tau or connected via a tau-chain;
        chain connectivity is exactly what the oracle components encode."""
        corpus, _, _, _ = small_planted
        clusters = run_dedup(corpus, CFG)
        truth = oracle_duplicate_pairs(corpus, CFG.shingle_width, CFG.jaccard_threshold)
        for c in clusters:
            canonical = c.retained_ids[0]
            for other in c.retained_ids[1:]:
                pair = (min(canonical, other), max(canonical, other))
                assert pair in truth


def reference_dedup(corpus: Corpus, cfg: DedupConfig) -> list[DuplicateCluster]:
    """Dedup as first written, on Python sets and the plain per-text
    reference shingler and signer: every document signed and banded
    through a dict, every candidate pair verified with set arithmetic,
    then the content_hash union."""
    sets = {d.doc_id: reference_shingles(d.text, cfg.shingle_width) for d in corpus}
    sigs = {i: reference_signature(s, cfg) for i, s in sets.items()}
    pairs: set[tuple[str, str]] = set()
    for start in range(0, cfg.num_perms, cfg.rows):
        buckets: dict[tuple[int, ...], list[str]] = {}
        for i in sorted(sigs):
            buckets.setdefault(tuple(sigs[i][start : start + cfg.rows]), []).append(i)
        for members in buckets.values():
            pairs.update(itertools.combinations(members, 2))
    uf = UnionFind()
    for d in corpus:
        uf.find(d.doc_id)
    for a, b in sorted(pairs):
        if len(sets[a] & sets[b]) / len(sets[a] | sets[b]) >= cfg.jaccard_threshold:
            uf.union(a, b)
    by_hash: dict[str, list[str]] = {}
    for d in corpus:
        by_hash.setdefault(d.content_hash, []).append(d.doc_id)
    for ids in by_hash.values():
        for other in ids[1:]:
            uf.union(ids[0], other)
    components: dict[str, list[str]] = {}
    for d in corpus:
        components.setdefault(uf.find(d.doc_id), []).append(d.doc_id)
    clusters = []
    for root in sorted(components):
        ids = sorted(components[root])
        docs = [corpus.get(i) for i in ids]
        cluster = DuplicateCluster(
            ids[0], ids, [], len(docs),
            len({d.snapshot_id for d in docs}), len({d.domain for d in docs}),
        )
        clusters.append(retain_top_k(cluster, corpus, cfg))
    return clusters


_VOCAB = make_vocab(np.random.default_rng(41), 300)
# Base texts long and short enough that a one-word edit lands on both
# sides of the 0.8 threshold at shingle width 5.
_BASES = [make_text(np.random.default_rng(42 + i), _VOCAB, n) for i, n in enumerate((60, 40, 16))]


def _variant(base: str, kind: str, k: int) -> str:
    words = base.split()
    if kind == "case":
        return " ".join(w.upper() if j % (k + 2) == 0 else w for j, w in enumerate(words))
    if kind == "space":
        return ("  " if k % 2 else "\n").join(words)
    if kind == "edit":
        words[k % len(words)] = f"edit{k % 3}"
        return " ".join(words)
    if kind == "unrelated":
        return make_text(np.random.default_rng(1000 + k), _VOCAB, 10 + k)
    return base


_DOC_SPECS = st.lists(
    st.tuples(
        st.integers(0, len(_BASES) - 1),
        st.sampled_from(["copy", "case", "space", "edit", "unrelated"]),
        st.integers(0, 7),
    ),
    min_size=2,
    max_size=24,
)


class TestRepresentativesEquivalence:
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize(
        "cfg", [CFG, DedupConfig(num_perms=8, bands=1, rows=8)], ids=["default", "bands1"]
    )
    @given(specs=_DOC_SPECS)
    @settings(max_examples=60, deadline=None)
    def test_clusters_file_equals_reference(self, tmp_path_factory, cfg, batch, specs):
        """run_dedup shingles and signs SHINGLE_BATCH texts at a time;
        batches of one and two texts put a batch boundary everywhere."""
        texts = [_variant(_BASES[b], kind, k) for b, kind, k in specs]
        corpus = Corpus([doc_from(t, 700 + n) for n, t in enumerate(texts)])
        out = tmp_path_factory.mktemp("equiv")
        with mock.patch.object(dedup, "SHINGLE_BATCH", batch):
            write_clusters(run_dedup(corpus, cfg), out / "new.jsonl")
        write_clusters(reference_dedup(corpus, cfg), out / "ref.jsonl")
        assert (out / "new.jsonl").read_bytes() == (out / "ref.jsonl").read_bytes()


class TestLargeBlocks:
    """A duplicate block costs verifications in proportion to its size."""

    @pytest.mark.parametrize("templated", [False, True], ids=["identical", "templated"])
    def test_block_of_2000_verifies_fewer_pairs_than_documents(self, monkeypatch, templated):
        rng = np.random.default_rng(7)
        vocab = make_vocab(rng, 4000)
        words = make_text(rng, vocab, 100).split()
        block = [
            " ".join(words[:50] + [f"tmpl{i}"] + words[51:]) if templated else " ".join(words)
            for i in range(2000)
        ]
        unique = [make_text(rng, vocab, 100) for _ in range(2000)]
        corpus = Corpus([doc_from(t, i) for i, t in enumerate(block + unique)])

        calls = 0
        real = dedup.exact_jaccard

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(dedup, "exact_jaccard", counting)
        clusters = run_dedup(corpus, CFG)
        assert sorted(len(c.member_ids) for c in clusters) == [1] * 2000 + [2000]
        assert calls < len(corpus)


class TestHashCount:
    def test_run_dedup_hashes_each_distinct_word_once(self, monkeypatch):
        """Shingles are composed from word hashes: blake2b runs once per
        distinct word and once per distinct text shorter than the width,
        not once per window."""
        rng = np.random.default_rng(5)
        vocab = make_vocab(rng, 300)
        texts = [make_text(rng, vocab, int(rng.integers(1, 60))) for _ in range(180)]
        corpus = Corpus([doc_from(t, i) for i, t in enumerate(texts + texts[:20])])
        assert len(corpus) == 200
        words = {w for d in corpus for w in d.text.lower().split()}
        short = {d.text for d in corpus if len(d.text.split()) < CFG.shingle_width}
        assert short
        calls = 0
        real = hashing.hash64

        def counting(data):
            nonlocal calls
            calls += 1
            return real(data)

        monkeypatch.setattr(hashing, "hash64", counting)
        run_dedup(corpus, CFG)
        assert 0 < calls <= len(words) + len(short)


class TestPipelinePath:
    def test_run_dedup_calls_the_public_shingler_and_signer(self, monkeypatch, small_planted):
        """bench/tracer.py times dedup.shingle and dedup.compute_signatures
        as two dedup layers, which read 0.0 if run_dedup stops calling them."""
        corpus, _, _, _ = small_planted
        calls = Counter()

        def counting(name):
            real = getattr(dedup, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("shingle", "compute_signatures"):
            monkeypatch.setattr(dedup, name, counting(name))
        run_dedup(corpus, CFG)
        assert calls["shingle"] >= 1 and calls["compute_signatures"] >= 1


class TestEdgeCasesAgainstReference:
    """Edge cases: one text copied 500 times, and pairs of documents
    (identical, near, unrelated, shorter than the shingle width) against
    the brute-force reference."""

    def test_500_identical_copies(self):
        text = make_text(np.random.default_rng(11), make_vocab(np.random.default_rng(12), 300), 80)
        corpus = Corpus([doc_from(text, i) for i in range(500)])
        clusters = run_dedup(corpus, CFG)
        assert len(clusters) == 1 and len(clusters[0].member_ids) == 500

    @pytest.mark.parametrize(
        "texts",
        [
            ("one two three four five six seven", "one two three four five six seven"),
            ("one two three four five six seven", "One  two three four five six seven"),
            ("one two three four five six seven", "one two three four five six eight"),
            ("alpha beta gamma delta epsilon", "zeta eta theta iota kappa lambda"),
            ("short", "short text"),
        ],
        ids=["identical", "same-shingles", "one-word-edit", "unrelated", "shorter-than-width"],
    )
    def test_two_documents(self, texts):
        corpus = Corpus([doc_from(t, i) for i, t in enumerate(texts)])
        assert run_dedup(corpus, CFG) == reference_dedup(corpus, CFG)
