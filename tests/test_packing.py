"""Packing and cross-document mask tests with a brute-force mask oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.errors import ConfigError
from corpusprep.packing import (
    MASK_MATERIALIZE_LIMIT,
    CrossDocMask,
    PackedSequence,
    pack_documents,
    read_packed,
    write_packed,
)

PAD = 0


def docs_of(lengths: list[int], start_token: int = 1):
    docs = []
    tok = start_token
    for i, n in enumerate(lengths):
        docs.append((f"doc{i}", list(range(tok, tok + n))))
        tok += n
    return docs


def oracle_mask(seq: PackedSequence) -> np.ndarray:
    """Direct double-loop evaluation of the three-clause rule."""
    length = len(seq.token_ids)

    def span_of(pos: int) -> int | None:
        if pos >= seq.pad_from:
            return None
        for k, (s, e) in enumerate(seq.doc_spans):
            if s <= pos < e:
                return k
        return None

    mask = np.zeros((length, length), dtype=bool)
    for i in range(length):
        for j in range(length):
            si, sj = span_of(i), span_of(j)
            mask[i, j] = j <= i and si is not None and sj is not None and si == sj
    return mask


class TestPackDocuments:
    def test_exact_fit(self):
        seqs = pack_documents(docs_of([3, 5]), seq_len=8, pad_id=PAD)
        assert len(seqs) == 1
        assert seqs[0].doc_spans == [(0, 3), (3, 8)]
        assert seqs[0].pad_from == 8

    def test_overlong_doc_chunked(self):
        seqs = pack_documents(docs_of([10]), seq_len=4, pad_id=PAD)
        assert len(seqs) == 3
        assert [s.doc_spans for s in seqs] == [[(0, 4)], [(0, 4)], [(0, 2)]]
        assert seqs[2].pad_from == 2
        assert seqs[2].token_ids[2:] == [PAD, PAD]

    def test_greedy_first_fit(self):
        seqs = pack_documents(docs_of([4, 4, 4]), seq_len=8, pad_id=PAD)
        assert len(seqs) == 2
        assert seqs[0].doc_spans == [(0, 4), (4, 8)]
        assert seqs[1].doc_spans == [(0, 4)]
        assert seqs[1].pad_from == 4

    def test_doc_after_partial_chunk_packs_in(self):
        seqs = pack_documents(docs_of([10, 2]), seq_len=4, pad_id=PAD)
        assert len(seqs) == 3
        assert seqs[2].doc_spans == [(0, 2), (2, 4)]
        assert seqs[2].doc_ids == ["doc0", "doc1"]

    def test_conservation_100_random_workloads(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            seq_len = int(rng.integers(4, 64))
            lengths = [int(rng.integers(1, seq_len * 3)) for _ in range(int(rng.integers(1, 30)))]
            docs = docs_of(lengths)
            seqs = pack_documents(docs, seq_len=seq_len, pad_id=PAD)
            non_pad = sum(s.pad_from for s in seqs)
            assert non_pad == sum(lengths)
            # Every token appears exactly once, in order per document.
            emitted: dict[str, list[int]] = {}
            for s in seqs:
                for (a, b), did in zip(s.doc_spans, s.doc_ids):
                    emitted.setdefault(did, []).extend(s.token_ids[a:b])
            for did, toks in docs:
                assert emitted[did] == toks

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=20),
        st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=150)
    def test_conservation_property(self, lengths, seq_len):
        seqs = pack_documents(docs_of(lengths), seq_len=seq_len, pad_id=PAD)
        assert sum(s.pad_from for s in seqs) == sum(lengths)
        for s in seqs:
            s.validate()
            assert len(s.token_ids) == seq_len
            assert all(t == PAD for t in s.token_ids[s.pad_from :])

    def test_empty_doc_rejected(self):
        with pytest.raises(ConfigError):
            pack_documents([("empty", [])], seq_len=8)

    def test_bad_seq_len_rejected(self):
        with pytest.raises(ConfigError):
            pack_documents(docs_of([3]), seq_len=0)
        with pytest.raises(ConfigError):
            pack_documents(docs_of([3]), seq_len=1 << 30)


class TestCrossDocMask:
    def test_rule_examples(self):
        seqs = pack_documents(docs_of([3, 5]), seq_len=8, pad_id=PAD)
        mask = CrossDocMask(seqs[0])
        assert mask.allowed(4, 2) is False  # cross-document
        assert mask.allowed(4, 3) is True  # same span, causal
        assert mask.allowed(2, 3) is False  # anti-causal

    def test_single_span_is_plain_causal(self):
        seqs = pack_documents(docs_of([8]), seq_len=8, pad_id=PAD)
        got = CrossDocMask(seqs[0]).materialize()
        assert np.array_equal(got, np.tril(np.ones((8, 8), dtype=bool)))

    def test_padding_never_attendable(self):
        seqs = pack_documents(docs_of([3]), seq_len=6, pad_id=PAD)
        mask = CrossDocMask(seqs[0])
        for i in range(3, 6):
            assert all(not mask.allowed(i, j) for j in range(6))
            assert all(not mask.allowed(j, i) for j in range(6))

    def test_oracle_equivalence_100_random_packings(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            seq_len = int(rng.integers(2, 65))
            lengths = [int(rng.integers(1, seq_len * 2)) for _ in range(int(rng.integers(1, 8)))]
            for seq in pack_documents(docs_of(lengths), seq_len=seq_len, pad_id=PAD):
                assert np.array_equal(CrossDocMask(seq).materialize(), oracle_mask(seq))

    def test_oracle_equivalence_larger_length(self):
        rng = np.random.default_rng(8)
        lengths = [int(rng.integers(1, 700)) for _ in range(9)]
        for seq in pack_documents(docs_of(lengths), seq_len=512, pad_id=PAD):
            assert np.array_equal(CrossDocMask(seq).materialize(), oracle_mask(seq))

    def test_materialize_limit(self):
        seqs = pack_documents(docs_of([10]), seq_len=MASK_MATERIALIZE_LIMIT + 1, pad_id=PAD)
        with pytest.raises(ConfigError):
            CrossDocMask(seqs[0]).materialize()
        # Predicate access still works without materializing.
        assert CrossDocMask(seqs[0]).allowed(1, 0) is True


class TestPackedShardIO:
    def test_round_trip(self, tmp_path):
        seqs = pack_documents(docs_of([3, 5, 11, 2]), seq_len=8, pad_id=PAD)
        path = tmp_path / "packed.bin"
        write_packed(path, seqs, seq_len=8, pad_id=PAD)
        seq_len, pad_id, loaded = read_packed(path)
        assert (seq_len, pad_id) == (8, PAD)
        assert len(loaded) == len(seqs)
        for a, b in zip(loaded, seqs):
            assert a.token_ids == b.token_ids
            assert a.doc_spans == b.doc_spans
            assert a.doc_ids == b.doc_ids
            assert a.pad_from == b.pad_from

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            read_packed(path)
