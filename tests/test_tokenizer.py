"""Whitespace tokenizer tests."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.hashing import hash64
from corpusprep.tokenizer import WhitespaceTokenizer


class TestWhitespaceTokenizer:
    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.sampled_from([1, 7, 1000, 102_400]))
    def test_ids_are_the_word_hashes(self, text, vocab_size):
        tok = WhitespaceTokenizer(vocab_size)
        expected = [1 + hash64(w.encode("utf-8")) % vocab_size for w in text.split()]
        assert tok.encode(text) == expected
        assert tok.encode(text) == expected  # again, now from the word cache
