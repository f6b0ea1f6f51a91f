"""Desk-scale whitespace tokenizer.

It maps each whitespace-separated word, case kept, to a stable hashed id,
which is enough to exercise token budgeting, packing and masking
deterministically. Words and their hashes come from a hashing.WordTable, in a
run the corpus's, so a text drawn in several stages is split and hashed once.
"""

from __future__ import annotations

import numpy as np

from .hashing import WordTable

DEFAULT_VOCAB_SIZE = 102_400


class WhitespaceTokenizer:
    """Word -> 1 + hash64(word) mod vocab_size; id 0 is reserved for padding."""

    def __init__(self, vocab_size: int = DEFAULT_VOCAB_SIZE):
        self.vocab_size = vocab_size
        self.pad_id = 0

    def encode(self, text: str, words: WordTable | None = None) -> list[int]:
        """The text's token ids; its words come from `words` (a fresh table without one)."""
        words = words or WordTable()
        hashes = words.hashes(words.ids(text))
        return (hashes % np.uint64(self.vocab_size) + np.uint64(1)).tolist()
