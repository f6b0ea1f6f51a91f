"""Desk-scale whitespace tokenizer.

It maps each whitespace-separated word to a stable hashed id, which is
enough to exercise token budgeting, packing and masking deterministically.
"""

from __future__ import annotations

from .hashing import hash_words

DEFAULT_VOCAB_SIZE = 102_400


class WhitespaceTokenizer:
    """Word -> 1 + hash64(word) mod vocab_size; id 0 is reserved for padding.
    Each tokenizer hashes words through its own bounded word dict."""

    def __init__(self, vocab_size: int = DEFAULT_VOCAB_SIZE):
        self.vocab_size = vocab_size
        self.pad_id = 0
        self._word_hashes: dict[str, int] = {}

    def encode(self, text: str) -> list[int]:
        return [1 + h % self.vocab_size for h in hash_words(text.split(), self._word_hashes)]
