"""Pluggable tokenizer interface with a desk-scale whitespace default.

Anything with encode(), a pad_id and a name works. The default maps
each whitespace-separated word to a stable hashed id, which is enough
to exercise token budgeting, packing and masking deterministically;
a production BPE tokenizer plugs in behind the same protocol.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol, runtime_checkable

from .hashing import hash64

DEFAULT_VOCAB_SIZE = 102_400


@lru_cache(maxsize=1 << 16)
def _word_hash(word: str) -> int:
    """hash64 of the word's UTF-8 bytes; bounded, as natural text repeats
    a small vocabulary while the tail of rare words is unbounded."""
    return hash64(word.encode("utf-8"))


@runtime_checkable
class Tokenizer(Protocol):
    name: str
    pad_id: int

    def encode(self, text: str) -> list[int]: ...


class WhitespaceTokenizer:
    """Word -> 1 + hash64(word) mod vocab_size; id 0 is reserved for padding."""

    def __init__(self, vocab_size: int = DEFAULT_VOCAB_SIZE):
        self.vocab_size = vocab_size
        self.pad_id = 0
        self.name = f"whitespace-{vocab_size}"

    def encode(self, text: str) -> list[int]:
        return [1 + _word_hash(w) % self.vocab_size for w in text.split()]
