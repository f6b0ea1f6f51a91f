"""Stable hashing primitives used everywhere determinism matters, and the
one path that splits and hashes words.

All hashes are seedless or explicitly seeded and byte-stable across
runs, machines and Python versions. The interpreter's salted ``hash()``
is never used for anything that reaches an output file.

A WordTable splits each text once and hashes each distinct word once;
dedup's shingles, the classifiers' n-grams and the tokenizer read it.
"""

from __future__ import annotations

import hashlib
from typing import Container, Iterable

import numpy as np

# Odd multiplier of the polynomial that composes a window's hash from its
# word hashes (window_hashes).
WINDOW_BASE = 0x9E3779B97F4A7C15


def hash128_hex(data: bytes) -> str:
    """128-bit hash as 32 lowercase hex chars (content hashes)."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def hash64(data: bytes) -> int:
    """64-bit hash as an unsigned int (shingles, n-gram features)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def word_window_hashes(
    text: str, widths: Iterable[int], words: WordTable | None = None, known: Container[int] | None = None
) -> list[int]:
    """hash64 of each run of n >= 1 words, joined by single spaces, for each
    n in `widths`; words are the lowercased text split on whitespace.

    Words come from `words` (a fresh table without one). With `known`, a set
    of hashes, the word gate is on: only runs whose word hashes are all in
    `known` are kept, single words included, and a longer run with a word
    outside it is never hashed. The kept hashes keep their order, so a
    vocabulary inside `known` that holds every word of each of its n-grams
    (classifier.QualityClassifier.allows_word_gate) finds the same hashes,
    in the same order, in the gated list as in the full one.
    """
    words = words or WordTable()
    ids = words.ids(text)
    if known is None:
        lowered = words.lowered(ids)
    else:
        hits, lowered, kept = words.known_words(ids, known)
    out: list[int] = []
    for n in widths:
        if n == 1:
            out.extend(words.lowered_hashes(ids).tolist() if known is None else kept)
            continue
        if known is None:
            windows = map(" ".join, zip(*(lowered[i:] for i in range(n))))
        else:
            # `lowered` holds the hits' words; hits rise, so hits[k + n - 1] -
            # hits[k] == n - 1 exactly when the n words from hits[k] on are hits.
            starts = (k for k, (i, j) in enumerate(zip(hits, hits[n - 1 :])) if j - i == n - 1)
            windows = (" ".join(lowered[k : k + n]) for k in starts)
        out.extend(map(hash64, map(str.encode, windows)))
    return out


class WordTable:
    """The words of each text it is asked about, each text split once, case
    kept, into int32 ids of distinct strings: words and their lowercase
    forms. Per id it holds the string's length, the id of its lowercase form
    and, once first asked for, its hash64, so each per-word value is an array
    gather. [w.lower() for w in text.split()] == text.lower().split(): lowering
    makes and removes no whitespace, and its one context rule, final sigma,
    does not look past whitespace."""

    def __init__(self) -> None:
        self._ids: dict[str, np.ndarray] = {}
        self._sid: dict[str, int] = {}
        self._strings: list[str] = []
        self._lower = np.zeros(0, dtype=np.int32)
        self._length = np.zeros(0, dtype=np.int64)
        self._hash = np.zeros(0, dtype=np.uint64)
        # Per id: 0 not hashed, 1 hashed, 2 or 3 hashed and in self._known or not.
        self._state = np.zeros(0, dtype=np.int8)
        self._known: Container[int] | None = None

    def ids(self, text: str) -> np.ndarray:
        """The string ids of the words of `text`, split the first time."""
        ids = self._ids.get(text)
        if ids is None:
            words = text.split()
            try:
                ids = np.fromiter(map(self._sid.__getitem__, words), np.int32, len(words))
            except KeyError:
                self._add(set(words).difference(self._sid))
                ids = np.fromiter(map(self._sid.__getitem__, words), np.int32, len(words))
            self._ids[text] = ids
        return ids

    def _add(self, words: set[str]) -> None:
        first = len(self._strings)
        self._strings += words
        self._strings += {w.lower() for w in words}.difference(words, self._sid)
        added = self._strings[first:]
        self._sid.update(zip(added, range(first, len(self._strings))))
        n = len(self._strings)
        if n > len(self._lower):  # grow to at least twice the length
            more = max(n, 2 * len(self._lower)) - len(self._lower)
            self._lower, self._length, self._hash, self._state = (
                np.concatenate((a, np.zeros(more, a.dtype)))
                for a in (self._lower, self._length, self._hash, self._state)
            )
        self._lower[first:n] = [self._sid[s.lower()] for s in added]
        self._length[first:n] = list(map(len, added))

    def lengths(self, ids: np.ndarray) -> np.ndarray:
        return self._length[ids]  # of the words as they are

    def lowered(self, ids: np.ndarray) -> list[str]:
        """The lowercase form of each word."""
        return list(map(self._strings.__getitem__, self._lower[ids].tolist()))

    def lowered_hashes(self, ids: np.ndarray) -> np.ndarray:
        """hash64 of each word's lowercase form, as uint64."""
        return self.hashes(self._lower[ids])

    def hashes(self, ids: np.ndarray) -> np.ndarray:
        """hash64 of each word as it is, as uint64; a string is hashed the
        first time it is asked for."""
        todo = ids[self._state[ids] == 0]
        if len(todo):
            todo = np.unique(todo)
            strings = map(self._strings.__getitem__, todo.tolist())
            self._hash[todo] = np.fromiter(map(hash64, map(str.encode, strings)), np.uint64)
            self._state[todo] = 1
        return self._hash[ids]

    def known_words(self, ids: np.ndarray, known: Container[int]) -> tuple[list[int], list[str], list[int]]:
        """The places of the words whose lowercase form's hash64 is in
        `known`, with those lowercase forms and hashes. Each lowercase form
        is looked up once per `known`, which must not change between calls."""
        low = self._lower[ids]
        if known is not self._known:
            self._known = known
            self._state[self._state > 1] = 1
        state = self._state[low]
        if (state < 2).any():
            todo = np.unique(low[state < 2])
            self._state[todo] = [2 if h in known else 3 for h in self.hashes(todo).tolist()]
            state = self._state[low]
        hits = (state == 2).nonzero()[0]
        kept = low[hits]
        return hits.tolist(), [self._strings[k] for k in kept.tolist()], self._hash[kept].tolist()


def window_hashes(hashes: np.ndarray, width: int) -> np.ndarray:
    """Hash of each run of `width` consecutive entries of the uint64 array
    `hashes`; entry i covers hashes[i : i + width].

    A run h_0 .. h_{w-1} hashes to mix64(sum of h_j * WINDOW_BASE^(w-1-j)),
    wrapping mod 2^64: the Karp-Rabin polynomial over element hashes,
    finished with a bijective mix. Distinct runs of random element hashes
    collide with probability about 2^-64.
    """
    m = max(len(hashes) - width + 1, 0)
    acc = hashes[:m].copy()
    for j in range(1, width):
        acc *= np.uint64(WINDOW_BASE)
        acc += hashes[j : j + m]
    return mix64(acc)


def hash64_hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit substream seed from a master seed plus labels.

    This is the documented substream derivation for every scoped RNG in
    the pipeline (per-stage, per-group): re-running one
    consumer never perturbs another's stream.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array.

    A bijection on [0, 2^64): xor-ing with a seed and mixing yields the
    seeded permutation of one-permutation MinHash (dedup.compute_signatures)
    and its probe orders. Arithmetic wraps mod 2^64.
    """
    z = values.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
