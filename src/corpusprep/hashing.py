"""Stable hashing primitives used everywhere determinism matters.

All hashes are seedless or explicitly seeded and byte-stable across
runs, machines and Python versions. The interpreter's salted ``hash()``
is never used for anything that reaches an output file.
"""

from __future__ import annotations

import hashlib
from itertools import compress
from typing import Container, Iterable

import numpy as np

# Most words a word dict holds; a full dict is emptied.
WORD_HASHES_MAX = 1 << 16
# Odd multiplier of the polynomial that composes a window's hash from its
# word hashes (window_hashes).
WINDOW_BASE = 0x9E3779B97F4A7C15


def hash128_hex(data: bytes) -> str:
    """128-bit hash as 32 lowercase hex chars (content hashes)."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def hash64(data: bytes) -> int:
    """64-bit hash as an unsigned int (shingles, n-gram features)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _words(text: str) -> list[str]:
    """The words of all word-window hashes: lowercased, split on whitespace."""
    return text.lower().split()


def text_hash64(text: str) -> int:
    """hash64 of all of the text's words as one window."""
    return hash64(" ".join(_words(text)).encode("utf-8"))


def word_window_hashes(
    text: str,
    widths: Iterable[int],
    word_hashes: dict[str, int] | None = None,
    known: Container[int] | None = None,
) -> list[int]:
    """hash64 of each run of n >= 1 words, joined by single spaces, for each
    n in `widths`; words are the lowercased text split on whitespace.

    Single words are looked up in `word_hashes` (see hash_words); a
    caller that passes one dict for many texts hashes each distinct word
    once, and the hashes do not depend on the dict. Without a dict, a
    fresh one is used for this call only.

    Without `known`, every run of two or more words is hashed each time.
    With `known` (a set of hashes), the word gate is on: every word is
    hashed, and only runs whose word hashes are all in `known` are kept,
    single words included; a longer run with a word outside `known` is
    never hashed. The kept hashes keep their order, so a vocabulary
    inside `known` that holds every word of each of its n-grams (see
    classifier.QualityClassifier.allows_word_gate) finds the same hashes,
    in the same order, in the gated list as in the full one.
    """
    words = _words(text)
    if word_hashes is None:
        word_hashes = {}
    if known is not None:
        singles = hash_words(words, word_hashes)
        hits = list(compress(range(len(singles)), map(known.__contains__, singles)))
    out: list[int] = []
    for n in widths:
        if n == 1:
            kept = hash_words(words, word_hashes) if known is None else (singles[i] for i in hits)
            out.extend(kept)
            continue
        if known is None:
            windows = map(" ".join, zip(*(words[i:] for i in range(n))))
        else:
            # hits rises, so hits[k + n - 1] - hits[k] == n - 1 exactly
            # when the n words from hits[k] on are all hits.
            starts = (i for i, j in zip(hits, hits[n - 1 :]) if j - i == n - 1)
            windows = (" ".join(words[i : i + n]) for i in starts)
        out.extend(map(hash64, map(str.encode, windows)))
    return out


def hash_words(words: list[str], word_hashes: dict[str, int]) -> list[int]:
    """hash64 of each word, looked up in `word_hashes` ({word: hash64}).

    A miss fills the dict, after emptying it if it holds WORD_HASHES_MAX
    words, so a dict shared by many texts hashes each distinct word once
    without growing with a large corpus's vocabulary. A list with no miss
    is looked up in one pass, with no Python step per word.
    """
    try:
        return list(map(word_hashes.__getitem__, words))
    except KeyError:
        pass
    out = []
    for word in words:
        h = word_hashes.get(word)
        if h is None:
            if len(word_hashes) >= WORD_HASHES_MAX:
                word_hashes.clear()
            h = word_hashes[word] = hash64(word.encode("utf-8"))
        out.append(h)
    return out


def word_hash_array(
    texts: Iterable[str], word_hashes: dict[str, int]
) -> tuple[np.ndarray, list[int]]:
    """hash64 of every word of `texts`, in order, as one uint64 array, and
    the word count of each text. Words are as in word_window_hashes and
    are looked up in `word_hashes` (see hash_words)."""
    counts: list[int] = []
    flat: list[int] = []
    for text in texts:
        words = _words(text)
        counts.append(len(words))
        flat.extend(hash_words(words, word_hashes))
    return np.array(flat, dtype=np.uint64), counts


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
