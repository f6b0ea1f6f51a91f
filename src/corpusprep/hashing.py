"""Stable hashing primitives used everywhere determinism matters.

All hashes are seedless or explicitly seeded and byte-stable across
runs, machines and Python versions. The interpreter's salted ``hash()``
is never used for anything that reaches an output file.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

_U64_MASK = (1 << 64) - 1


def hash128_hex(data: bytes) -> str:
    """128-bit hash as 32 lowercase hex chars (content hashes)."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def hash64(data: bytes) -> int:
    """64-bit hash as an unsigned int (shingles, n-gram features)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def word_window_hashes(text: str, widths: Iterable[int]) -> list[int]:
    """hash64 of each run of n words, joined by single spaces, for each n in
    `widths`; words are the lowercased text split on whitespace."""
    words = text.lower().split()
    return [hash64(" ".join(words[i : i + n]).encode("utf-8"))
            for n in widths for i in range(len(words) - n + 1)]


def hash64_hex(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit substream seed from a master seed plus labels.

    This is the documented substream derivation for every scoped RNG in
    the pipeline (per-stage, per-group, per-worker): re-running one
    consumer never perturbs another's stream.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 sequence, as uint64."""
    state = seed & _U64_MASK
    out = np.empty(count, dtype=np.uint64)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _U64_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64_MASK
        out[i] = z ^ (z >> 31)
    return out


def mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array.

    A bijection on [0, 2^64): xor-ing with a seed and mixing yields the
    seeded permutations MinHash needs. Arithmetic wraps mod 2^64.
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
