"""Greedy sequence packing with cross-document attention masks.

Documents are packed first-fit in input order; anything longer than
the sequence length is split into length-sized chunks. Every packed
sequence records its document spans, so the attention mask can stay
O(spans) metadata: position j is attendable from i iff both sit inside
the same document span, j <= i, and neither is padding. Dense
materialization is only allowed for short sequences; long-context
lengths (up to 262,144 here) would need gigabyte bitmaps.

Binary shard format (little-endian), version 1:

    magic     4 bytes  b"CPPK"
    version   u32
    seq_len   u32
    pad_id    u32
    n_seqs    u64
    per sequence:
        pad_from  u32
        n_spans   u32
        spans     n_spans * (u32 start, u32 end, u16 doc_id len, doc_id UTF-8)
        tokens    seq_len * u32
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .curriculum import ShardRow
from .jsonl import atomic_write, read_records

PACK_MAGIC = b"CPPK"
PACK_VERSION = 1
MASK_MATERIALIZE_LIMIT = 8192
MAX_SEQUENCE_LENGTH = 262_144
U32_MAX = 2**32 - 1


@dataclass
class PackedSequence:
    token_ids: list[int]  # padded to the sequence length
    doc_spans: list[tuple[int, int]]  # half-open, contiguous, cover [0, pad_from)
    doc_ids: list[str]  # source doc per span
    pad_from: int

    def validate(self) -> None:
        if len(self.doc_spans) != len(self.doc_ids):
            raise ConfigError("span/doc_id length mismatch")
        cursor = 0
        for start, end in self.doc_spans:
            if start != cursor or end <= start:
                raise ConfigError(f"spans must be contiguous, got {self.doc_spans}")
            cursor = end
        if cursor != self.pad_from or self.pad_from > len(self.token_ids):
            raise ConfigError("spans must cover exactly [0, pad_from)")


def pack_documents(
    docs: Iterable[tuple[str, Sequence[int]]],
    seq_len: int,
    pad_id: int = 0,
) -> list[PackedSequence]:
    """First-fit packing in input order; overlong docs split into chunks."""
    if seq_len < 1:
        raise ConfigError("sequence length must be >= 1")
    if seq_len > MAX_SEQUENCE_LENGTH:
        raise ConfigError(f"sequence length capped at {MAX_SEQUENCE_LENGTH}")

    sequences: list[PackedSequence] = []
    cur_tokens: list[int] = []
    cur_spans: list[tuple[int, int]] = []
    cur_ids: list[str] = []

    def close_current() -> None:
        nonlocal cur_tokens, cur_spans, cur_ids
        if not cur_tokens:
            return
        pad_from = len(cur_tokens)
        cur_tokens.extend([pad_id] * (seq_len - pad_from))
        sequences.append(
            PackedSequence(
                token_ids=cur_tokens, doc_spans=cur_spans, doc_ids=cur_ids,
                pad_from=pad_from,
            )
        )
        cur_tokens, cur_spans, cur_ids = [], [], []

    for doc_id, tokens in docs:
        tokens = list(tokens)
        if not tokens:
            raise ConfigError(f"document {doc_id} has no tokens")
        if len(tokens) > seq_len:
            close_current()
            for off in range(0, len(tokens), seq_len):
                chunk = tokens[off : off + seq_len]
                cur_tokens = list(chunk)
                cur_spans = [(0, len(chunk))]
                cur_ids = [doc_id]
                if len(chunk) == seq_len:
                    close_current()
            continue  # a trailing partial chunk stays open for later docs
        if len(cur_tokens) + len(tokens) > seq_len:
            close_current()
        start = len(cur_tokens)
        cur_tokens.extend(tokens)
        cur_spans.append((start, start + len(tokens)))
        cur_ids.append(doc_id)
    close_current()
    return sequences


class CrossDocMask:
    """Block-diagonal causal attendability predicate over one packed sequence.

    allowed(i, j) is true iff j <= i, both positions fall inside the
    same document span, and both precede the padding. Holds only span
    metadata; call materialize() for a dense matrix (short sequences
    only).
    """

    def __init__(self, seq: PackedSequence):
        seq.validate()
        self.length = len(seq.token_ids)
        self.pad_from = seq.pad_from
        self.spans = list(seq.doc_spans)
        self._starts = [s for s, _ in self.spans]

    def span_index(self, pos: int) -> int | None:
        if pos >= self.pad_from or pos < 0:
            return None
        i = bisect_right(self._starts, pos) - 1
        start, end = self.spans[i]
        return i if start <= pos < end else None

    def allowed(self, i: int, j: int) -> bool:
        if j > i:
            return False
        si = self.span_index(i)
        if si is None:
            return False
        return self.span_index(j) == si

    __call__ = allowed

    def materialize(self) -> np.ndarray:
        if self.length > MASK_MATERIALIZE_LIMIT:
            raise ConfigError(
                f"refusing to materialize a {self.length}x{self.length} mask "
                f"(limit {MASK_MATERIALIZE_LIMIT})"
            )
        mask = np.zeros((self.length, self.length), dtype=bool)
        for start, end in self.spans:
            block = np.tril(np.ones((end - start, end - start), dtype=bool))
            mask[start:end, start:end] = block
        return mask


def write_packed(
    path: str | Path,
    sequences: Sequence[PackedSequence],
    seq_len: int,
    pad_id: int,
) -> None:
    parts = [
        PACK_MAGIC,
        struct.pack("<IIIQ", PACK_VERSION, seq_len, pad_id, len(sequences)),
    ]
    for seq in sequences:
        seq.validate()
        if len(seq.token_ids) != seq_len:
            raise ConfigError("sequence length does not match shard header")
        parts.append(struct.pack("<II", seq.pad_from, len(seq.doc_spans)))
        for (start, end), doc_id in zip(seq.doc_spans, seq.doc_ids):
            raw = doc_id.encode("utf-8")
            parts.append(struct.pack("<IIH", start, end, len(raw)))
            parts.append(raw)
        parts.append(np.asarray(seq.token_ids, dtype="<u4").tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(b"".join(parts))


def pack_shards(
    shards: Iterable[str | Path], out: str | Path, seq_len: int, pad_id: int
) -> list[PackedSequence]:
    """Pack the ShardRow rows of the shard files `shards`, in order, and
    write the sequences to `out`; a pad or token id outside u32 raises ConfigError."""
    if not 0 <= pad_id <= U32_MAX:
        raise ConfigError(f"pad id {pad_id} is outside [0, {U32_MAX}]")
    docs = []
    for path in shards:
        for n, row in enumerate(read_records(ShardRow, path), start=1):
            if row.token_ids and not 0 <= min(row.token_ids) <= max(row.token_ids) <= U32_MAX:
                raise ConfigError(f"{path}: row {n} has a token id outside [0, {U32_MAX}]")
            docs.append((row.doc_id, row.token_ids))
    sequences = pack_documents(docs, seq_len, pad_id)
    write_packed(out, sequences, seq_len, pad_id)
    return sequences


def read_packed(path: str | Path) -> tuple[int, int, list[PackedSequence]]:
    data = Path(path).read_bytes()
    if data[:4] != PACK_MAGIC:
        raise ConfigError(f"{path}: not a packed shard (bad magic)")
    version, seq_len, pad_id, n_seqs = struct.unpack_from("<IIIQ", data, 4)
    if version != PACK_VERSION:
        raise ConfigError(f"{path}: unsupported packed shard version {version}")
    pos = 4 + struct.calcsize("<IIIQ")
    sequences = []
    for _ in range(n_seqs):
        pad_from, n_spans = struct.unpack_from("<II", data, pos)
        pos += 8
        spans, ids = [], []
        for _ in range(n_spans):
            start, end, idlen = struct.unpack_from("<IIH", data, pos)
            pos += 10
            ids.append(data[pos : pos + idlen].decode("utf-8"))
            pos += idlen
            spans.append((start, end))
        tokens = np.frombuffer(data, dtype="<u4", count=seq_len, offset=pos)
        pos += 4 * seq_len
        sequences.append(
            PackedSequence(
                token_ids=[int(t) for t in tokens], doc_spans=spans,
                doc_ids=ids, pad_from=pad_from,
            )
        )
    return seq_len, pad_id, sequences
