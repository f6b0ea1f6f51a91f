"""Exact and fuzzy deduplication into duplicate clusters.

Every step works on sorted arrays of distinct uint64 shingle hashes, one
per distinct text. shingle composes every w-gram's hash from the word
hashes of the corpus's word table with numpy, a batch of texts per pass
(a Karp-Rabin polynomial, hashing.window_hashes), so blake2b runs per
distinct word, not per window. compute_signatures is
one-permutation MinHash (Li, Owen and Zhang 2012): each shingle is mixed
once and falls into one of num_perms bins, each bin keeps its minimum, and
an empty bin copies the first non-empty bin in a fixed probe order
(optimal densification, Shrivastava 2017). SHINGLE_HASH_VERSION and
SIGNATURE_VERSION name the shingle hash and the signer in the dedup phase
key.
Documents with equal shingle arrays form one group, whose smallest doc_id
is its representative; only representatives are signed and LSH-banded,
since every member of a group has the representative's signature and its
Jaccard to any other document. Banding yields buckets of representatives
that agree on all rows of some band. The groups and the buckets are
verified with exact Jaccard (Broder 1997), counted on two sorted arrays,
after exact duplicates (equal content_hash) are linked unconditionally; a
pair already in one component is never verified, so the cost follows the
number of distinct texts and joins, not the square of a duplicate block's
size. Connected components become clusters. Within a cluster we keep the
top-k variants for sample-time rotation and record natural-frequency
counts (occurrences, snapshot spread, domain spread) as metadata.

Nothing here reweights the corpus: frequency is stored, not applied.
Sampling decides what to do with it later.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document
from .errors import ConfigError
from .hashing import WordTable, hash64, mix64, window_hashes
from .jsonl import read_records, write_records

DEFAULT_PERM_SEED = 0x1CEB00DA
# Version of the hash that shingle gives each window in its sorted uint64
# arrays (2: composed from the window's word hashes, hashing.window_hashes);
# part of the dedup phase key, so a workspace deduplicated under another
# version reruns dedup.
SHINGLE_HASH_VERSION = 2
# Version of the signer, compute_signatures, which maps each shingle array
# to num_perms uint64 components; likewise part of the dedup phase key: 1
# took 128 seeded permutations, 2 is one-permutation hashing with optimal
# densification.
SIGNATURE_VERSION = 2
# Texts per batch: shingle holds their word and window hashes at once, and
# compute_signatures their bins.
SHINGLE_BATCH = 1024
_U64_MASK = (1 << 64) - 1


def versions() -> dict[str, int]:
    """The shingle hash and signer versions, as the dedup report records
    them; the dedup phase key includes them."""
    return {"shingle_hash_version": SHINGLE_HASH_VERSION, "signature_version": SIGNATURE_VERSION}


@dataclass(frozen=True)
class DedupConfig:
    shingle_width: int = 5
    num_perms: int = 128
    bands: int = 16
    rows: int = 8
    jaccard_threshold: float = 0.8
    top_k: int = 3
    perm_seed: int = DEFAULT_PERM_SEED

    def __post_init__(self):
        if self.shingle_width < 1:
            raise ConfigError("shingle_width must be >= 1")
        if self.bands < 1 or self.rows < 1:
            raise ConfigError("bands and rows must be >= 1")
        if self.bands * self.rows != self.num_perms:
            raise ConfigError(
                f"bands*rows must equal num_perms "
                f"({self.bands}*{self.rows} != {self.num_perms})"
            )
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ConfigError("jaccard_threshold must be in (0, 1]")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclass
class DuplicateCluster:
    """One clusters.jsonl row: these fields, under their own names."""

    cluster_id: str  # smallest member doc_id
    member_ids: list[str]  # sorted ascending
    retained_ids: list[str]  # rank order; [0] is canonical; empty until retention
    occurrence_count: int  # members
    snapshot_count: int  # distinct member snapshot_ids
    domain_count: int  # distinct member domains


def shingle(texts: Sequence[str], width: int, words: WordTable | None = None) -> list[np.ndarray]:
    """Sorted distinct shingle hashes of each text, as uint64 arrays.

    A shingle is a width-word window (lowercased, whitespace split), hashed
    from the hash64 of its words in `words` (a fresh table without one),
    SHINGLE_BATCH texts per pass (hashing.window_hashes); a text's shingles
    are the windows that start and end inside it. A text of fewer than
    `width` words has the one shingle hash64 of its lowercased words joined
    by single spaces, so no array is empty.
    """
    if width < 1:
        raise ConfigError("shingle width must be >= 1")
    words = words or WordTable()
    rows = []
    for first in range(0, len(texts), SHINGLE_BATCH):
        ids = [words.ids(text) for text in texts[first : first + SHINGLE_BATCH]]
        windows = window_hashes(words.lowered_hashes(np.concatenate(ids)), width)
        start = 0
        for text_ids in ids:
            n = len(text_ids)
            if n < width:
                short = " ".join(words.lowered(text_ids)).encode("utf-8")
                rows.append(np.array([hash64(short)], dtype=np.uint64))
            else:
                ranked = np.sort(windows[start : start + n - width + 1])
                rows.append(ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))])
            start += n
    return rows


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard of two non-empty sorted arrays of distinct shingle hashes."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


@lru_cache(maxsize=8)
def _probe_order(perm_seed: int, num_perms: int) -> np.ndarray:
    """Entry [t, j] is the t-th bin that empty bin j probes: column j is
    every bin b, sorted by mix64((j * num_perms + b) ^ perm_seed)."""
    cells = np.arange(num_perms * num_perms, dtype=np.uint64) ^ np.uint64(perm_seed & _U64_MASK)
    keys = mix64(cells).reshape(num_perms, num_perms)
    order = np.ascontiguousarray(np.argsort(keys, axis=1, kind="stable").T)
    order.flags.writeable = False  # shared by every caller of the cache
    return order


def compute_signatures(rows: Sequence[np.ndarray], cfg: DedupConfig) -> list[np.ndarray]:
    """One-permutation MinHash of each non-empty uint64 shingle array, with
    optimal densification, SHINGLE_BATCH arrays at a time.

    Each shingle x hashes once, to h = mix64(x ^ perm_seed), and falls into
    bin h % num_perms; a bin's component is the least h in it. An empty bin
    takes the component of the first non-empty bin in its probe order (see
    _probe_order), so sets that fill the same bins borrow from the same
    bins. The fraction of equal components between two signatures
    estimates their exact Jaccard.
    """
    k = cfg.num_perms
    seed = np.uint64(cfg.perm_seed & _U64_MASK)
    probe = _probe_order(cfg.perm_seed, k)
    out: list[np.ndarray] = []
    for first in range(0, len(rows), SHINGLE_BATCH):
        batch = rows[first : first + SHINGLE_BATCH]
        # Cell i * k + b is bin b of the batch's text i.
        h = mix64(np.concatenate(batch) ^ seed)
        sizes = np.fromiter(map(len, batch), dtype=np.intp, count=len(batch))
        cell = np.repeat(np.arange(0, len(batch) * k, k), sizes) + (h % np.uint64(k)).astype(np.intp)
        sig = np.full(len(batch) * k, _U64_MASK, dtype=np.uint64)
        np.minimum.at(sig, cell, h)
        filled = np.zeros(len(batch) * k, dtype=bool)
        filled[cell] = True
        # Walk every empty cell's probe order in step; a filled cell is never
        # written, so each empty cell copies a bin's own minimum.
        empty = np.flatnonzero(~filled)
        bins = empty % k
        base = empty - bins
        for step in probe:
            if not len(empty):
                break
            src = base + step[bins]
            hit = filled[src]
            sig[empty[hit]] = sig[src[hit]]
            miss = ~hit
            empty, bins, base = empty[miss], bins[miss], base[miss]
        out.extend(sig.reshape(len(batch), k))
    return out


def lsh_candidate_pairs(
    signatures: Mapping[str, np.ndarray], cfg: DedupConfig
) -> list[tuple[str, ...]]:
    """Buckets of documents whose signatures agree on all rows of some band.

    Each bucket is a tuple of two or more ids in ascending order, listed
    once however many bands produce it, and the list is sorted so
    downstream clustering is order-independent. Two documents are a
    candidate pair exactly when some bucket holds both; a two-member
    bucket is that pair.
    """
    for sig in signatures.values():
        if sig.shape != (cfg.num_perms,):
            raise ConfigError("signature does not match dedup config")
    doc_ids = sorted(signatures)
    if len(doc_ids) < 2:
        return []
    matrix = np.stack([signatures[i] for i in doc_ids])
    # One opaque key per document and band, so a band sorts like a 1-D array.
    band_key = np.dtype((np.void, cfg.rows * matrix.itemsize))
    buckets: set[tuple[str, ...]] = set()
    for start in range(0, cfg.num_perms, cfg.rows):
        keys = np.ascontiguousarray(matrix[:, start : start + cfg.rows]).view(band_key).ravel()
        order = np.argsort(keys, kind="stable")  # stable: ids ascend within a run
        ranked = keys[order]
        bounds = np.concatenate(([0], np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, [len(keys)]))
        members = order.tolist()
        for r in np.flatnonzero(np.diff(bounds) > 1).tolist():
            buckets.add(tuple(doc_ids[i] for i in members[bounds[r] : bounds[r + 1]]))
    return sorted(buckets)


class UnionFind:
    """Disjoint sets with min-id roots, so components are order-independent."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        if x not in self.parent:
            self.parent[x] = x
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str) -> None:
        px, py = self.find(x), self.find(y)
        root = min(px, py)
        self.parent[px] = self.parent[py] = root


def build_clusters(
    corpus: Corpus,
    candidate_groups: Iterable[Sequence[str]],
    cfg: DedupConfig,
    rows: Mapping[str, np.ndarray],
) -> list[DuplicateCluster]:
    """Link exact duplicates, verify candidates with exact Jaccard, take components.

    A candidate group is any collection of doc ids; a pair is a group of
    two. Two members are linked when the exact Jaccard of their shingle
    arrays, `rows` by doc id, reaches the threshold. A pair already in one
    component is not verified, since linking it could change no component,
    and a rejected pair is not verified again, so the components equal
    those of verifying every pair of every group, in any order.

    Every document lands in exactly one cluster; unpaired documents
    become singletons. retained_ids is left empty (see retain_top_k).
    """
    groups = sorted({tuple(sorted(set(g))) for g in candidate_groups})
    for g in groups:
        if any(i not in corpus for i in g):
            raise ConfigError(f"candidate group references unknown doc: {g}")

    uf = UnionFind()
    for d in corpus:
        uf.find(d.doc_id)

    # Exact duplicates bypass LSH entirely.
    by_hash: dict[str, list[str]] = {}
    for d in corpus:
        by_hash.setdefault(d.content_hash, []).append(d.doc_id)
    for ids in by_hash.values():
        for other in ids[1:]:
            uf.union(ids[0], other)

    rejected: set[tuple[str, str]] = set()
    for g in groups:
        # Each union joins two components that both hold members of g.
        roots = len({uf.find(i) for i in g})
        for i, a in enumerate(g):
            if roots == 1:
                break
            for b in g[i + 1 :]:
                if (a, b) in rejected or uf.find(a) == uf.find(b):
                    continue
                if exact_jaccard(rows[a], rows[b]) >= cfg.jaccard_threshold:
                    uf.union(a, b)
                    roots -= 1
                    if roots == 1:
                        break
                else:
                    rejected.add((a, b))

    components: dict[str, list[str]] = {}
    for d in corpus:
        components.setdefault(uf.find(d.doc_id), []).append(d.doc_id)

    clusters = []
    for root in sorted(components):
        member_ids = sorted(components[root])
        docs = [corpus.get(i) for i in member_ids]
        clusters.append(
            DuplicateCluster(
                cluster_id=member_ids[0],
                member_ids=member_ids,
                retained_ids=[],
                occurrence_count=len(docs),
                snapshot_count=len({d.snapshot_id for d in docs}),
                domain_count=len({d.domain for d in docs}),
            )
        )
    return clusters


def default_rank(doc: Document) -> tuple:
    """Longer normalized text first, then smaller doc_id: a deterministic
    proxy for the most complete variant."""
    return (-len(doc.text), doc.doc_id)


def retain_top_k(
    cluster: DuplicateCluster,
    corpus: Corpus,
    cfg: DedupConfig,
) -> DuplicateCluster:
    """Fill retained_ids with the top min(k, n) members under default_rank.

    retained_ids[0] is the canonical document.
    """
    docs = [corpus.get(i) for i in cluster.member_ids]
    if any(d is None for d in docs):
        raise ConfigError(f"cluster {cluster.cluster_id} references unknown docs")
    ordered = sorted(docs, key=default_rank)
    retained = [d.doc_id for d in ordered[: min(cfg.top_k, len(ordered))]]
    return replace(cluster, retained_ids=retained)


def run_dedup(corpus: Corpus, cfg: DedupConfig) -> list[DuplicateCluster]:
    """Full dedup pass: shingles per distinct text -> representatives ->
    signatures -> LSH buckets -> verified clusters -> top-k.

    Returns clusters sorted by cluster_id with retention filled.
    """
    texts = list(dict.fromkeys(d.text for d in corpus))
    row_of = dict(zip(texts, shingle(texts, cfg.shingle_width, corpus.words)))
    # Equal shingle arrays mean equal signatures and Jaccard 1.0 to each
    # other and equal Jaccard to everyone else, so one member per group
    # stands in.
    by_set: dict[bytes, list[str]] = {}
    for d in corpus:
        by_set.setdefault(row_of[d.text].tobytes(), []).append(d.doc_id)
    groups = list(by_set.values())
    del by_set  # its keys copy every shingle array; free them before signing
    representatives = [min(ids) for ids in groups]
    signed = compute_signatures([row_of[corpus.get(i).text] for i in representatives], cfg)
    signatures = dict(zip(representatives, signed))
    candidates = [ids for ids in groups if len(ids) > 1]
    candidates += lsh_candidate_pairs(signatures, cfg)
    rows = {i: row_of[corpus.get(i).text] for ids in candidates for i in ids}
    clusters = build_clusters(corpus, candidates, cfg, rows)
    return [retain_top_k(c, corpus, cfg) for c in clusters]


def write_clusters(clusters: Sequence[DuplicateCluster], path) -> int:
    return write_records(path, clusters)


def read_clusters(path) -> list[DuplicateCluster]:
    return read_records(DuplicateCluster, path)
