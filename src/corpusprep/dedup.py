"""Exact and fuzzy deduplication into duplicate clusters.

Documents are shingled into hashed word w-grams, MinHash signatures
estimate Jaccard similarity, and LSH banding proposes candidate pairs.
Candidates are verified with exact Jaccard on the shingle sets, exact
duplicates (equal content_hash) are linked unconditionally, and
connected components become clusters. Within a cluster we keep the
top-k variants for sample-time rotation and record natural-frequency
counts (occurrences, snapshot spread, domain spread) as metadata.

Nothing here reweights the corpus: frequency is stored, not applied.
Sampling decides what to do with it later.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document, with_extra
from .errors import ConfigError
from .hashing import mix64, splitmix64_stream, word_window_hashes
from .jsonl import read_jsonl, write_jsonl

DEFAULT_PERM_SEED = 0x1CEB00DA


@dataclass(frozen=True)
class DedupConfig:
    shingle_width: int = 5
    num_perms: int = 128
    bands: int = 16
    rows: int = 8
    jaccard_threshold: float = 0.8
    top_k: int = 3
    perm_seed: int = DEFAULT_PERM_SEED

    @classmethod
    def from_dict(cls, rec: dict) -> "DedupConfig":
        return cls(
            shingle_width=int(rec.get("shingle_width", 5)),
            num_perms=int(rec.get("num_perms", 128)),
            bands=int(rec.get("bands", 16)),
            rows=int(rec.get("rows", 8)),
            jaccard_threshold=float(rec.get("jaccard_threshold", 0.8)),
            top_k=int(rec.get("top_k", 3)),
            perm_seed=int(rec.get("perm_seed", DEFAULT_PERM_SEED)),
        )

    def validate(self) -> None:
        if self.shingle_width < 1:
            raise ConfigError("shingle_width must be >= 1")
        if self.bands * self.rows != self.num_perms:
            raise ConfigError(
                f"bands*rows must equal num_perms "
                f"({self.bands}*{self.rows} != {self.num_perms})"
            )
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ConfigError("jaccard_threshold must be in (0, 1]")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclass(frozen=True)
class ShingleSet:
    """Hashed word w-grams of one document."""

    shingles: frozenset[int]
    width: int

    def __len__(self) -> int:
        return len(self.shingles)


@dataclass
class MinHashSignature:
    values: np.ndarray  # uint64, one minimum per permutation
    perm_seed: int

    @property
    def num_perms(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class FrequencySignals:
    occurrence_count: int
    snapshot_count: int
    domain_count: int

    @classmethod
    def from_documents(cls, docs: Sequence[Document]) -> "FrequencySignals":
        return cls(
            occurrence_count=len(docs),
            snapshot_count=len({d.snapshot_id for d in docs}),
            domain_count=len({d.domain for d in docs}),
        )


@dataclass
class DuplicateCluster:
    cluster_id: str  # smallest member doc_id
    member_ids: list[str]  # sorted ascending
    retained_ids: list[str]  # rank order; [0] is canonical; empty until retention
    signals: FrequencySignals

    def to_record(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "member_ids": self.member_ids,
            "retained_ids": self.retained_ids,
            "occurrence_count": self.signals.occurrence_count,
            "snapshot_count": self.signals.snapshot_count,
            "domain_count": self.signals.domain_count,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "DuplicateCluster":
        return cls(
            cluster_id=rec["cluster_id"],
            member_ids=list(rec["member_ids"]),
            retained_ids=list(rec["retained_ids"]),
            signals=FrequencySignals(
                rec["occurrence_count"], rec["snapshot_count"], rec["domain_count"]
            ),
        )


def shingle(text: str, width: int) -> ShingleSet:
    """Hash every consecutive width-word window (lowercased, whitespace split).

    Texts with fewer than `width` words yield a single shingle over all
    their words.
    """
    if width < 1:
        raise ConfigError("shingle width must be >= 1")
    hashes = word_window_hashes(text, (width,)) or word_window_hashes(
        text, (len(text.lower().split()),)
    )
    return ShingleSet(shingles=frozenset(hashes), width=width)


def exact_jaccard(a: ShingleSet, b: ShingleSet) -> float:
    union = len(a.shingles | b.shingles)
    if union == 0:
        return 0.0
    return len(a.shingles & b.shingles) / union


@lru_cache(maxsize=8)
def _perm_seeds(perm_seed: int, num_perms: int) -> np.ndarray:
    return splitmix64_stream(perm_seed, num_perms)


def minhash_signature(s: ShingleSet, cfg: DedupConfig) -> MinHashSignature:
    """Per-permutation minima over the shingle set.

    Permutation i is x -> mix64(x ^ seed_i); the fraction of equal
    components between two signatures estimates their exact Jaccard.
    """
    if not s.shingles:
        raise ValueError("cannot sign an empty shingle set")
    x = np.fromiter(s.shingles, dtype=np.uint64, count=len(s.shingles))
    return MinHashSignature(values=_minima(x, cfg), perm_seed=cfg.perm_seed)


def _minima(hashes: np.ndarray, cfg: DedupConfig) -> np.ndarray:
    """Minimum of mix64(hashes ^ seed_i) for each permutation seed_i."""
    seeds = _perm_seeds(cfg.perm_seed, cfg.num_perms)
    return mix64(hashes[None, :] ^ seeds[:, None]).min(axis=1)


def estimated_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    if a.num_perms != b.num_perms or a.perm_seed != b.perm_seed:
        raise ConfigError("signatures built under different configs")
    return float(np.mean(a.values == b.values))


def _sign_chunk(
    args: tuple[list[tuple[str, list[int]]], DedupConfig]
) -> list[tuple[str, np.ndarray]]:
    """Signatures for a chunk of (doc_id, shingle hashes). Top level for pickling."""
    items, cfg = args
    return [(doc_id, _minima(np.array(hashes, dtype=np.uint64), cfg)) for doc_id, hashes in items]


def compute_signatures(
    corpus: Corpus,
    cfg: DedupConfig,
    workers: int = 1,
    shingle_sets: Mapping[str, ShingleSet] | None = None,
) -> dict[str, MinHashSignature]:
    """Signature per document; embarrassingly parallel, output order-independent."""
    if shingle_sets is None:
        shingle_sets = {d.doc_id: shingle(d.text, cfg.shingle_width) for d in corpus}
    items = [(d.doc_id, sorted(shingle_sets[d.doc_id].shingles)) for d in corpus]
    if workers > 1 and len(items) > 1:
        size = (len(items) + workers - 1) // workers
        chunks = [(items[i : i + size], cfg) for i in range(0, len(items), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_sign_chunk, chunks)
        pairs = [p for chunk in results for p in chunk]
    else:
        pairs = _sign_chunk((items, cfg))
    return {doc_id: MinHashSignature(vals, cfg.perm_seed) for doc_id, vals in pairs}


def lsh_candidate_pairs(
    signatures: Mapping[str, MinHashSignature], cfg: DedupConfig
) -> list[tuple[str, str]]:
    """Pairs whose signatures agree on all rows of at least one band.

    Output is sorted by (min_id, max_id) so downstream clustering is
    order-independent.
    """
    for sig in signatures.values():
        if sig.num_perms != cfg.num_perms or sig.perm_seed != cfg.perm_seed:
            raise ConfigError("signature does not match dedup config")
    pairs: set[tuple[str, str]] = set()
    doc_ids = sorted(signatures)
    for band in range(cfg.bands):
        start = band * cfg.rows
        end = start + cfg.rows
        buckets: dict[bytes, list[str]] = {}
        for doc_id in doc_ids:
            key = signatures[doc_id].values[start:end].tobytes()
            buckets.setdefault(key, []).append(doc_id)
        for members in buckets.values():
            if len(members) < 2:
                continue
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pairs.add((members[i], members[j]))
    return sorted(pairs)


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
    candidate_pairs: Iterable[tuple[str, str]],
    cfg: DedupConfig,
    shingle_sets: Mapping[str, ShingleSet] | None = None,
) -> list[DuplicateCluster]:
    """Verify candidates with exact Jaccard, link exact duplicates, take components.

    Every document lands in exactly one cluster; unpaired documents
    become singletons. retained_ids is left empty (see retain_top_k).
    """
    cfg.validate()
    if shingle_sets is None:
        shingle_sets = {d.doc_id: shingle(d.text, cfg.shingle_width) for d in corpus}

    uf = UnionFind()
    for d in corpus:
        uf.find(d.doc_id)

    for a, b in sorted(set(candidate_pairs)):
        if corpus.get(a) is None or corpus.get(b) is None:
            raise ConfigError(f"candidate pair references unknown doc: ({a}, {b})")
        if exact_jaccard(shingle_sets[a], shingle_sets[b]) >= cfg.jaccard_threshold:
            uf.union(a, b)

    # Exact duplicates bypass LSH entirely.
    by_hash: dict[str, list[str]] = {}
    for d in corpus:
        by_hash.setdefault(d.content_hash, []).append(d.doc_id)
    for ids in by_hash.values():
        if len(ids) > 1:
            ids.sort()
            for other in ids[1:]:
                uf.union(ids[0], other)

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
                signals=FrequencySignals.from_documents(docs),
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
    rank: Callable[[Document], tuple] | None = None,
) -> DuplicateCluster:
    """Fill retained_ids with the top min(k, n) members under `rank`.

    retained_ids[0] is the canonical document.
    """
    key = rank or default_rank
    docs = [corpus.get(i) for i in cluster.member_ids]
    if any(d is None for d in docs):
        raise ConfigError(f"cluster {cluster.cluster_id} references unknown docs")
    ordered = sorted(docs, key=key)
    retained = [d.doc_id for d in ordered[: min(cfg.top_k, len(ordered))]]
    return replace(cluster, retained_ids=retained)


def annotate_cluster_metadata(corpus: Corpus, clusters: Sequence[DuplicateCluster]) -> Corpus:
    """Write cluster_id and frequency signals into each member's extra map."""
    updates: dict[str, dict[str, str]] = {}
    for cluster in clusters:
        for doc_id in cluster.member_ids:
            updates[doc_id] = {
                "cluster_id": cluster.cluster_id,
                "freq:occurrence": str(cluster.signals.occurrence_count),
                "freq:snapshot": str(cluster.signals.snapshot_count),
                "freq:domain": str(cluster.signals.domain_count),
            }
    docs = []
    for doc in corpus:
        upd = updates.get(doc.doc_id)
        docs.append(with_extra(doc, upd) if upd else doc)
    return Corpus(docs, provenance=dict(corpus.provenance))


def run_dedup(
    corpus: Corpus, cfg: DedupConfig, workers: int = 1
) -> tuple[list[DuplicateCluster], Corpus]:
    """Full dedup pass: signatures -> LSH -> verified clusters -> top-k.

    Returns clusters (sorted by cluster_id, retention filled) and the
    corpus with cluster metadata written into Document.extra.
    """
    cfg.validate()
    shingle_sets = {d.doc_id: shingle(d.text, cfg.shingle_width) for d in corpus}
    signatures = compute_signatures(corpus, cfg, workers=workers, shingle_sets=shingle_sets)
    pairs = lsh_candidate_pairs(signatures, cfg)
    clusters = build_clusters(corpus, pairs, cfg, shingle_sets=shingle_sets)
    clusters = [retain_top_k(c, corpus, cfg) for c in clusters]
    annotated = annotate_cluster_metadata(corpus, clusters)
    return clusters, annotated


def write_clusters(clusters: Sequence[DuplicateCluster], path) -> int:
    return write_jsonl(path, (c.to_record() for c in clusters))


def read_clusters(path) -> list[DuplicateCluster]:
    return [DuplicateCluster.from_record(rec) for rec in read_jsonl(path)]
