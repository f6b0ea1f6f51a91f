"""Sample-time upsampling: one weight distribution per signal, merged.

Each configured signal gets its own WeightMap via a transform
(identity, threshold boost, or capped log2 of a count). Maps are
normalized independently and combined as a convex mixture, so a signal
with mixture weight lambda can never contribute more than lambda of
the final probability mass. Draws happen at cluster granularity with
per-cluster repetition counters rotating through retained variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .dedup import DuplicateCluster
from .errors import ConfigError, UnknownSignalError
from .jsonl import read_jsonl
from .quality import Annotation

TRANSFORMS = ("identity", "threshold", "log2_sublinear")


@dataclass(frozen=True)
class UpsamplePolicy:
    """One `sampling.policies` entry: a signal's transform and mixture weight."""

    signal_name: str = field(metadata={"json": "signal"})
    transform: str = "identity"
    threshold: float = 0.0  # threshold transform: boundary value
    boost: float = 1.0  # threshold transform: weight at/above the boundary
    cap: int = 6  # log2_sublinear: maximum weight
    mixture_weight: float = field(default=1.0, metadata={"json": "lambda"})

    def __post_init__(self):
        if not 0 <= self.mixture_weight < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.mixture_weight}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform '{self.transform}'")
        if self.transform == "threshold" and not 0 <= self.boost < math.inf:
            raise ConfigError("boost must be finite and >= 0")
        if self.transform == "log2_sublinear" and self.cap < 1:
            raise ConfigError("cap must be >= 1")

    def weight(self, value: float) -> float:
        if self.transform == "identity":
            return max(value, 0.0)
        if self.transform == "threshold":
            return float(self.boost) if value >= self.threshold else 1.0
        # log2_sublinear: min(1 + floor(log2(max(c, 1))), cap).
        c = max(int(value), 1)
        return float(min(c.bit_length(), self.cap))


@dataclass
class WeightMap:
    signal_name: str
    weights: dict[str, float]

    def validate(self) -> None:
        if not any(w > 0 for w in self.weights.values()):
            raise ConfigError(f"weight map for '{self.signal_name}' is all zero")
        for doc_id, w in self.weights.items():
            if not math.isfinite(w) or w < 0:
                raise ConfigError(
                    f"non-finite or negative weight for {doc_id} "
                    f"under '{self.signal_name}'"
                )


def build_weight_map(annotated: Iterable[Annotation], policy: UpsamplePolicy) -> WeightMap:
    """Weight per document from its named signal; covers every annotated doc."""
    weights: dict[str, float] = {}
    for row in annotated:
        if policy.signal_name not in row.signals:
            raise UnknownSignalError(
                f"document {row.doc_id} lacks signal '{policy.signal_name}'"
            )
        weights[row.doc_id] = policy.weight(row.signals[policy.signal_name])
    wm = WeightMap(signal_name=policy.signal_name, weights=weights)
    wm.validate()
    return wm


def merge_distributions(
    maps: Sequence[WeightMap], mixture_weights: Sequence[float]
) -> dict[str, float]:
    """Convex mixture of the per-signal normalized distributions, as
    doc_id -> probability.

    p(d) = sum_s lambda_s * p_s(d); signal s contributes at most
    lambda_s of the total mass.
    """
    if len(maps) != len(mixture_weights):
        raise ConfigError("one mixture weight per weight map required")
    if not maps:
        raise ConfigError("no weight maps to merge")
    names = [m.signal_name for m in maps]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate signal names in merge: {names}")
    lambdas = [float(l) for l in mixture_weights]
    if any(l < 0 for l in lambdas):
        raise ConfigError("mixture weights must be >= 0")
    if abs(math.fsum(lambdas) - 1.0) > 1e-9:
        raise ConfigError(f"mixture weights must sum to 1, got {math.fsum(lambdas)}")

    probabilities: dict[str, float] = {}
    for wm, lam in zip(maps, lambdas):
        wm.validate()
        total = math.fsum(wm.weights.values())
        for doc_id, w in wm.weights.items():
            if w == 0.0:
                continue
            probabilities[doc_id] = probabilities.get(doc_id, 0.0) + lam * (w / total)
    return probabilities


def weight_rows(
    annotated: Sequence[Annotation], policies: Sequence[UpsamplePolicy]
) -> tuple[list[dict], dict[str, float]]:
    """(rows, merged): one weights.jsonl row per document, with its weight
    under each policy and its probability in `merged`, the policies' maps
    mixed by their mixture weights."""
    maps = [build_weight_map(annotated, policy) for policy in policies]
    merged = merge_distributions(maps, [policy.mixture_weight for policy in policies])
    rows = [
        {
            "doc_id": row.doc_id,
            "weights": {m.signal_name: m.weights[row.doc_id] for m in maps},
            "probability": merged.get(row.doc_id, 0.0),
        }
        for row in annotated
    ]
    return rows, merged


def weights_distribution(rows: Iterable[dict]) -> dict[str, float]:
    """The merged distribution that weights.jsonl rows record: each row's
    probability by doc_id, in row order."""
    return {rec["doc_id"]: rec["probability"] for rec in rows}


def read_weights(path) -> dict[str, float]:
    """weights_distribution of the rows of weights file `path`."""
    return weights_distribution(read_jsonl(path))


def select_variant(cluster: DuplicateCluster, repetition_index: int) -> str:
    """Round-robin over retained variants for repeated draws of a cluster."""
    if not cluster.retained_ids:
        raise ConfigError(f"cluster {cluster.cluster_id} has no retained variants")
    return cluster.retained_ids[repetition_index % len(cluster.retained_ids)]


@dataclass
class ClusterSampler:
    """Cluster-granular view of a merged distribution.

    Member probabilities are aggregated per cluster; repeated draws of
    the same cluster rotate through its retained variants instead of
    replicating the canonical copy.
    """

    clusters: list[DuplicateCluster]
    probabilities: np.ndarray  # aligned with clusters, sums to 1
    _cumulative: np.ndarray = field(init=False)
    _counters: dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self._cumulative = np.cumsum(self.probabilities)

    @classmethod
    def from_distribution(
        cls, dist: dict[str, float], clusters: Sequence[DuplicateCluster]
    ) -> "ClusterSampler":
        cluster_by_doc: dict[str, DuplicateCluster] = {}
        for c in clusters:
            for doc_id in c.member_ids:
                cluster_by_doc[doc_id] = c
        mass: dict[str, float] = {}
        keep: dict[str, DuplicateCluster] = {}
        for doc_id, p in dist.items():
            c = cluster_by_doc.get(doc_id)
            if c is None:
                raise ConfigError(f"distribution covers unclustered doc {doc_id}")
            mass[c.cluster_id] = mass.get(c.cluster_id, 0.0) + p
            keep[c.cluster_id] = c
        ordered = sorted(keep)
        probs = np.array([mass[cid] for cid in ordered])
        total = probs.sum()
        if total <= 0:
            raise ConfigError("distribution has no mass on any cluster")
        return cls(clusters=[keep[cid] for cid in ordered], probabilities=probs / total)

    def draw_one(self, rng: np.random.Generator) -> str:
        u = rng.random()
        idx = int(np.searchsorted(self._cumulative, u, side="right"))
        idx = min(idx, len(self.clusters) - 1)
        cluster = self.clusters[idx]
        rep = self._counters.get(cluster.cluster_id, 0)
        self._counters[cluster.cluster_id] = rep + 1
        return select_variant(cluster, rep)


def draw(
    dist: dict[str, float],
    clusters: Sequence[DuplicateCluster],
    seed: int,
    n: int,
) -> list[str]:
    """n seeded draws at cluster granularity with variant rotation."""
    if n < 1 or seed < 0:
        raise ConfigError("draw count must be >= 1 and seed >= 0")
    sampler = ClusterSampler.from_distribution(dist, clusters)
    rng = np.random.default_rng(seed)
    return [sampler.draw_one(rng) for _ in range(n)]


def restrict_distribution(dist: dict[str, float], doc_ids: Iterable[str]) -> dict[str, float]:
    """Renormalized restriction of a merged distribution to a doc subset."""
    allowed = set(doc_ids)
    kept = {d: p for d, p in dist.items() if d in allowed and p > 0}
    total = math.fsum(kept.values())
    if total <= 0:
        raise ConfigError("restriction removed all probability mass")
    return {d: p / total for d, p in kept.items()}


def restrict_clusters(
    clusters: Sequence[DuplicateCluster], doc_ids: Iterable[str]
) -> list[DuplicateCluster]:
    """Cluster views whose retained lists keep only the allowed docs.

    Used before sampling so variant rotation never resurrects documents
    that were filtered out or fell outside a stage's eligible set. A
    cluster whose retained docs are all allowed is returned as it is, not
    copied; callers only read the result.
    """
    allowed = set(doc_ids)
    out = []
    for c in clusters:
        retained = [i for i in c.retained_ids if i in allowed]
        if not retained:
            continue
        unchanged = len(retained) == len(c.retained_ids)
        out.append(c if unchanged else replace(c, retained_ids=retained))
    return out
