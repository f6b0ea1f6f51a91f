"""Linear bag-of-n-grams quality classifiers.

Each classifier is a logistic model over hashed word n-gram counts
(unigrams + bigrams by default), trained with seeded SGD so that the
same inputs and seed always produce bit-identical weights. Ensemble
members are trained independently, one per high-quality reference
source; their scores stay separate signals downstream.

Binary model format (little-endian), version 1:

    magic      4 bytes  b"CPQC"
    version    u32
    model_id   u32 length + UTF-8 bytes
    orders     u16 count + u16 per order
    max_feat   u64   vocabulary size cap
    epochs     u32
    lr         f64
    seed       u64
    meta       u32 length + UTF-8 JSON (training_meta)
    vocab      u64 count + count * (u64 ngram hash, u32 index)
    weights    u64 count + count * f64
    bias       f64
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .errors import ConfigError
from .hashing import word_window_hashes
from .jsonl import atomic_write

MAGIC = b"CPQC"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClassifierHyper:
    orders: tuple[int, ...] = (1, 2)
    max_features: int = 1 << 18
    epochs: int = 25
    lr: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if not self.orders or any(n < 1 for n in self.orders):
            raise ConfigError("n-gram orders must be positive")
        if self.max_features < 1:
            raise ConfigError("max_features must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")


def ngram_hashes(text: str, orders: Sequence[int]) -> list[int]:
    """64-bit hashes of all word n-grams of the given orders."""
    return word_window_hashes(text, orders)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class QualityClassifier:
    model_id: str
    hyper: ClassifierHyper
    vocabulary: dict[int, int]  # ngram hash -> weight index
    weights: np.ndarray  # float64, len(vocabulary)
    bias: float
    training_meta: dict = field(default_factory=dict)

    def _features(self, hashes: Iterable[int]) -> dict[int, int]:
        counts: dict[int, int] = {}
        vocab = self.vocabulary
        for h in hashes:
            idx = vocab.get(h)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        return counts

    def score_hashes(self, hashes: Iterable[int]) -> float:
        z = self.bias
        for idx, count in self._features(hashes).items():
            z += self.weights[idx] * count
        return _sigmoid(z)

    def score_text(self, text: str) -> float:
        return self.score_hashes(ngram_hashes(text, self.hyper.orders))

    def save(self, path: str | Path) -> None:
        vocab_items = sorted(self.vocabulary.items(), key=lambda kv: kv[1])
        meta_bytes = json.dumps(self.training_meta, sort_keys=True).encode("utf-8")
        model_bytes = self.model_id.encode("utf-8")
        parts = [
            MAGIC,
            struct.pack("<I", FORMAT_VERSION),
            struct.pack("<I", len(model_bytes)),
            model_bytes,
            struct.pack("<H", len(self.hyper.orders)),
            struct.pack(f"<{len(self.hyper.orders)}H", *self.hyper.orders),
            struct.pack("<QIdQ", self.hyper.max_features, self.hyper.epochs,
                        self.hyper.lr, self.hyper.seed),
            struct.pack("<I", len(meta_bytes)),
            meta_bytes,
            struct.pack("<Q", len(vocab_items)),
        ]
        for h, idx in vocab_items:
            parts.append(struct.pack("<QI", h, idx))
        parts.append(struct.pack("<Q", len(self.weights)))
        parts.append(self.weights.astype("<f8").tobytes())
        parts.append(struct.pack("<d", self.bias))
        with atomic_write(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "QualityClassifier":
        data = Path(path).read_bytes()
        view = memoryview(data)
        pos = 0

        def take(n: int) -> memoryview:
            nonlocal pos
            chunk = view[pos : pos + n]
            pos += n
            return chunk

        if bytes(take(4)) != MAGIC:
            raise ConfigError(f"{path}: not a classifier file (bad magic)")
        (version,) = struct.unpack("<I", take(4))
        if version != FORMAT_VERSION:
            raise ConfigError(f"{path}: unsupported format version {version}")
        (mlen,) = struct.unpack("<I", take(4))
        model_id = bytes(take(mlen)).decode("utf-8")
        (n_orders,) = struct.unpack("<H", take(2))
        orders = struct.unpack(f"<{n_orders}H", take(2 * n_orders))
        max_features, epochs, lr, seed = struct.unpack("<QIdQ", take(28))
        (meta_len,) = struct.unpack("<I", take(4))
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
        (n_vocab,) = struct.unpack("<Q", take(8))
        vocab: dict[int, int] = {}
        for _ in range(n_vocab):
            h, idx = struct.unpack("<QI", take(12))
            vocab[h] = idx
        (n_weights,) = struct.unpack("<Q", take(8))
        weights = np.frombuffer(take(8 * n_weights), dtype="<f8").copy()
        (bias,) = struct.unpack("<d", take(8))
        hyper = ClassifierHyper(
            orders=tuple(orders), max_features=max_features,
            epochs=epochs, lr=lr, seed=seed,
        )
        return cls(model_id=model_id, hyper=hyper, vocabulary=vocab,
                   weights=weights, bias=bias, training_meta=meta)


def _texts(docs: Iterable[Document | str]) -> list[str]:
    return [d.text if isinstance(d, Document) else d for d in docs]


def train_classifier(
    positives: Iterable[Document | str],
    negatives: Iterable[Document | str],
    hyper: ClassifierHyper = ClassifierHyper(),
    model_id: str = "clf",
    source_name: str = "",
) -> QualityClassifier:
    """Train one ensemble member on a positive source vs. a negative pool.

    Deterministic given the seed: vocabulary order, SGD example order and
    float accumulation order are all fixed.
    """
    hyper.validate()
    pos_texts = _texts(positives)
    neg_texts = _texts(negatives)
    if not pos_texts or not neg_texts:
        raise ConfigError("both classes need at least one document")

    sample_hashes = [ngram_hashes(t, hyper.orders) for t in pos_texts + neg_texts]
    labels = np.array([1.0] * len(pos_texts) + [0.0] * len(neg_texts))

    # Vocabulary: most frequent n-grams first, hash value as tie-break.
    doc_freq: dict[int, int] = {}
    for hashes in sample_hashes:
        for h in set(hashes):
            doc_freq[h] = doc_freq.get(h, 0) + 1
    ranked = sorted(doc_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {h: i for i, (h, _) in enumerate(ranked[: hyper.max_features])}

    feats: list[tuple[np.ndarray, np.ndarray]] = []
    for hashes in sample_hashes:
        counts: dict[int, int] = {}
        for h in hashes:
            idx = vocab.get(h)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        idxs = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
        vals = np.array([float(counts[i]) for i in idxs])
        feats.append((idxs, vals))

    weights = np.zeros(len(vocab))
    bias = 0.0
    rng = np.random.default_rng(hyper.seed)
    for _ in range(hyper.epochs):
        for i in rng.permutation(len(feats)):
            idxs, vals = feats[i]
            z = bias + float(weights[idxs] @ vals)
            grad = _sigmoid(z) - labels[i]
            weights[idxs] -= hyper.lr * grad * vals
            bias -= hyper.lr * grad

    correct = 0
    for (idxs, vals), y in zip(feats, labels):
        p = _sigmoid(bias + float(weights[idxs] @ vals))
        correct += int((p >= 0.5) == (y == 1.0))
    train_accuracy = correct / len(feats)

    return QualityClassifier(
        model_id=model_id,
        hyper=hyper,
        vocabulary=vocab,
        weights=weights,
        bias=bias,
        training_meta={
            "source": source_name or model_id,
            "seed": hyper.seed,
            "epochs": hyper.epochs,
            "positives": len(pos_texts),
            "negatives": len(neg_texts),
            "train_accuracy": train_accuracy,
        },
    )


def score(clf: QualityClassifier, doc: Document | str) -> float:
    """Sigmoid of the linear score over the document's hashed n-grams."""
    text = doc.text if isinstance(doc, Document) else doc
    return clf.score_text(text)
