"""Linear bag-of-n-grams quality classifiers.

Each classifier is a logistic model over hashed word n-gram counts
(unigrams + bigrams by default), trained with seeded SGD so that the
same inputs and seed always produce bit-identical weights on any CPU:
each margin is an exactly rounded math.fsum of elementwise products,
never a BLAS dot product, whose kernel and summation order OpenBLAS
picks by CPU. Ensemble members are trained independently, one per
high-quality reference source; their scores stay separate signals
downstream.

A model whose vocabulary holds every word of each of its n-grams may skip,
unhashed, every n-gram with a word outside it and score the same float
(QualityClassifier.allows_word_gate).

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

from .errors import ConfigError
from .hashing import WordTable, word_window_hashes as ngram_hashes  # the models' n-gram features
from .jsonl import atomic_write

MAGIC = b"CPQC"
DEFAULT_MODEL_ID = "clf"
FORMAT_VERSION = 1
# Version of train_classifier's arithmetic and metadata; part of the quality
# phase key. 1 summed margins with a BLAS dot product and named the source by
# its path; 2 sums them with math.fsum and names it by its sha256.
TRAINING_VERSION = 2


@dataclass(frozen=True)
class ClassifierHyper:
    orders: tuple[int, ...] = (1, 2)
    max_features: int = 1 << 18
    epochs: int = 25
    lr: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # The integer ranges are those QualityClassifier.save packs.
        if not self.orders or any(not 1 <= n < 2**16 for n in self.orders):
            raise ConfigError("n-gram orders must be in [1, 2**16)")
        if not 1 <= self.max_features < 2**64:
            raise ConfigError("max_features must be in [1, 2**64)")
        if not 1 <= self.epochs < 2**32:
            raise ConfigError("epochs must be in [1, 2**32)")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and > 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be in [0, 2**64)")


def _feature_counts(hashes: Iterable[int], vocab: dict[int, int]) -> dict[int, int]:
    """{weight index: count} of the hashes found in `vocab`, in first-seen order."""
    counts: dict[int, int] = {}
    for h in hashes:
        idx = vocab.get(h)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return counts


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

    def score_hashes(self, hashes: Iterable[int]) -> float:
        z = self.bias
        for idx, count in _feature_counts(hashes, self.vocabulary).items():
            z += self.weights[idx] * count
        return _sigmoid(z)

    @property
    def allows_word_gate(self) -> bool:
        """Whether scoring may skip the n-grams with a word outside the
        vocabulary (the word gate of hashing.word_window_hashes). It may
        when the vocabulary holds every word of each of its n-grams:
        train_classifier keeps every n-gram it saw unless the vocabulary
        reached max_features, and with order 1 those include every word
        of the longer ones."""
        return 1 in self.hyper.orders and len(self.vocabulary) < self.hyper.max_features

    def score_text(self, text: str, words: WordTable | None = None) -> float:
        """Sigmoid of the linear score over the text's hashed n-grams, words
        from `words`; the word gate skips n-grams that cannot be in the vocabulary."""
        known = self.vocabulary if self.allows_word_gate else None
        return self.score_hashes(ngram_hashes(text, self.hyper.orders, words, known))

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


def train_classifier(
    positives: Sequence[str],
    negatives: Sequence[str],
    hyper: ClassifierHyper = ClassifierHyper(),
    model_id: str = DEFAULT_MODEL_ID,
    source: str = "",
) -> QualityClassifier:
    """Train one ensemble member on a positive source vs. a negative pool.

    Deterministic given the seed: vocabulary order, SGD example order and
    float accumulation order are all fixed, and each margin is summed
    exactly (math.fsum). `source` names the positive source in
    training_meta (default: model_id); the pipeline and the CLI pass the
    sha256 of the positives file, so no path reaches the model bytes.
    """
    if not positives or not negatives:
        raise ConfigError("both classes need at least one document")

    words = WordTable()
    sample_hashes = [ngram_hashes(t, hyper.orders, words) for t in [*positives, *negatives]]
    labels = np.array([1.0] * len(positives) + [0.0] * len(negatives))

    # Vocabulary: most frequent n-grams first, hash value as tie-break.
    doc_freq: dict[int, int] = {}
    for hashes in sample_hashes:
        for h in set(hashes):
            doc_freq[h] = doc_freq.get(h, 0) + 1
    ranked = sorted(doc_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {h: i for i, (h, _) in enumerate(ranked[: hyper.max_features])}

    feats: list[tuple[np.ndarray, np.ndarray]] = []
    for hashes in sample_hashes:
        counts = _feature_counts(hashes, vocab)
        idxs = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
        vals = np.array([float(counts[i]) for i in idxs])
        feats.append((idxs, vals))

    weights = np.zeros(len(vocab))
    bias = 0.0
    rng = np.random.default_rng(hyper.seed)
    for _ in range(hyper.epochs):
        for i in rng.permutation(len(feats)):
            idxs, vals = feats[i]
            # A list of floats, not the array: fsum reads it twice as fast.
            z = bias + math.fsum((weights[idxs] * vals).tolist())
            grad = _sigmoid(z) - labels[i]
            weights[idxs] -= hyper.lr * grad * vals
            bias -= hyper.lr * grad

    correct = 0
    for (idxs, vals), y in zip(feats, labels):
        p = _sigmoid(bias + math.fsum((weights[idxs] * vals).tolist()))
        correct += int((p >= 0.5) == (y == 1.0))
    train_accuracy = correct / len(feats)

    return QualityClassifier(
        model_id=model_id,
        hyper=hyper,
        vocabulary=vocab,
        weights=weights,
        bias=bias,
        training_meta={
            "source": source or model_id,
            "seed": hyper.seed,
            "epochs": hyper.epochs,
            "positives": len(positives),
            "negatives": len(negatives),
            "train_accuracy": train_accuracy,
        },
    )
