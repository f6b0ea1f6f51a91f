"""Heuristic gate plus named, uncollapsed per-document quality signals.

The heuristic filter only drops documents that are useless for training
under any weighting (too short, degenerate word shapes, mostly
non-alphabetic, dominated by one repeated line). Everything that
survives gets a plain signal dict: one "clf:<model_id>" entry per
ensemble classifier, the cluster's three "freq:*" counts, and one
binary "tag:<name>" entry per domain tag. The signals are never
combined here; mixing them is a sampling-time decision. Heuristics and
scoring run in the calling process, one retained document at a time,
reading words from the corpus's word table (Corpus.words), so no text is
split again. Where every classifier of an n-gram order set allows the word
gate (classifier.QualityClassifier.allows_word_gate), an n-gram of two or
more words is hashed only if all its words are in a vocabulary.

Signals travel as text-free Annotation rows (annotated.jsonl, format 2)
with JSON-float values; readers join them to corpus.jsonl on doc_id. A row
holds the Annotation fields, written by jsonl.write_records and read by
jsonl.read_records under the JSON keys declared on the fields: `signals`
is the key `extra`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .classifier import QualityClassifier, ngram_hashes
from .corpus import Corpus, Document
from .dedup import DuplicateCluster
from .errors import ConfigError, PipelineOrderError
from .hashing import WordTable
from .jsonl import read_records, write_jsonl

REQUIRED_TAGS = ("code", "math")
ANNOTATED_FORMAT = 2
DEFAULT_TAG_THRESHOLD = 0.5


@dataclass(frozen=True)
class HeuristicThresholds:
    min_words: int = 20
    min_mean_word_length: float = 2.0
    max_mean_word_length: float = 12.0
    min_alpha_ratio: float = 0.6
    max_line_repeat_ratio: float = 0.5


@dataclass(frozen=True)
class TextStats:
    word_count: int
    mean_word_length: float
    alpha_ratio: float
    max_line_repeat_ratio: float


@dataclass
class DropRecord:
    """The heuristic rules `doc_id` fails, none if it is kept, and its
    stats; drop_report.jsonl holds the dropped documents' records, each
    as these fields with `stats` nested."""

    doc_id: str
    reasons: list[str]
    stats: TextStats


# The ASCII bytes that str.isalpha rejects: everything but A-Z and a-z.
_ASCII_NON_ALPHA = bytes(b for b in range(128) if not chr(b).isalpha())


def text_stats(text: str, words: WordTable | None = None) -> TextStats:
    """The text's stats; its words come from `words` (a fresh table without one)."""
    words = words or WordTable()
    ids = words.ids(text)
    word_count = len(ids)
    mean_word_length = int(words.lengths(ids).sum()) / word_count if word_count else 0.0
    if text.isascii():
        alpha = len(text.encode("ascii").translate(None, _ASCII_NON_ALPHA))
    else:
        alpha = sum(c.isalpha() for c in text)
    alpha_ratio = alpha / len(text) if text else 0.0
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) <= 1:
        # A single-line document repeats nothing; the ratio only means
        # something once there are lines to compare.
        line_repeat = 0.0
    else:
        line_repeat = max(Counter(lines).values()) / len(lines)
    return TextStats(
        word_count=word_count,
        mean_word_length=mean_word_length,
        alpha_ratio=alpha_ratio,
        max_line_repeat_ratio=line_repeat,
    )


def heuristic_filter(
    doc: Document, thresholds: HeuristicThresholds = HeuristicThresholds(), words: WordTable | None = None
) -> DropRecord:
    """Apply the drop rules; dropped iff `reasons` is not empty. Words come from `words`."""
    stats = text_stats(doc.text, words)
    reasons = []
    if stats.word_count < thresholds.min_words:
        reasons.append("min_words")
    if not (
        thresholds.min_mean_word_length
        <= stats.mean_word_length
        <= thresholds.max_mean_word_length
    ):
        reasons.append("mean_word_length")
    if stats.alpha_ratio < thresholds.min_alpha_ratio:
        reasons.append("alpha_ratio")
    if stats.max_line_repeat_ratio > thresholds.max_line_repeat_ratio:
        reasons.append("line_repeat")
    return DropRecord(doc.doc_id, reasons, stats)


@dataclass(frozen=True)
class Annotation:
    """One annotated.jsonl row: a surviving document's signals, no text.
    JSON floats round-trip float64 exactly."""

    doc_id: str
    url: str
    cluster_id: str
    signals: dict[str, float] = field(metadata={"json": "extra"})


def read_annotations(path) -> list[Annotation]:
    """The rows of an annotated.jsonl file; any row that is not format 2
    (say a format-1 row carrying `text`) raises ConfigError."""
    try:
        return read_records(Annotation, path)
    except ConfigError as exc:
        raise ConfigError(
            f"{exc} (annotated.jsonl format {ANNOTATED_FORMAT}; rerun the quality phase)"
        ) from exc


def signal_names(model_ids: Sequence[str], domain_tags: Iterable[str]) -> list[str]:
    """The signals of each row annotate writes for ensemble members
    `model_ids` and domain classifiers `domain_tags`, in its order:
    clf:<model_id> per member, the three freq:* counts, then tag:<tag> for
    each of REQUIRED_TAGS and each further domain tag."""
    tags = [*REQUIRED_TAGS, *(t for t in domain_tags if t not in REQUIRED_TAGS)]
    return [
        *(f"clf:{m}" for m in model_ids),
        "freq:occurrence", "freq:snapshot", "freq:domain",
        *(f"tag:{t}" for t in tags),
    ]


def annotate(
    corpus: Corpus,
    clusters: Sequence[DuplicateCluster],
    classifiers: Sequence[QualityClassifier],
    domain_classifiers: Mapping[str, QualityClassifier] | None = None,
    thresholds: HeuristicThresholds = HeuristicThresholds(),
    tag_threshold: float = DEFAULT_TAG_THRESHOLD,
) -> tuple[list[Annotation], list[DropRecord]]:
    """One Annotation row per retained, heuristics-surviving doc, in
    doc_id order, and one DropRecord per retained doc the heuristics
    drop, in cluster order.

    Requires dedup to have run: every scored document must belong to a
    cluster with retention filled in. Deterministic and idempotent; the
    result never contains a combined score.

    Scorers are grouped by their n-gram orders, and each group's hashes
    are taken once per kept text, through the word gate with `known`, the
    union of all the vocabularies, when all its scorers allow it: each
    vocabulary holds the words of its own n-grams and score_hashes ignores
    other hashes, so every score is the one the full hash list gives.
    """
    domain_classifiers = domain_classifiers or {}
    cluster_by_doc: dict[str, DuplicateCluster] = {}
    for cluster in clusters:
        if not cluster.retained_ids:
            raise PipelineOrderError(
                f"cluster {cluster.cluster_id} has no retained variants; "
                "run retention before annotation"
            )
        for doc_id in cluster.member_ids:
            cluster_by_doc[doc_id] = cluster
    missing = [d.doc_id for d in corpus if d.doc_id not in cluster_by_doc]
    if missing:
        raise PipelineOrderError(
            f"{len(missing)} documents have no cluster annotation "
            f"(first: {missing[0]})"
        )

    names = signal_names([clf.model_id for clf in classifiers], domain_classifiers)
    tag_classifiers = [
        (name, domain_classifiers.get(name.removeprefix("tag:")))
        for name in names if name.startswith("tag:")
    ]
    scorers = [*classifiers, *(clf for _, clf in tag_classifiers if clf is not None)]
    known = set().union(*(clf.vocabulary for clf in scorers))
    ungated = {clf.hyper.orders for clf in scorers if not clf.allows_word_gate}
    gates = {
        clf.hyper.orders: None if clf.hyper.orders in ungated else known for clf in scorers
    }

    annotated: list[Annotation] = []
    drops: list[DropRecord] = []
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        for doc_id in cluster.retained_ids:
            doc = corpus.get(doc_id)
            if doc is None:
                raise PipelineOrderError(f"retained doc {doc_id} missing from corpus")
            report = heuristic_filter(doc, thresholds, corpus.words)
            if report.reasons:
                drops.append(report)
                continue
            hashes_by_orders = {
                orders: ngram_hashes(doc.text, orders, corpus.words, gate)
                for orders, gate in gates.items()
            }
            signals = {
                f"clf:{clf.model_id}": clf.score_hashes(hashes_by_orders[clf.hyper.orders])
                for clf in classifiers
            }
            signals["freq:occurrence"] = float(cluster.occurrence_count)
            signals["freq:snapshot"] = float(cluster.snapshot_count)
            signals["freq:domain"] = float(cluster.domain_count)
            for name, clf in tag_classifiers:
                tagged = clf is not None and (
                    clf.score_hashes(hashes_by_orders[clf.hyper.orders]) >= tag_threshold
                )
                signals[name] = 1.0 if tagged else 0.0
            annotated.append(Annotation(doc_id, doc.url, cluster.cluster_id, signals))
    annotated.sort(key=lambda row: row.doc_id)
    return annotated, drops


def write_drop_report(drops: Sequence[DropRecord], path) -> int:
    return write_jsonl(path, map(asdict, drops))
