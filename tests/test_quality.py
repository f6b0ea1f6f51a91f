"""Heuristic filter, classifier and annotation tests."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from corpusprep.classifier import (
    ClassifierHyper,
    QualityClassifier,
    score,
    train_classifier,
)
from corpusprep.corpus import ingest_record
from corpusprep.dedup import DedupConfig, run_dedup
from corpusprep.errors import ConfigError, PipelineOrderError, UnknownSignalError
from corpusprep.quality import (
    QualitySignalVector,
    annotate,
    heuristic_filter,
    signals_from_extra,
    signals_to_extra,
    text_stats,
)

from conftest import ingest_records, make_record, make_text, make_vocab

RNG = np.random.default_rng(42)
VOCAB = make_vocab(RNG, 600)


def doc_of(text: str, idx: int = 0):
    return ingest_record(json.dumps(make_record(text, idx)))


def toy_texts(marker: str, n: int, rng: np.random.Generator, n_words: int = 40) -> list[str]:
    out = []
    for _ in range(n):
        words = [VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), n_words)]
        words += [marker] * 2
        rng.shuffle(words)
        out.append(" ".join(words))
    return out


class TestHeuristics:
    def test_prose_paragraph_keeps(self):
        text = make_text(RNG, VOCAB, 500)
        report = heuristic_filter(doc_of(text))
        assert report.verdict == "keep"
        assert report.reasons == []

    def test_short_doc_min_words_only(self):
        report = heuristic_filter(doc_of("aaaa " * 10))
        assert report.verdict == "drop"
        assert report.reasons == ["min_words"]

    def test_identical_lines_dropped(self):
        text = "\n".join(["this line repeats again and again ok"] * 100)
        report = heuristic_filter(doc_of(text))
        assert report.verdict == "drop"
        assert "line_repeat" in report.reasons
        assert report.stats.max_line_repeat_ratio == 1.0

    def test_single_line_not_flagged_as_repeat(self):
        report = heuristic_filter(doc_of(make_text(RNG, VOCAB, 500).replace("\n", " ")))
        assert "line_repeat" not in report.reasons

    def test_drop_reasons_nonempty_iff_drop(self):
        for text in ["hi", make_text(RNG, VOCAB, 100), "1 2 3 4 5 6 7 8 9" * 10]:
            report = heuristic_filter(doc_of(text))
            assert (report.verdict == "drop") == bool(report.reasons)

    def test_non_alpha_dropped(self):
        text = " ".join(["123456"] * 40)
        report = heuristic_filter(doc_of(text))
        assert "alpha_ratio" in report.reasons

    def test_long_words_dropped(self):
        text = " ".join(["x" * 30] * 40)
        report = heuristic_filter(doc_of(text))
        assert "mean_word_length" in report.reasons

    def test_stats_match_straightforward_reimplementation(self):
        """Oracle cross-check on 100 random docs."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            text = make_text(rng, VOCAB, int(rng.integers(5, 200)))
            stats = text_stats(text)
            words = text.split()
            assert stats.word_count == len(words)
            assert stats.mean_word_length == pytest.approx(
                sum(len(w) for w in words) / len(words)
            )
            assert stats.alpha_ratio == pytest.approx(
                sum(1 for ch in text if ch.isalpha()) / len(text)
            )
            lines = [ln for ln in text.split("\n") if ln.strip()]
            expected = (
                0.0 if len(lines) <= 1 else Counter(lines).most_common(1)[0][1] / len(lines)
            )
            assert stats.max_line_repeat_ratio == pytest.approx(expected)


class TestClassifier:
    def test_separable_toy_task(self):
        rng = np.random.default_rng(5)
        pos = toy_texts("alphamarker", 200, rng)
        neg = toy_texts("betamarker", 200, rng)
        clf = train_classifier(pos[:150], neg[:150], ClassifierHyper(seed=1), "toy")
        held = [(t, 1) for t in pos[150:]] + [(t, 0) for t in neg[150:]]
        acc = sum((score(clf, t) >= 0.5) == bool(y) for t, y in held) / len(held)
        assert acc >= 0.95

    def test_positive_distribution_scores_high(self):
        rng = np.random.default_rng(6)
        pos = toy_texts("alphamarker", 120, rng)
        neg = toy_texts("betamarker", 120, rng)
        clf = train_classifier(pos[:100], neg[:100], ClassifierHyper(seed=2), "toy")
        for t in pos[100:]:
            assert score(clf, t) > 0.9
        for t in neg[100:]:
            assert score(clf, t) < 0.1

    def test_identical_classes_no_signal(self):
        rng = np.random.default_rng(7)
        texts = toy_texts("nomarker", 100, rng)
        clf = train_classifier(texts, texts, ClassifierHyper(seed=3), "sym")
        assert 0.4 <= clf.training_meta["train_accuracy"] <= 0.6

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(8)
        pos = toy_texts("alphamarker", 50, rng)
        neg = toy_texts("betamarker", 50, rng)
        a = train_classifier(pos, neg, ClassifierHyper(seed=11), "a")
        b = train_classifier(pos, neg, ClassifierHyper(seed=11), "b")
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.vocabulary == b.vocabulary

    def test_zero_weight_scores_half(self):
        clf = QualityClassifier(
            model_id="zero",
            hyper=ClassifierHyper(),
            vocabulary={},
            weights=np.zeros(0),
            bias=0.0,
        )
        assert score(clf, doc_of(make_text(RNG, VOCAB, 30))) == 0.5

    def test_empty_class_rejected(self):
        with pytest.raises(ConfigError):
            train_classifier([], ["some text"], ClassifierHyper(), "x")

    def test_serialization_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        pos = toy_texts("alphamarker", 40, rng)
        neg = toy_texts("betamarker", 40, rng)
        clf = train_classifier(pos, neg, ClassifierHyper(seed=4), "rt")
        path = tmp_path / "rt.clf"
        clf.save(path)
        loaded = QualityClassifier.load(path)
        assert loaded.model_id == clf.model_id
        assert loaded.hyper == clf.hyper
        assert loaded.vocabulary == clf.vocabulary
        assert loaded.weights.tobytes() == clf.weights.tobytes()
        assert loaded.bias == clf.bias
        assert loaded.training_meta == clf.training_meta
        # Saving the loaded model reproduces the same bytes.
        path2 = tmp_path / "rt2.clf"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_score_pure_function(self):
        rng = np.random.default_rng(10)
        pos = toy_texts("alphamarker", 30, rng)
        neg = toy_texts("betamarker", 30, rng)
        clf = train_classifier(pos, neg, ClassifierHyper(seed=5), "pure")
        doc = doc_of(pos[0])
        assert score(clf, doc) == score(clf, doc)


def annotated_fixture(tag_scores=False):
    rng = np.random.default_rng(1)
    records = []
    for i in range(30):
        records.append(make_record(make_text(rng, VOCAB, 60), i))
    # A short doc that heuristics must drop.
    records.append(make_record("too short", 30))
    corpus = ingest_records(records)
    clusters, clustered = run_dedup(corpus, DedupConfig())
    pos = toy_texts("alphamarker", 40, rng)
    neg = toy_texts("betamarker", 40, rng)
    ensemble = [
        train_classifier(pos, neg, ClassifierHyper(seed=21), "web"),
        train_classifier(neg, pos, ClassifierHyper(seed=22), "books"),
    ]
    domain = {
        "code": train_classifier(pos, neg, ClassifierHyper(seed=23), "code"),
        "math": train_classifier(neg, pos, ClassifierHyper(seed=24), "math"),
    }
    return corpus, clustered, clusters, ensemble, domain


class TestAnnotate:
    def test_signal_names_exactly_required_set(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(clustered, clusters, ensemble, domain)
        assert len(annotated) > 0
        expected = {"clf:web", "clf:books", "freq:occurrence", "freq:snapshot",
                    "freq:domain", "tag:code", "tag:math"}
        for doc in annotated:
            vec = signals_from_extra(doc.extra)
            assert set(vec.signals) == expected
            vec.validate(["web", "books"])

    def test_freq_signals_copied_from_cluster(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(clustered, clusters, ensemble, domain)
        by_doc = {m: c for c in clusters for m in c.member_ids}
        for doc in annotated:
            c = by_doc[doc.doc_id]
            vec = signals_from_extra(doc.extra)
            assert vec["freq:occurrence"] == float(c.signals.occurrence_count)
            assert vec["freq:snapshot"] == float(c.signals.snapshot_count)
            assert vec["freq:domain"] == float(c.signals.domain_count)

    def test_tag_thresholding(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(clustered, clusters, ensemble, domain, tag_threshold=0.5)
        for doc in annotated:
            vec = signals_from_extra(doc.extra)
            code_score = domain["code"].score_text(doc.text)
            assert vec["tag:code"] == (1.0 if code_score >= 0.5 else 0.0)
            assert vec["tag:math"] in (0.0, 1.0)

    def test_heuristic_drops_reported_not_annotated(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(clustered, clusters, ensemble, domain)
        assert len(drops) == 1
        assert drops[0].reasons == ["min_words"]
        annotated_ids = {d.doc_id for d in annotated}
        assert drops[0].doc_id not in annotated_ids

    def test_counts_reconcile(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(clustered, clusters, ensemble, domain)
        retained_total = sum(len(c.retained_ids) for c in clusters)
        assert len(annotated) + len(drops) == retained_total

    def test_idempotent_and_deterministic(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        a1, d1 = annotate(clustered, clusters, ensemble, domain)
        a2, d2 = annotate(clustered, clusters, ensemble, domain)
        assert [d.to_record() for d in a1] == [d.to_record() for d in a2]
        assert [d.to_record() for d in d1] == [d.to_record() for d in d2]

    def test_plain_corpus_annotates_like_clustered_corpus(self):
        """Cluster membership and frequency come from the clusters, so the
        pipeline's quality phase can read corpus.jsonl directly."""
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        plain, plain_drops = annotate(corpus, clusters, ensemble, domain)
        rich, rich_drops = annotate(clustered, clusters, ensemble, domain)
        assert len(plain) > 0
        assert [d.to_record() for d in plain] == [d.to_record() for d in rich]
        assert [d.to_record() for d in plain_drops] == [d.to_record() for d in rich_drops]

    def test_no_composite_score_written(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(clustered, clusters, ensemble, domain)
        for doc in annotated:
            for key in doc.extra:
                assert not key.startswith(("composite", "combined", "quality_score"))

    def test_unretained_clusters_rejected(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        from dataclasses import replace

        naked = [replace(c, retained_ids=[]) for c in clusters]
        with pytest.raises(PipelineOrderError):
            annotate(clustered, naked, ensemble, domain)

    def test_missing_cluster_coverage_rejected(self):
        corpus, clustered, clusters, ensemble, domain = annotated_fixture()
        with pytest.raises(PipelineOrderError):
            annotate(clustered, clusters[: len(clusters) // 2], ensemble, domain)


class TestSignalVector:
    def test_round_trip_through_extra(self):
        vec = QualitySignalVector(
            {"clf:a": 0.123456789012345, "freq:occurrence": 3.0, "tag:code": 1.0}
        )
        back = signals_from_extra(signals_to_extra(vec))
        assert back.signals == vec.signals

    def test_unknown_signal_raises(self):
        vec = QualitySignalVector({"clf:a": 0.5})
        with pytest.raises(UnknownSignalError):
            vec["clf:missing"]

    def test_validate_missing_names(self):
        vec = QualitySignalVector({"clf:a": 0.5})
        with pytest.raises(UnknownSignalError):
            vec.validate(["a"])
