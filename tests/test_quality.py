"""Heuristic filter, classifier and annotation tests."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusprep
from corpusprep import hashing
from corpusprep.classifier import (
    ClassifierHyper,
    QualityClassifier,
    ngram_hashes,
    train_classifier,
)
from corpusprep.corpus import Corpus, Document, ingest_record
from corpusprep.dedup import DedupConfig, DuplicateCluster, run_dedup
from corpusprep.errors import ConfigError, PipelineOrderError
from corpusprep.jsonl import write_records
from corpusprep.quality import (
    Annotation,
    HeuristicThresholds,
    REQUIRED_TAGS,
    annotate,
    heuristic_filter,
    read_annotations,
    signal_names,
    text_stats,
)

from conftest import (
    ingest_records,
    make_pipeline_workspace,
    make_record,
    make_text,
    make_vocab,
)

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
        assert report.reasons == []

    def test_short_doc_min_words_only(self):
        report = heuristic_filter(doc_of("aaaa " * 10))
        assert report.reasons == ["min_words"]

    def test_identical_lines_dropped(self):
        text = "\n".join(["this line repeats again and again ok"] * 100)
        report = heuristic_filter(doc_of(text))
        assert "line_repeat" in report.reasons
        assert report.stats.max_line_repeat_ratio == 1.0

    def test_single_line_not_flagged_as_repeat(self):
        report = heuristic_filter(doc_of(make_text(RNG, VOCAB, 500).replace("\n", " ")))
        assert "line_repeat" not in report.reasons

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


    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(
        st.sampled_from("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x00\x7f azAZ09_.-"),
        st.characters(max_codepoint=127),
        st.sampled_from("éßΩжあ٣１²ⅷ\u00a0\u2028"),
        st.characters(),
    )))
    def test_word_and_alpha_counts_equal_the_per_character_sums(self, text):
        stats = text_stats(text)
        words = text.split()
        assert stats.alpha_ratio == (
            sum(c.isalpha() for c in text) / len(text) if text else 0.0
        )
        assert stats.mean_word_length == (
            sum(len(w) for w in words) / len(words) if words else 0.0
        )


def _on_openblas() -> bool:
    config = getattr(np.__config__, "CONFIG", {})
    return "openblas" in str(config.get("Build Dependencies", {}).get("blas", {})).lower()


# Trains `web` as the pipeline does and saves it: argv is positives, negatives, out.
_TRAIN_SCRIPT = """
import sys
from corpusprep.classifier import ClassifierHyper, train_classifier
from corpusprep.pipeline import training_texts
pos, neg, out = sys.argv[1:]
hyper = ClassifierHyper(epochs=12, seed=101)
train_classifier(training_texts(pos), training_texts(neg), hyper, "web").save(out)
"""


class TestClassifier:
    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64") or not _on_openblas(),
        reason="OPENBLAS_CORETYPE picks kernels only in OpenBLAS on x86-64",
    )
    def test_model_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        """OpenBLAS picks its dot kernel by CPU, and OPENBLAS_CORETYPE
        overrides the pick, so two processes stand in for two machines."""
        make_pipeline_workspace(tmp_path, n_docs=50, seed=8)
        src = os.path.dirname(os.path.dirname(corpusprep.__file__))
        models = []
        for coretype in ("", "Nehalem"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"web{coretype}.clf"
            subprocess.run(
                [sys.executable, "-c", _TRAIN_SCRIPT,
                 str(tmp_path / "web_pos.jsonl"), str(tmp_path / "web_neg.jsonl"), str(out)],
                env=env, check=True,
            )
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_separable_toy_task(self):
        rng = np.random.default_rng(5)
        pos = toy_texts("alphamarker", 200, rng)
        neg = toy_texts("betamarker", 200, rng)
        clf = train_classifier(pos[:150], neg[:150], ClassifierHyper(seed=1), "toy")
        held = [(t, 1) for t in pos[150:]] + [(t, 0) for t in neg[150:]]
        acc = sum((clf.score_text(t) >= 0.5) == bool(y) for t, y in held) / len(held)
        assert acc >= 0.95

    def test_positive_distribution_scores_high(self):
        rng = np.random.default_rng(6)
        pos = toy_texts("alphamarker", 120, rng)
        neg = toy_texts("betamarker", 120, rng)
        clf = train_classifier(pos[:100], neg[:100], ClassifierHyper(seed=2), "toy")
        for t in pos[100:]:
            assert clf.score_text(t) > 0.9
        for t in neg[100:]:
            assert clf.score_text(t) < 0.1

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
        assert clf.score_text(doc_of(make_text(RNG, VOCAB, 30)).text) == 0.5

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
        assert clf.score_text(doc.text) == clf.score_text(doc.text)


def annotated_fixture(tag_scores=False):
    rng = np.random.default_rng(1)
    records = []
    for i in range(30):
        records.append(make_record(make_text(rng, VOCAB, 60), i))
    # A short doc that heuristics must drop.
    records.append(make_record("too short", 30))
    corpus = ingest_records(records)
    clusters = run_dedup(corpus, DedupConfig())
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
    return corpus, clusters, ensemble, domain


class TestAnnotate:
    @pytest.mark.parametrize("tags", [(), ("code",), ("prose", "code", "math")])
    def test_signal_names_are_the_row_keys_in_order(self, tags):
        corpus, clusters, ensemble, domain = annotated_fixture()
        pool = {**domain, "prose": domain["math"]}
        chosen = {tag: pool[tag] for tag in tags}
        annotated, _ = annotate(corpus, clusters, ensemble, chosen)
        names = signal_names([clf.model_id for clf in ensemble], chosen)
        assert annotated
        assert all(list(row.signals) == names for row in annotated)

    def test_signal_names_exactly_required_set(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(corpus, clusters, ensemble, domain)
        assert len(annotated) > 0
        expected = {"clf:web", "clf:books", "freq:occurrence", "freq:snapshot",
                    "freq:domain", "tag:code", "tag:math"}
        for row in annotated:
            assert set(row.signals) == expected

    def test_freq_signals_copied_from_cluster(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(corpus, clusters, ensemble, domain)
        by_doc = {m: c for c in clusters for m in c.member_ids}
        for row in annotated:
            c = by_doc[row.doc_id]
            assert row.cluster_id == c.cluster_id
            vec = row.signals
            assert vec["freq:occurrence"] == float(c.occurrence_count)
            assert vec["freq:snapshot"] == float(c.snapshot_count)
            assert vec["freq:domain"] == float(c.domain_count)

    def test_tag_thresholding(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(corpus, clusters, ensemble, domain, tag_threshold=0.5)
        for row in annotated:
            vec = row.signals
            code_score = domain["code"].score_text(corpus.get(row.doc_id).text)
            assert vec["tag:code"] == (1.0 if code_score >= 0.5 else 0.0)
            assert vec["tag:math"] in (0.0, 1.0)

    def test_heuristic_drops_reported_not_annotated(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(corpus, clusters, ensemble, domain)
        assert len(drops) == 1
        assert drops[0].reasons == ["min_words"]
        annotated_ids = {d.doc_id for d in annotated}
        assert drops[0].doc_id not in annotated_ids

    def test_counts_reconcile(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(corpus, clusters, ensemble, domain)
        retained_total = sum(len(c.retained_ids) for c in clusters)
        assert len(annotated) + len(drops) == retained_total

    def test_idempotent_and_deterministic(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        a1, d1 = annotate(corpus, clusters, ensemble, domain)
        a2, d2 = annotate(corpus, clusters, ensemble, domain)
        assert a1 == a2
        assert d1 == d2

    def test_no_composite_score_written(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        annotated, _ = annotate(corpus, clusters, ensemble, domain)
        for row in annotated:
            for key in row.signals:
                assert not key.startswith(("composite", "combined", "quality_score"))

    def test_unretained_clusters_rejected(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        from dataclasses import replace

        naked = [replace(c, retained_ids=[]) for c in clusters]
        with pytest.raises(PipelineOrderError):
            annotate(corpus, naked, ensemble, domain)

    def test_missing_cluster_coverage_rejected(self):
        corpus, clusters, ensemble, domain = annotated_fixture()
        with pytest.raises(PipelineOrderError):
            annotate(corpus, clusters[: len(clusters) // 2], ensemble, domain)

    def test_drops_follow_cluster_order(self):
        rng = np.random.default_rng(3)
        records = [make_record(make_text(rng, VOCAB, 60), i) for i in range(24)]
        records += [make_record(f"short text number {i}", 100 + i) for i in range(6)]
        records.append(make_record("\n".join(["the same line again and again"] * 30), 200))
        corpus = ingest_records(records)
        clusters = run_dedup(corpus, DedupConfig())
        _, _, ensemble, domain = annotated_fixture()
        annotated, drops = annotate(corpus, clusters, ensemble, domain)
        dropped = {d.doc_id for d in drops}
        assert len(drops) == 7 and annotated
        assert [d.doc_id for d in drops] == [
            doc_id
            for cluster in sorted(clusters, key=lambda c: c.cluster_id)
            for doc_id in cluster.retained_ids
            if doc_id in dropped
        ]

    def test_empty_corpus(self):
        _, _, ensemble, domain = annotated_fixture()
        assert annotate(Corpus([]), [], ensemble, domain) == ([], [])


# Words whose lowercase forms collide ("Apple"/"APPLE"), differ only by
# lowercasing rules ("İstanbul" lowercases to "i̇stanbul", not "istanbul"),
# or are not ASCII.
SCORE_WORDS = (
    "apple", "Apple", "APPLE", "pear", "Pear", "plum", "fig", "kiwi", "lime",
    "Straße", "STRASSE", "strasse", "İstanbul", "istanbul", "ISTANBUL",
    "жёлтый", "Жёлтый", "café", "naïve", "x", "7",
)
# Words in no training text: the word gate skips each n-gram holding one.
UNSEEN_WORDS = ("quince", "Quince", "über", "ÜBER", "ёж", "9")
# Words only the (2, 3) models train on, so only they know n-grams with
# words outside every order-1 vocabulary.
PAIR_WORDS = ("yuzu", "Kumquat")
# A phrase in every text of the capped model. The phrase and its two words
# tie on document frequency, and the phrase hash sorts before "fig", so a
# vocabulary cut to two entries keeps "fig kiwi" and drops "fig".
CAPPED_PHRASE = "fig kiwi"
SCORE_THRESHOLDS = HeuristicThresholds(min_words=2)


@lru_cache(maxsize=1)
def score_models() -> dict[str, QualityClassifier]:
    """Models over SCORE_WORDS. "uni", "bi", "math" and "uni-tri" allow the
    word gate; "tri" and "code" (orders (2, 3), also over PAIR_WORDS) and
    "capped" (its vocabulary reached max_features) do not."""
    rng = np.random.default_rng(31)

    def texts(marker: str, n: int, words: tuple[str, ...] = SCORE_WORDS) -> list[str]:
        out = []
        for _ in range(n):
            drawn = [words[int(i)] for i in rng.integers(0, len(words), 12)]
            drawn[int(rng.integers(0, 12))] = marker
            out.append(" ".join(drawn))
        return out

    def hyper(orders, seed, **kw):
        return ClassifierHyper(orders=orders, epochs=3, seed=seed, **kw)

    pos, neg = texts("Straße", 30), texts("apple", 30)
    pair_pos = texts("Straße", 30, SCORE_WORDS + PAIR_WORDS)
    pair_neg = texts("apple", 30, SCORE_WORDS + PAIR_WORDS)
    phrased_pos = [f"{t} {CAPPED_PHRASE}" for t in pos]
    phrased_neg = [f"{CAPPED_PHRASE} {t}" for t in neg]
    return {
        "uni": train_classifier(pos, neg, hyper((1,), 1), "uni"),
        "bi": train_classifier(neg, pos, hyper((1, 2), 2), "bi"),
        "tri": train_classifier(pair_pos, pair_neg, hyper((2, 3), 3), "tri"),
        "code": train_classifier(pair_neg, pair_pos, hyper((2, 3), 4), "code"),
        "math": train_classifier(pos, neg, hyper((1,), 5), "math"),
        "uni-tri": train_classifier(neg, pos, hyper((1, 2, 3), 6), "uni-tri"),
        "capped": train_classifier(
            phrased_pos, phrased_neg, hyper((1, 2), 7, max_features=2), "capped"
        ),
    }


# (classifiers, tag classifiers with None for a missing tag, as annotate
# passes them) by name.
SCORE_ENSEMBLES = {
    # Every orders group gated.
    "gated": (("uni", "bi", "uni-tri"), ("math", None)),
    # Gated (1,), (1, 2) and (1, 2, 3) beside the gate-off (2, 3).
    "mixed": (("uni", "bi", "tri"), ("code", None, "math", "uni-tri")),
    # Only gate-off models, one of them capped; no other model holds the
    # word "fig", so gating would skip "fig kiwi".
    "capped": (("capped",), ("tri",)),
}
def score_ensemble(name: str = "mixed"):
    models = score_models()
    classifiers, tags = SCORE_ENSEMBLES[name]
    return [models[m] for m in classifiers], [m and models[m] for m in tags]


def lowered_windows(words: list[str], n: int) -> list[list[str]]:
    return [words[i : i + n] for i in range(len(words) - n + 1)]


score_words = st.sampled_from(SCORE_WORDS + UNSEEN_WORDS + PAIR_WORDS)
score_texts = st.lists(
    st.tuples(
        st.lists(score_words, max_size=14),
        st.sampled_from([" ", "\n", " \t "]),
    ).map(lambda words_sep: words_sep[1].join(words_sep[0])),
    max_size=8,
)


def unit_doc(i: int, text: str) -> Document:
    """A document holding `text` as it is, with no normalization."""
    return Document(
        f"d{i:04d}", f"https://unit.example/{i}", "2024-01-01T00:00:00Z",
        "en", "S", "unit.example", "", text,
    )


def annotate_texts(texts, classifiers, tags, tag_threshold=0.5):
    """annotate over one singleton cluster per text, as one row per text:
    (drop reasons, TextStats) if the heuristics drop it, else ([], signal
    floats): one score per classifier, then one tag flag per entry of
    `tags` (0.0 where it is None)."""
    docs = [unit_doc(i, text) for i, text in enumerate(texts)]
    clusters = [
        DuplicateCluster(d.doc_id, [d.doc_id], [d.doc_id], 1, 1, 1)
        for d in docs
    ]
    names = [REQUIRED_TAGS[i] if i < len(REQUIRED_TAGS) else f"extra{i}" for i in range(len(tags))]
    domain = {name: clf for name, clf in zip(names, tags) if clf is not None}
    annotated, drops = annotate(
        Corpus(docs), clusters, classifiers, domain, SCORE_THRESHOLDS, tag_threshold
    )
    rows = {d.doc_id: (d.reasons, d.stats) for d in drops}
    for row in annotated:
        signals = row.signals
        rows[row.doc_id] = ([], tuple(
            [signals[f"clf:{clf.model_id}"] for clf in classifiers]
            + [signals[f"tag:{name}"] for name in names]
        ))
    return [rows[d.doc_id] for d in docs]


def reference_rows(texts, classifiers, tags, tag_threshold=0.5):
    """annotate_texts' rows built text by text, from the full hash lists."""
    rows = []
    for i, text in enumerate(texts):
        report = heuristic_filter(unit_doc(i, text), SCORE_THRESHOLDS)
        if report.reasons:
            rows.append((report.reasons, report.stats))
            continue
        values = [clf.score_hashes(ngram_hashes(text, clf.hyper.orders)) for clf in classifiers]
        for clf in tags:
            tagged = clf is not None and (
                clf.score_hashes(ngram_hashes(text, clf.hyper.orders)) >= tag_threshold
            )
            values.append(1.0 if tagged else 0.0)
        rows.append(([], tuple(values)))
    return rows


def bits(rows):
    return [(r, p if r else [v.hex() for v in p]) for r, p in rows]


class TestScoreChunk:
    """annotate scoring a batch of texts through one word dict."""

    @settings(max_examples=150, deadline=None)
    @given(score_texts)
    def test_rows_equal_per_text_scoring_bit_for_bit(self, texts):
        for name in SCORE_ENSEMBLES:
            classifiers, tags = score_ensemble(name)
            rows = annotate_texts(texts, classifiers, tags)
            assert bits(rows) == bits(reference_rows(texts, classifiers, tags)), name

    def test_fixture_covers_short_dropped_and_scored_texts(self):
        texts = [
            "Straße apple", "x", "", "İstanbul ISTANBUL istanbul Apple APPLE apple",
            "quince apple über pear Pear ёж plum fig",
            "fig kiwi yuzu kumquat fig kiwi apple pear",
        ]
        for name in SCORE_ENSEMBLES:
            classifiers, tags = score_ensemble(name)
            rows = annotate_texts(texts, classifiers, tags)
            assert [bool(reasons) for reasons, _ in rows] == [False, True, True, False, False, False]
            assert bits(rows) == bits(reference_rows(texts, classifiers, tags)), name
        # The vocabularies hold the non-ASCII words, so the filter keeps some.
        known = set().union(*(clf.vocabulary for clf in score_models().values()))
        assert hashing.hash64("straße".encode("utf-8")) in known
        unseen = {hashing.hash64(w.lower().encode("utf-8")) for w in UNSEEN_WORDS + PAIR_WORDS}
        assert not unseen & known

    @settings(max_examples=150, deadline=None)
    @given(score_texts, st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_shared_word_table_equals_fresh_tables(self, texts, widths):
        shared = hashing.WordTable()
        for text in texts:
            assert hashing.word_window_hashes(text, widths, shared) == (
                hashing.word_window_hashes(text, widths)
            )
        for text in texts:
            assert shared.lowered_hashes(shared.ids(text)).tolist() == [
                hashing.hash64(w.encode("utf-8")) for w in text.lower().split()
            ]


class TestWordGate:
    def test_gate_needs_order_1_and_an_uncut_vocabulary(self):
        models = score_models()
        assert {name for name, clf in models.items() if clf.allows_word_gate} == {
            "uni", "bi", "math", "uni-tri"
        }
        capped = models["capped"]
        assert len(capped.vocabulary) == capped.hyper.max_features
        # Its cut vocabulary holds a bigram without one of its words.
        assert set(capped.vocabulary) == {
            hashing.hash64(w.encode("utf-8")) for w in (CAPPED_PHRASE, "kiwi")
        }

    @settings(max_examples=150, deadline=None)
    @given(
        score_texts,
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.sets(score_words.map(str.lower)),
    )
    def test_gated_hashes_are_the_windows_of_known_words(self, texts, widths, known_words):
        known = {hashing.hash64(w.encode("utf-8")) for w in known_words}
        shared = hashing.WordTable()
        for text in texts:
            words = text.lower().split()
            expected = [
                hashing.hash64(" ".join(window).encode("utf-8"))
                for n in widths
                for window in lowered_windows(words, n)
                if known_words.issuperset(window)
            ]
            assert hashing.word_window_hashes(text, widths, shared, known) == expected
            assert ngram_hashes(text, widths, known=known) == expected

    def test_trained_vocabulary_holds_the_words_of_its_ngrams(self):
        """The closure that makes the gate exact: every n-gram a gated model
        saw is in its vocabulary, and so is each of its words."""
        rng = np.random.default_rng(12)
        pos = toy_texts("alphamarker", 30, rng, n_words=20)
        neg = toy_texts("betamarker", 30, rng, n_words=20)
        for orders in ((1, 2), (1, 2, 3), (1, 3)):
            clf = train_classifier(pos, neg, ClassifierHyper(orders=orders, epochs=1), "closed")
            assert clf.allows_word_gate
            vocab = clf.vocabulary
            for text in pos + neg:
                words = text.lower().split()
                for n in orders:
                    for window in lowered_windows(words, n):
                        assert hashing.hash64(" ".join(window).encode("utf-8")) in vocab
                        assert all(hashing.hash64(w.encode("utf-8")) in vocab for w in window)

    @settings(max_examples=100, deadline=None)
    @given(score_texts)
    def test_score_text_equals_the_full_hash_list_bit_for_bit(self, texts):
        for clf in score_models().values():
            for text in texts:
                full = clf.score_hashes(ngram_hashes(text, clf.hyper.orders))
                assert clf.score_text(text).hex() == full.hex(), clf.model_id


class TestHashCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        score_models()  # trained before the count starts
        count = Counter()
        original = hashing.hash64

        def counting(data: bytes) -> int:
            count["hash64"] += 1
            return original(data)

        monkeypatch.setattr(hashing, "hash64", counting)
        return count

    def test_score_chunk_hashes_each_distinct_word_once(self, calls):
        """Each distinct word once, every window of a gate-off group, and
        only the windows of known words in a gated group."""
        classifiers, tags = score_ensemble("mixed")
        texts = [
            "Apple apple APPLE pear Straße STRASSE strasse",
            "pear quince plum apple İstanbul istanbul über fig",
            "x",  # dropped: too short
            "plum fig",  # shorter than order 3
            "quince ÜBER",  # no word in any vocabulary
        ]
        rows = annotate_texts(texts, classifiers, tags)
        hashed = calls["hash64"]
        kept = [t.lower().split() for t, (reasons, _) in zip(texts, rows) if not reasons]
        assert len(kept) == 4
        scorers = [*classifiers, *(clf for clf in tags if clf is not None)]
        gated = {clf.hyper.orders for clf in scorers if clf.allows_word_gate}
        gate_off = {clf.hyper.orders for clf in scorers} - gated
        assert gated == {(1,), (1, 2), (1, 2, 3)} and gate_off == {(2, 3)}
        known_words = {
            w for words in kept for w in words
            if any(hashing.hash64(w.encode("utf-8")) in clf.vocabulary for clf in scorers)
        }
        distinct_words = len({w for words in kept for w in words})
        assert distinct_words == 10 and len(known_words) == 8
        open_windows = sum(
            len(lowered_windows(words, n))
            for words in kept for orders in gate_off for n in orders
        )
        all_gated = [
            window
            for words in kept for orders in gated for n in orders if n >= 2
            for window in lowered_windows(words, n)
        ]
        gated_windows = sum(known_words.issuperset(window) for window in all_gated)
        assert 0 < gated_windows < len(all_gated)
        assert hashed == distinct_words + open_windows + gated_windows

    def test_one_capped_model_turns_its_groups_gate_off(self, calls):
        models = score_models()
        text = "quince apple pear über fig kiwi"
        words = text.lower().split()
        annotate_texts([text], [models["bi"], models["capped"]], [])
        assert calls["hash64"] == len(words) + len(lowered_windows(words, 2))
        calls.clear()
        annotate_texts([text], [models["bi"]], [])
        assert calls["hash64"] == len(words) + 2  # "apple pear" and "fig kiwi"

    def test_score_text_hashes_each_word_once_and_known_windows(self, calls):
        models = score_models()
        text = "pear quince apple İstanbul istanbul über pear apple"
        words = text.lower().split()
        for clf in (models["bi"], models["uni-tri"]):
            calls.clear()
            clf.score_text(text)
            hashed = calls["hash64"]
            known = {w for w in words if hashing.hash64(w.encode("utf-8")) in clf.vocabulary}
            windows = [
                window for n in clf.hyper.orders if n >= 2 for window in lowered_windows(words, n)
            ]
            assert hashed == len(set(words)) + sum(known.issuperset(w) for w in windows)
        calls.clear()
        models["tri"].score_text(text)
        assert calls["hash64"] == len(lowered_windows(words, 2)) + len(lowered_windows(words, 3))

    def test_bare_call_hashes_every_window(self, calls):
        ngram_hashes("a b c", (1, 2))
        assert calls["hash64"] == 5
        ngram_hashes("a b c", (1, 2))
        assert calls["hash64"] == 10


class TestSignalVector:
    def test_round_trip_through_extra(self, tmp_path):
        """A row's `extra` floats come back bit-exact through annotated.jsonl."""
        signals = {"clf:a": 0.123456789012345, "clf:b": 0.1 + 0.2, "clf:c": 5e-324,
                   "freq:occurrence": 3.0, "tag:code": 1.0}
        row = Annotation("d1", "https://unit.example/d1", "c1", signals)
        path = tmp_path / "annotated.jsonl"
        write_records(path, [row])
        (back,) = read_annotations(path)
        assert back == row
        assert {k: v.hex() for k, v in back.signals.items()} == {
            k: v.hex() for k, v in signals.items()
        }

    @pytest.mark.parametrize("rec", [
        {"doc_id": "d1", "url": "u", "cluster_id": "c1", "extra": {"clf:a": 0.5}, "text": "t"},
        {"doc_id": "d1", "url": "u", "cluster_id": "c1", "extra": {"clf:a": "0.5"}},
        {"doc_id": "d1", "url": "u", "extra": {"cluster_id": "c1", "clf:a": 0.5}},
        ["d1", 0.5],
    ])
    def test_rows_not_in_format_2_rejected(self, tmp_path, rec):
        path = tmp_path / "annotated.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="format 2"):
            read_annotations(path)
