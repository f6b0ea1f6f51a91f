"""Document model and ingestion tests."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.corpus import (
    canonical_crawl_time,
    extract_domain,
    ingest_files,
    ingest_lines,
    ingest_record,
    normalize_text,
    read_corpus,
    write_corpus,
)
from corpusprep.errors import RejectedRecord

from conftest import planted_corpus_records, write_records


def rec_line(**kwargs) -> str:
    base = {
        "url": "https://www.a.example/p",
        "text": "hello world",
        "crawl_time": "2024-01-02T03:04:05Z",
        "snapshot_id": "S1",
    }
    base.update(kwargs)
    return json.dumps(base)


class TestNormalizeText:
    def test_crlf(self):
        assert normalize_text("a\r\nb") == "a\nb"

    def test_trim(self):
        assert normalize_text("  x  ") == "x"

    def test_blank_run_collapse(self):
        # 4 blank lines collapse to 2 (3 newlines).
        assert normalize_text("a\n\n\n\n\nb") == "a\n\n\nb"
        assert normalize_text("a\n\n\nb") == "a\n\n\nb"

    def test_nfc(self):
        composed = "café"
        decomposed = "café"
        assert normalize_text(decomposed) == composed

    @given(st.text(max_size=500))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    @given(st.text(alphabet="\n\r a", max_size=60))
    @settings(max_examples=300)
    def test_equals_the_plain_blank_run_regex(self, raw):
        """The blank-run rewrite runs only on texts with four newlines in a
        row; the result is that of running it on every text."""
        t = raw
        while "\r\n" in t:
            t = t.replace("\r\n", "\n")
        assert normalize_text(raw) == re.sub(r"\n{4,}", "\n\n\n", t).strip()


class TestIngestRecord:
    def test_field_mapping(self):
        doc = ingest_record(rec_line())
        assert doc.domain == "a.example"
        assert doc.text == "hello world"
        assert len(doc.content_hash) == 32
        assert doc.doc_id.startswith(doc.content_hash + "-")
        assert doc.language == "und"

    def test_same_text_different_fetch(self):
        d1 = ingest_record(rec_line())
        d2 = ingest_record(rec_line(url="https://b.example/q"))
        assert d1.content_hash == d2.content_hash
        assert d1.doc_id != d2.doc_id

    def test_empty_text_rejected(self):
        with pytest.raises(RejectedRecord) as err:
            ingest_record(rec_line(text="   \n  "))
        assert err.value.reason == "empty_text"

    def test_missing_field_rejected(self):
        rec = {"url": "https://a.example", "text": "hi", "crawl_time": "2024-01-01T00:00:00Z"}
        with pytest.raises(RejectedRecord) as err:
            ingest_record(json.dumps(rec))
        assert err.value.reason == "missing_field:snapshot_id"

    def test_parse_error(self):
        with pytest.raises(RejectedRecord) as err:
            ingest_record("not json at all {")
        assert err.value.reason == "parse_error"

    def test_crawl_time_canonicalized(self):
        doc = ingest_record(rec_line(crawl_time="2024-01-02T05:04:05+02:00"))
        assert doc.crawl_time == "2024-01-02T03:04:05Z"

    def test_normalized_text_equality_iff_equal_hash(self):
        texts = ["a b c", "a  b   c", "x y z", "a b c\r\n"]
        docs = [ingest_record(rec_line(text=t, url=f"https://h/{i}")) for i, t in enumerate(texts)]
        for i in range(len(docs)):
            for j in range(len(docs)):
                same_text = normalize_text(texts[i]) == normalize_text(texts[j])
                same_hash = docs[i].content_hash == docs[j].content_hash
                assert same_text == same_hash


class TestDomainExtraction:
    def test_www_stripped(self):
        assert extract_domain("https://www.foo.example/x") == "foo.example"

    def test_plain_host(self):
        assert extract_domain("http://bar.example:8080/p?q=1") == "bar.example"

    def test_garbage(self):
        assert extract_domain("not a url") == ""


class TestCrawlTime:
    def test_utc_z(self):
        assert canonical_crawl_time("2024-06-01T12:00:00Z") == "2024-06-01T12:00:00Z"

    def test_naive_assumed_utc(self):
        assert canonical_crawl_time("2024-06-01T12:00:00") == "2024-06-01T12:00:00Z"

    def test_microseconds_truncated(self):
        assert canonical_crawl_time("2024-06-01T12:00:00.999Z") == "2024-06-01T12:00:00Z"

    def test_bad_format(self):
        with pytest.raises(RejectedRecord):
            canonical_crawl_time("June 1st")


class TestIngestLines:
    def lines(self, raw: list[str]) -> list[bytes]:
        return [s.encode("utf-8") for s in raw]

    def test_counts_reconcile(self):
        raw = [rec_line(url=f"https://h/{i}") for i in range(5)]
        raw.insert(2, "garbage")
        raw.insert(4, rec_line(text=""))
        corpus, report = ingest_lines(self.lines(raw))
        assert report.input_lines == 7
        assert report.accepted + report.rejected_total == report.input_lines
        assert report.accepted == len(corpus) == 5

    def test_duplicate_doc_id_counted(self):
        raw = [rec_line(), rec_line()]
        corpus, report = ingest_lines(self.lines(raw))
        assert len(corpus) == 1
        assert report.rejected == {"duplicate_doc_id": 1}

    def test_invalid_utf8_counted(self):
        bad = rec_line(url="https://h/1").encode("utf-8").replace(b"hello", b"\xff\xfe")
        corpus, report = ingest_lines([bad, *self.lines([rec_line()])])
        assert len(corpus) == 1
        assert report.rejected == {"invalid_utf8": 1}

    def test_sorted_by_doc_id(self):
        records, _, _ = planted_corpus_records(seed=6, n_docs=30, n_near_pairs=2, n_exact_triples=1)
        corpus, _ = ingest_lines(self.lines([json.dumps(r) for r in records]))
        ids = [d.doc_id for d in corpus]
        assert ids == sorted(ids)


class TestFileRoundTrip:
    def test_double_ingest_byte_identical(self, tmp_path):
        records, _, _ = planted_corpus_records(seed=7, n_docs=40, n_near_pairs=2, n_exact_triples=1)
        dump = tmp_path / "dump.jsonl"
        write_records(dump, records)
        c1, _ = ingest_files([dump])
        c2, _ = ingest_files([dump])
        write_corpus(c1, tmp_path / "c1.jsonl")
        write_corpus(c2, tmp_path / "c2.jsonl")
        assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c2.jsonl").read_bytes()

    def test_write_read_round_trip(self, tmp_path):
        records, _, _ = planted_corpus_records(seed=8, n_docs=25, n_near_pairs=2, n_exact_triples=1)
        dump = tmp_path / "dump.jsonl"
        write_records(dump, records)
        corpus, _ = ingest_files([dump])
        out = tmp_path / "corpus.jsonl"
        write_corpus(corpus, out)
        again = tmp_path / "again.jsonl"
        write_corpus(read_corpus(out), again)
        assert again.read_bytes() == out.read_bytes()
