"""Document model and ingestion of raw dumps into the prepared layer.

Input is UTF-8 line-delimited JSON, one document per line, with fields
``url``, ``text``, ``crawl_time`` (ISO-8601), ``snapshot_id`` and an
optional ``language``. Ingestion normalizes text, derives a stable
content hash and document id, and keeps only essential metadata.

Two records with the same normalized text share ``content_hash`` but,
if fetched from different (url, crawl_time), get distinct ``doc_id``s.

Ingestion parses and rejects one line at a time in the calling process.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlsplit

from .errors import RejectedRecord
from .hashing import WordTable, hash64_hex, hash128_hex
from .jsonl import read_records, write_records

REQUIRED_FIELDS = ("url", "text", "crawl_time", "snapshot_id")

_BLANK_RUN = re.compile(r"\n{4,}")


@dataclass
class Document:
    """One curated text unit with essential metadata; a corpus.jsonl row
    holds exactly these fields, under their own names."""

    doc_id: str
    url: str
    crawl_time: str  # canonical UTC ISO-8601, seconds precision
    language: str
    snapshot_id: str
    domain: str
    content_hash: str  # 128-bit hash of normalized text, 32 hex chars
    text: str


@dataclass
class Corpus:
    """Documents in ascending doc_id order; the pipeline's determinism anchor.
    `words` splits each distinct text once for as long as the corpus lives."""

    documents: list[Document]

    def __post_init__(self):
        self.documents.sort(key=lambda d: d.doc_id)
        self._by_id = {d.doc_id: d for d in self.documents}
        self.words = WordTable()

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def get(self, doc_id: str) -> Document | None:
        return self._by_id.get(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id


@dataclass
class IngestReport:
    input_lines: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def to_dict(self) -> dict:
        return {
            "input_lines": self.input_lines,
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
        }


def normalize_text(raw: str) -> str:
    """Canonical text form: NFC, CRLF -> LF, trimmed, blank runs capped at 2.

    Idempotent: normalize_text(normalize_text(x)) == normalize_text(x).
    """
    t = unicodedata.normalize("NFC", raw)
    while "\r\n" in t:  # rewrite to fixpoint: "\r\r\n" needs two passes
        t = t.replace("\r\n", "\n")
    if "\n\n\n\n" in t:
        t = _BLANK_RUN.sub("\n\n\n", t)
    return t.strip()


def extract_domain(url: str) -> str:
    """Registrable-domain stand-in: host, lowercased, leading 'www.' stripped."""
    try:
        host = urlsplit(url).hostname or ""
    except ValueError:
        return ""
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host


def canonical_crawl_time(value: str) -> str:
    """Parse ISO-8601 and re-emit as UTC at seconds precision."""
    s = value.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        raise RejectedRecord("bad_crawl_time") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc).replace(microsecond=0)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def content_hash(normalized_text: str) -> str:
    return hash128_hex(normalized_text.encode("utf-8"))


def make_doc_id(chash: str, url: str, crawl_time: str) -> str:
    fetch = hash64_hex(f"{url}\x1f{crawl_time}".encode("utf-8"))
    return f"{chash}-{fetch}"


def ingest_record(raw_record: str) -> Document:
    """Parse one input line into a Document, or raise RejectedRecord."""
    try:
        rec = json.loads(raw_record)
    except json.JSONDecodeError:
        raise RejectedRecord("parse_error") from None
    if not isinstance(rec, dict):
        raise RejectedRecord("parse_error")
    for name in REQUIRED_FIELDS:
        if name not in rec or rec[name] is None:
            raise RejectedRecord(f"missing_field:{name}")
    if not isinstance(rec["text"], str):
        raise RejectedRecord("bad_field:text")
    text = normalize_text(rec["text"])
    if not text:
        raise RejectedRecord("empty_text")
    url = str(rec["url"])
    crawl_time = canonical_crawl_time(str(rec["crawl_time"]))
    chash = content_hash(text)
    return Document(
        doc_id=make_doc_id(chash, url, crawl_time),
        url=url,
        crawl_time=crawl_time,
        language=str(rec.get("language") or "und"),
        snapshot_id=str(rec["snapshot_id"]),
        domain=extract_domain(url),
        content_hash=chash,
        text=text,
    )


def ingest_lines(lines: Iterable[bytes]) -> tuple[Corpus, IngestReport]:
    """Ingest raw line bytes, one line at a time; a line that is not UTF-8
    counts as `invalid_utf8`.

    The corpus is sorted by doc_id and deduplicated on doc_id (first
    occurrence in input order wins).
    """
    report = IngestReport()
    seen: set[str] = set()
    docs: list[Document] = []
    for raw in lines:
        report.input_lines += 1
        try:
            doc = ingest_record(raw.decode("utf-8"))
        except UnicodeDecodeError:
            report.reject("invalid_utf8")
            continue
        except RejectedRecord as err:
            report.reject(err.reason)
            continue
        if doc.doc_id in seen:
            report.reject("duplicate_doc_id")
        else:
            seen.add(doc.doc_id)
            docs.append(doc)
    report.accepted = len(docs)
    return Corpus(docs), report


def _iter_file_lines(path: str | Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        for raw in fh:
            yield raw.rstrip(b"\r\n")


def ingest_files(paths: Sequence[str | Path]) -> tuple[Corpus, IngestReport]:
    return ingest_lines(line for path in paths for line in _iter_file_lines(path))


def write_corpus(corpus: Corpus, path: str | Path) -> int:
    """One row per document, its fields by name; the input paths go to the
    sidecar report.

    Keeping volatile fields out of the shard file is what makes repeat
    ingests byte-identical.
    """
    return write_records(path, corpus)


def read_corpus(path: str | Path) -> Corpus:
    return Corpus(read_records(Document, path))
