"""Atomic artifact writes: a write that fails partway leaves the old file.
Record rows: a row without exactly its dataclass fields, each of its type,
or a line that is not JSON, is a config error."""

from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest

from corpusprep.corpus import Document, read_corpus
from corpusprep.curriculum import ShardManifest, ShardRow, read_manifest
from corpusprep.dedup import DuplicateCluster, read_clusters
from corpusprep.errors import ConfigError
from corpusprep.jsonl import atomic_write, read_jsonl, read_records, write_jsonl


def _failing_jsonl(path) -> None:
    def records():
        yield {"doc_id": "new"}
        raise RuntimeError("writer failed")

    write_jsonl(path, records())


def _failing_binary(path) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(b"new bytes")
        raise RuntimeError("writer failed")


@pytest.mark.parametrize("write", [_failing_jsonl, _failing_binary], ids=["jsonl", "binary"])
def test_failed_write_keeps_old_bytes(tmp_path, write):
    path = tmp_path / "artifact"
    write_jsonl(path, [{"doc_id": "old"}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="writer failed"):
        write(path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]  # no .partial left behind


# Each reader of dataclass rows and one valid row it reads.
RECORD_READERS = {
    "corpus": (read_corpus, asdict(Document(
        "d1", "https://a.example/1", "2024-01-01T00:00:00Z", "en", "S0", "a.example", "0" * 32, "t"))),
    "clusters": (read_clusters, asdict(DuplicateCluster("d1", ["d1"], ["d1"], 1, 1, 1))),
    "manifest": (read_manifest, asdict(ShardManifest("i", [], 0, 0))),
    "shard": (lambda path: read_records(ShardRow, path), asdict(ShardRow("d1", [1, 2]))),
}
BAD_ROWS = {
    "missing-key": lambda row: dict(list(row.items())[1:]),
    "extra-key": lambda row: {**row, "unknown": 1},
    "not-an-object": lambda row: list(row),
    "wrong-type": lambda row: {**row, next(iter(row)): 5},  # each first field is a str
}


@pytest.mark.parametrize("bad", BAD_ROWS.values(), ids=BAD_ROWS.keys())
@pytest.mark.parametrize("reader,row", RECORD_READERS.values(), ids=RECORD_READERS.keys())
def test_row_without_its_fields_raises_config_error(tmp_path, reader, row, bad):
    """The error names the file and the row; manifest.json holds one row."""
    rows = [bad(row)] if reader is read_manifest else [row, bad(row)]
    path = tmp_path / "rows.json"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: row {len(rows)} "):
        reader(path)


def test_line_that_is_not_json_raises_config_error(tmp_path):
    """The error names the file and the line, blank lines counted."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"doc_id": "a"}\n\n{"doc_id": "b"\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: line 3 is not valid JSON"):
        list(read_jsonl(path))


def test_bool_is_not_an_int(tmp_path):
    """JSON true is no token id: row values are checked without casting."""
    path = tmp_path / "shard.jsonl"
    write_jsonl(path, [{"doc_id": "a", "token_ids": [1, True]}])
    with pytest.raises(ConfigError, match="row 1 is not an object"):
        read_records(ShardRow, path)
