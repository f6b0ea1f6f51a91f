"""Atomic artifact writes: a write that fails partway leaves the old file."""

from __future__ import annotations

import pytest

from corpusprep.jsonl import atomic_write, write_jsonl


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
