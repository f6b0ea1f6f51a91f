"""Line-delimited JSON helpers with deterministic byte output.

Writers sort keys and keep UTF-8 unescaped so the same records always
produce the same file bytes. Every artifact write goes through
``atomic_write``, so a reader never sees a half-written file.

A dataclass record is written and read as an object of its fields. Each
field's JSON key is its name unless `field(metadata={"json": key})` names
another (json_key); write_records, read_records and pipeline.config_section
all read the key from there.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import Field, fields
from functools import cache
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar, get_args, get_origin, get_type_hints

from .errors import ConfigError

T = TypeVar("T")

_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temp file beside `path` and rename it over `path` on success.

    Text mode writes UTF-8 with no newline translation. If the body
    raises, the temp file is removed and `path` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".partial")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records atomically. Returns record count."""
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")
            n += 1
    return n


def json_key(f: Field) -> str:
    """The JSON key of dataclass field `f`: metadata["json"], else its name."""
    return f.metadata.get("json", f.name)


@cache
def _json_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(JSON key, field name) of each field of dataclass `cls`."""
    return tuple((json_key(f), f.name) for f in fields(cls))


def write_records(path: str | Path, records: Iterable[Any]) -> int:
    """Write dataclass records atomically, each an object of its fields under their JSON keys."""
    return write_jsonl(path, ({k: getattr(rec, n) for k, n in _json_fields(type(rec))} for rec in records))


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """The JSON value on each non-blank line of `path`; a line that is not
    valid JSON raises ConfigError naming the file and the line number."""
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {n} is not valid JSON: {exc}") from exc
                yield rec


def read_records(cls: type[T], path: str | Path, rows: Iterable[Any] | None = None) -> list[T]:
    """A `cls` from each row of JSONL file `path`, or of `rows` read from it;
    a row that is not an object of exactly its fields' JSON keys, each value
    of its field's type, raises ConfigError."""
    hints = get_type_hints(cls)
    names = dict(_json_fields(cls))
    checks = {key: _type_check(hints[name]) for key, name in names.items()}
    records = []
    for n, rec in enumerate(read_jsonl(path) if rows is None else rows, start=1):
        if not (isinstance(rec, dict) and rec.keys() == checks.keys()
                and all(checks[k](v) for k, v in rec.items())):
            shape = {json_key(f): f.type for f in fields(cls)}
            raise ConfigError(f"{path}: row {n} is not an object of the fields {shape}")
        records.append(cls(**{names[k]: v for k, v in rec.items()}))
    return records


def _type_check(hint: Any) -> Callable[[Any], bool]:
    """Whether a JSON value has type `hint`, with no casting: str, int (not
    bool), a bare dict, or a list[...] or dict[str, ...] of these."""
    origin = get_origin(hint)
    if origin is None:
        return lambda v: type(v) is hint
    item, items = {get_args(hint)[-1]}, (dict.values if origin is dict else iter)
    return lambda v: type(v) is origin and set(map(type, items(v))) <= item


def write_json(path: str | Path, obj: Any) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
