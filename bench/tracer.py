"""Timing wrappers around the public functions of each corpusprep layer.

`Tracer.install` replaces each target function with a wrapper in every
loaded corpusprep module (and class) that binds the same function object,
so a function imported by name into several modules is timed wherever it
is called. Each call becomes a span (name, start, end, parent, busy);
a generator's span runs from its first item until it is exhausted, and
its busy time is the time spent producing items. A span's self time is
its busy time minus the busy time of its child spans.

Hot leaf functions that run millions of times are counted, not timed.
A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SPAN, GEN, COUNT = "span", "gen", "count"


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _docs_accepted(c, fn, a, k, result):
    c["corpus.docs_accepted"] += len(result[0])


def _candidate_pairs(c, fn, a, k, result):
    c["dedup.candidate_pairs"] += len(result)


def _merges(c, fn, a, k, result):
    c["dedup.merges"] += len(_arg(fn, a, k, "corpus")) - len(result)


def _docs_scored(c, fn, a, k, result):
    c["quality.docs_scored"] += len(result[0])


def _sha256_bytes(c, fn, a, k, result):
    c["hashing.sha256_file.bytes"] += os.path.getsize(_arg(fn, a, k, "path"))


def _drawn_docs(c, fn, a, k, result):
    c["curriculum.drawn_docs"] += result.drawn_docs


def _fill(c, fn, a, k, result):
    c["packing.non_pad"] += sum(seq.pad_from for seq in result)
    c["packing.slots"] += len(result) * _arg(fn, a, k, "seq_len")


def _written_bytes(c, fn, a, k, result):
    c["jsonl.write_jsonl.bytes"] += os.path.getsize(_arg(fn, a, k, "path"))


@dataclass(frozen=True)
class Target:
    name: str  # "<layer>.<function>"
    module: str  # corpusprep submodule
    attr: str  # attribute path inside the module, e.g. "Class.method"
    kind: str = SPAN
    post: Callable | None = None  # (counts, fn, args, kwargs, result) -> None


TARGETS = (
    Target("corpus.ingest_files", "corpus", "ingest_files", post=_docs_accepted),
    Target("corpus.read_corpus", "corpus", "read_corpus"),
    Target("corpus.write_corpus", "corpus", "write_corpus"),
    Target("dedup.shingle", "dedup", "shingle"),
    Target("dedup.compute_signatures", "dedup", "compute_signatures"),
    Target("dedup.lsh_candidate_pairs", "dedup", "lsh_candidate_pairs", post=_candidate_pairs),
    Target("dedup.build_clusters", "dedup", "build_clusters", post=_merges),
    Target("classifier.train_classifier", "classifier", "train_classifier"),
    Target("classifier.ngram_hashes", "classifier", "ngram_hashes"),
    Target("classifier.score_hashes", "classifier", "QualityClassifier.score_hashes"),
    Target("quality.annotate", "quality", "annotate", post=_docs_scored),
    Target("quality.text_stats", "quality", "text_stats"),
    Target("hashing.hash64", "hashing", "hash64", kind=COUNT),
    Target("hashing.sha256_file", "hashing", "sha256_file", post=_sha256_bytes),
    Target("sampling.build_weight_map", "sampling", "build_weight_map"),
    Target("sampling.merge_distributions", "sampling", "merge_distributions"),
    Target("curriculum.emit_stage", "curriculum", "emit_stage", post=_drawn_docs),
    Target("tokenizer.encode", "tokenizer", "WhitespaceTokenizer.encode"),
    Target("packing.pack_documents", "packing", "pack_documents", post=_fill),
    Target("packing.write_packed", "packing", "write_packed"),
    Target("jsonl.read_jsonl", "jsonl", "read_jsonl", kind=GEN),
    Target("jsonl.write_jsonl", "jsonl", "write_jsonl", post=_written_bytes),
)

MB = 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, busy]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: list[Target] = []
        self.absent: list[Target] = []
        self._undo: list[tuple[object, str, object]] = []
        self._counters: dict[str, itertools.count] = {}

    # -- wrappers -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(idx)
        return idx

    def _span(self, t: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(t.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span = self.spans[idx]
                span[2] = time.perf_counter()
                span[4] = span[2] - span[1]
            if t.post is not None:
                t.post(self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def _gen(self, t: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = -1
            try:
                while True:
                    if idx < 0:
                        idx = tracer._open(t.name)
                    else:
                        tracer.stack.append(idx)
                    began = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        now = time.perf_counter()
                        tracer.stack.pop()
                        span = tracer.spans[idx]
                        span[2] = now
                        span[4] += now - began
                    yield item
            finally:
                inner.close()

        return wrapper

    def _count(self, t: Target, fn: Callable) -> Callable:
        calls = itertools.count(1)
        self._counters[t.name + ".calls"] = calls
        tick = calls.__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "corpusprep" or name.startswith("corpusprep.")]
        for t in targets:
            try:
                owner = importlib.import_module(f"corpusprep.{t.module}")
            except ImportError:
                self.absent.append(t)
                continue
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(t)
                continue
            make = {SPAN: self._span, GEN: self._gen, COUNT: self._count}[t.kind]
            wrapper = make(t, original)
            holders = [owner] if path else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
            self.installed.append(t)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()
        for key, calls in self._counters.items():
            self.counts[key] = next(calls) - 1

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_busy = defaultdict(float)
        for _, _, _, parent, busy in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        out: dict[str, float] = defaultdict(float)
        for idx, (name, _, _, _, busy) in enumerate(self.spans):
            out[name] += busy - child_busy[idx]
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), for installed targets."""
        selfs = self.self_times()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for t in self.installed:
            if t.kind == COUNT:
                out[t.name + ".calls"] = (c[t.name + ".calls"], "count")
                continue
            out[t.name + ".s"] = (selfs.get(t.name, 0.0), "s")
        derived = {
            "corpus.ingest_files": {"corpus.docs_accepted": (c["corpus.docs_accepted"], "count")},
            "dedup.lsh_candidate_pairs": {"dedup.candidate_pairs": (c["dedup.candidate_pairs"], "count")},
            "quality.annotate": {"quality.docs_scored": (c["quality.docs_scored"], "count")},
            "hashing.sha256_file": {"hashing.sha256_file.mb": (c["hashing.sha256_file.bytes"] / MB, "MB")},
            "curriculum.emit_stage": {"curriculum.drawn_docs": (c["curriculum.drawn_docs"], "count")},
            "tokenizer.encode": {"tokenizer.encode.calls": (calls["tokenizer.encode"], "count")},
            "jsonl.write_jsonl": {"jsonl.write_jsonl.mb": (c["jsonl.write_jsonl.bytes"] / MB, "MB")},
        }
        names = {t.name for t in self.installed}
        for target, metrics in derived.items():
            if target in names:
                out.update(metrics)
        if {"dedup.lsh_candidate_pairs", "dedup.build_clusters"} <= names and c["dedup.merges"]:
            out["dedup.pairs_per_merge"] = (c["dedup.candidate_pairs"] / c["dedup.merges"], "ratio")
        if "packing.pack_documents" in names and c["packing.slots"]:
            out["packing.fill_ratio"] = (c["packing.non_pad"] / c["packing.slots"], "ratio")
        return out
