"""Shared synthetic-corpus builders and independent oracle helpers.

The oracles here deliberately avoid the library's own hashing and
clustering paths: shingles are plain string sets, Jaccard is raw set
arithmetic, and components come from BFS over an explicit edge list.
"""

from __future__ import annotations

import json
import string

import numpy as np
import pytest

from corpusprep.corpus import Corpus, Document, ingest_record
from corpusprep.quality import Annotation

# -- synthetic text ------------------------------------------------------


def make_vocab(rng: np.random.Generator, size: int = 4000) -> list[str]:
    letters = np.array(list(string.ascii_lowercase))
    vocab = set()
    while len(vocab) < size:
        n = int(rng.integers(3, 9))
        vocab.add("".join(rng.choice(letters, size=n)))
    return sorted(vocab)


def make_text(rng: np.random.Generator, vocab: list[str], n_words: int = 120) -> str:
    words = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n_words)]
    lines = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)]
    return "\n".join(lines)


def perturb_words(
    text: str, positions: list[int], rng: np.random.Generator
) -> str:
    """Replace words at given positions with fresh unique tokens."""
    words = text.split()
    for pos in positions:
        words[pos] = "zvar" + "".join(
            rng.choice(list(string.ascii_lowercase), size=6)
        )
    lines = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)]
    return "\n".join(lines)


def make_record(
    text: str,
    idx: int,
    domain: str = "",
    snapshot: str = "",
    rng: np.random.Generator | None = None,
) -> dict:
    domain = domain or f"site{idx % 53}.example"
    snapshot = snapshot or f"S{idx % 7}"
    minute, second = idx // 60 % 60, idx % 60
    return {
        "url": f"https://{domain}/doc/{idx}",
        "text": text,
        "crawl_time": f"2024-03-01T10:{minute:02d}:{second:02d}Z",
        "snapshot_id": snapshot,
        "language": "en",
    }


def planted_corpus_records(
    seed: int = 1234,
    n_docs: int = 1000,
    n_near_pairs: int = 50,
    n_exact_triples: int = 20,
    n_words: int = 120,
) -> tuple[list[dict], list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Synthetic dump with planted near-duplicate pairs and exact triples.

    Returns (records, near pair index pairs, exact triple index triples);
    indexes refer to positions in the record list. Near pairs are built
    at word-shingle Jaccard >= 0.8 (verified with the string oracle).
    """
    rng = np.random.default_rng(seed)
    vocab = make_vocab(rng)
    records: list[dict] = []
    near_pairs: list[tuple[int, int]] = []
    exact_triples: list[tuple[int, int, int]] = []

    for p in range(n_near_pairs):
        base = make_text(rng, vocab, n_words)
        # Alternate strengths: one or two word substitutions, far apart.
        positions = [30] if p % 2 == 0 else [30, 90]
        variant = perturb_words(base, positions, rng)
        jac = oracle_jaccard(oracle_shingles(base, 5), oracle_shingles(variant, 5))
        assert jac >= 0.8, f"planted pair too weak: {jac}"
        i = len(records)
        records.append(make_record(base, i, rng=rng))
        records.append(make_record(variant, i + 1, rng=rng))
        near_pairs.append((i, i + 1))

    for t in range(n_exact_triples):
        text = make_text(rng, vocab, n_words)
        i = len(records)
        for j in range(3):
            rec = make_record(
                text, i + j, domain=f"mirror{t}-{j}.example", snapshot=f"S{j % 3}"
            )
            records.append(rec)
        exact_triples.append((i, i + 1, i + 2))

    while len(records) < n_docs:
        records.append(make_record(make_text(rng, vocab, n_words), len(records), rng=rng))
    return records, near_pairs, exact_triples


def ingest_records(records: list[dict]) -> Corpus:
    return Corpus([ingest_record(json.dumps(r)) for r in records])


def write_records(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def annotated_doc(
    doc_id: str, signals: dict[str, float], text: str = "x y z"
) -> tuple[Annotation, Document]:
    """Minimal annotation row and its text document for sampling/curriculum
    unit tests; the document is its own singleton cluster."""
    url = f"https://unit.example/{doc_id}"
    floats = {name: float(v) for name, v in signals.items()}
    return Annotation(doc_id, url, doc_id, floats), Document(
        doc_id=doc_id,
        url=url,
        crawl_time="2024-01-01T00:00:00Z",
        language="en",
        snapshot_id="S0",
        domain="unit.example",
        content_hash=f"{abs(hash(doc_id)) % (1 << 32):032x}",
        text=text,
    )


# -- full pipeline workspace ----------------------------------------------

QUALITY_MARKER = "premiumsignal"
CODE_MARKER = "codesignal"
MATH_MARKER = "mathsignal"


def _with_markers(text: str, markers: list[str]) -> str:
    return text + ("\n" + " ".join(markers) if markers else "")


def pipeline_corpus_records(
    n_docs: int = 1500,
    seed: int = 0,
    n_near_pairs: int = 30,
    n_exact_triples: int = 10,
    n_bad_docs: int = 12,
) -> list[dict]:
    """Synthetic dump exercising every pipeline path: near/exact duplicates,
    marker-based quality/code/math structure, heuristic failures and a
    couple of malformed records."""
    rng = np.random.default_rng(seed)
    vocab = make_vocab(rng)
    records: list[dict] = []

    def markers_for(idx: int) -> list[str]:
        out = []
        if rng.random() < 0.4:
            out += [QUALITY_MARKER] * 3
        if rng.random() < 0.5:
            out += [CODE_MARKER] * 3
        if rng.random() < 0.1:
            out += [MATH_MARKER] * 3
        return out

    for p in range(n_near_pairs):
        base = make_text(rng, vocab, 100)
        variant = perturb_words(base, [25] if p % 2 == 0 else [25, 75], rng)
        marks = markers_for(p)
        i = len(records)
        records.append(make_record(_with_markers(base, marks), i))
        records.append(make_record(_with_markers(variant, marks), i + 1))

    for t in range(n_exact_triples):
        text = _with_markers(make_text(rng, vocab, 100), markers_for(1000 + t))
        i = len(records)
        for j in range(3):
            records.append(
                make_record(text, i + j, domain=f"mirror{t}-{j}.example", snapshot=f"S{j}")
            )

    for k in range(n_bad_docs):
        records.append(make_record(f"too short to keep number {k}", len(records)))

    while len(records) < n_docs:
        i = len(records)
        text = _with_markers(make_text(rng, vocab, int(rng.integers(60, 160))), markers_for(i))
        records.append(make_record(text, i))
    return records


def _marker_training_texts(
    rng: np.random.Generator, vocab: list[str], marker: str, n: int
) -> tuple[list[str], list[str]]:
    pos, neg = [], []
    for _ in range(n):
        pos.append(make_text(rng, vocab, 50) + f" {marker} {marker} {marker}")
        neg.append(make_text(rng, vocab, 50))
    return pos, neg


def make_pipeline_workspace(
    root,
    n_docs: int = 1200,
    seed: int = 0,
    total_tokens: int = 120_000,
    work_dir: str | None = None,
) -> tuple[str, dict]:
    """Write a dump, classifier training sources and a pipeline config.

    Returns (config path, config dict). The dump includes two malformed
    lines so ingest reject paths are exercised.
    """
    import os

    root = str(root)
    os.makedirs(root, exist_ok=True)
    records = pipeline_corpus_records(n_docs=n_docs, seed=seed)
    dump = os.path.join(root, "dump.jsonl")
    with open(dump, "w", encoding="utf-8") as fh:
        for k, rec in enumerate(records):
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            if k == 5:
                fh.write("this line is not json\n")
            if k == 9:
                fh.write(json.dumps({"url": "https://x", "text": "", "crawl_time": "2024-01-01T00:00:00Z", "snapshot_id": "S"}) + "\n")

    rng = np.random.default_rng(seed + 999)
    vocab = make_vocab(rng, 800)
    training = {}
    for name, marker in (
        ("web", QUALITY_MARKER),
        ("code", CODE_MARKER),
        ("math", MATH_MARKER),
    ):
        pos, neg = _marker_training_texts(rng, vocab, marker, 80)
        ppath = os.path.join(root, f"{name}_pos.jsonl")
        npath = os.path.join(root, f"{name}_neg.jsonl")
        with open(ppath, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"text": t}) + "\n" for t in pos)
        with open(npath, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"text": t}) + "\n" for t in neg)
        training[name] = (ppath, npath)

    mixture = {"code": "0.3", "other": "0.7"}
    config = {
        "input": [dump],
        "work_dir": work_dir or os.path.join(root, "work"),
        "master_seed": 4242,
        "dedup": {"top_k": 3},
        "quality": {
            "tag_threshold": 0.5,
            "classifiers": [
                {
                    "model_id": "web",
                    "positives": training["web"][0],
                    "negatives": training["web"][1],
                    "hyper": {"epochs": 12, "seed": 101},
                }
            ],
            "domain_classifiers": [
                {
                    "tag": "code",
                    "model_id": "code",
                    "positives": training["code"][0],
                    "negatives": training["code"][1],
                    "hyper": {"epochs": 12, "seed": 102},
                },
                {
                    "tag": "math",
                    "model_id": "math",
                    "positives": training["math"][0],
                    "negatives": training["math"][1],
                    "hyper": {"epochs": 12, "seed": 103},
                },
            ],
        },
        "sampling": {
            "policies": [
                {"signal": "freq:occurrence", "transform": "log2_sublinear", "cap": 6, "lambda": 0.4},
                {"signal": "clf:web", "transform": "threshold", "threshold": 0.9, "boost": 5.0, "lambda": 0.6},
            ]
        },
        "curriculum": {
            "total_token_budget": total_tokens,
            "shard_tokens": 50_000,
            "stages": [
                {"stage_id": "i", "token_share": "0.15", "quality_threshold": 0.0, "mixture": mixture},
                {"stage_id": "ii", "token_share": "0.45", "quality_threshold": 0.0, "mixture": mixture},
                {"stage_id": "iii", "token_share": "0.30", "quality_threshold": 0.5, "mixture": mixture},
                {"stage_id": "iv", "token_share": "0.10", "quality_threshold": 0.9, "mixture": mixture},
            ],
        },
        "train_prep": {
            "sequence_length": 512,
            "rope_stage": "pretrain",
            "vocab_size": 5000,
            "lr_schedule": {
                "peak_lr": 1e-3,
                "warmup_end": 100,
                "constant_end": 200,
                "slow_decay_end": 300,
                "slow_decay_floor": 5e-4,
                "end_step": 350,
                "final_lr": 0.0,
            },
        },
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config_path, config


# -- independent oracles --------------------------------------------------


def oracle_shingles(text: str, w: int) -> set[str]:
    words = text.lower().split()
    if len(words) <= w:
        return {" ".join(words)}
    return {" ".join(words[i : i + w]) for i in range(len(words) - w + 1)}


def oracle_jaccard(a: set, b: set) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def oracle_components(nodes: list[str], edges: list[tuple[str, str]]) -> list[set[str]]:
    """Connected components by BFS over an explicit adjacency list."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[str] = set()
    comps = []
    for n in nodes:
        if n in seen:
            continue
        comp = {n}
        queue = [n]
        seen.add(n)
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        comps.append(comp)
    return comps


def oracle_duplicate_pairs(corpus: Corpus, w: int, tau: float) -> set[tuple[str, str]]:
    """All-pairs truth: same-component pairs at exact Jaccard >= tau,
    with equal-content docs linked unconditionally."""
    docs = list(corpus)
    shingles = {d.doc_id: oracle_shingles(d.text, w) for d in docs}
    edges = []
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            a, b = docs[i], docs[j]
            if a.content_hash == b.content_hash:
                edges.append((a.doc_id, b.doc_id))
            elif oracle_jaccard(shingles[a.doc_id], shingles[b.doc_id]) >= tau:
                edges.append((a.doc_id, b.doc_id))
    comps = oracle_components([d.doc_id for d in docs], edges)
    pairs = set()
    for comp in comps:
        members = sorted(comp)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add((members[i], members[j]))
    return pairs


def cluster_pairs(clusters) -> set[tuple[str, str]]:
    pairs = set()
    for c in clusters:
        members = sorted(c.member_ids)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add((members[i], members[j]))
    return pairs


# -- fixtures -------------------------------------------------------------


@pytest.fixture(scope="session")
def small_planted():
    """200-doc planted corpus for fast unit tests."""
    records, near, triples = planted_corpus_records(
        seed=77, n_docs=200, n_near_pairs=10, n_exact_triples=4
    )
    return ingest_records(records), near, triples, records
