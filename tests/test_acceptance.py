"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance is pinned here; oracles are brute-force and independent
of the code paths they check.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

from corpusprep.classifier import ClassifierHyper, train_classifier
from corpusprep.corpus import Corpus
from corpusprep.curriculum import (
    emit_stage,
    paper_shaped_plan,
    stage_budgets,
    stage_eligible,
    validate_plan,
)
from corpusprep.dedup import (
    DedupConfig,
    DuplicateCluster,
    compute_signatures,
    run_dedup,
)
from corpusprep.hashing import sha256_file
from corpusprep.packing import CrossDocMask, pack_documents
from corpusprep.pipeline import PipelineConfig, run_pipeline, strip_timing
from corpusprep.rope import rope_config, rope_rotate
from corpusprep.sampling import (
    WeightMap,
    merge_distributions,
    restrict_clusters,
    restrict_distribution,
)
from corpusprep.schedule import LrScheduleSpec, lr_at
from corpusprep.tokenizer import WhitespaceTokenizer

from conftest import (
    annotated_doc,
    cluster_pairs,
    ingest_records,
    make_pipeline_workspace,
    make_text,
    make_vocab,
    oracle_duplicate_pairs,
    oracle_jaccard,
    planted_corpus_records,
)


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num:02d}: {title}")
                raise
            print(f"\n[PASS] criterion {num:02d}: {title}")
            return result

        return wrapper

    return deco


@pytest.fixture(scope="module")
def dedup_corpus():
    """1,000 docs, 50 planted near-duplicate pairs (J >= 0.8), 20 exact triples."""
    records, near_pairs, triples = planted_corpus_records(
        seed=20240301, n_docs=1000, n_near_pairs=50, n_exact_triples=20
    )
    corpus = ingest_records(records)
    cfg = DedupConfig()  # w=5, P=128, b=16, r=8, tau=0.8, k=3
    started = time.monotonic()
    clusters = run_dedup(corpus, cfg)
    elapsed = time.monotonic() - started
    return corpus, cfg, clusters, elapsed


@criterion(1, "dedup oracle equivalence (recall >= 0.90, precision >= 0.95, exact recall 1.0, < 30 s)")
def test_criterion_01_dedup_oracle(dedup_corpus):
    corpus, cfg, clusters, elapsed = dedup_corpus
    predicted = cluster_pairs(clusters)
    truth = oracle_duplicate_pairs(corpus, cfg.shingle_width, cfg.jaccard_threshold)
    assert truth
    recall = len(predicted & truth) / len(truth)
    precision = len(predicted & truth) / len(predicted)
    assert recall >= 0.90, f"recall {recall:.4f}"
    assert precision >= 0.95, f"precision {precision:.4f}"

    # Exact duplicates must be found with recall 1.0.
    by_hash: dict[str, list[str]] = {}
    for d in corpus:
        by_hash.setdefault(d.content_hash, []).append(d.doc_id)
    exact_truth = set()
    for ids in by_hash.values():
        ids.sort()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                exact_truth.add((ids[i], ids[j]))
    assert exact_truth and exact_truth <= predicted

    assert elapsed < 30.0, f"dedup took {elapsed:.1f}s"


@criterion(2, "MinHash estimate within 0.15 of exact Jaccard for >= 95% of 200 pairs")
def test_criterion_02_minhash_accuracy():
    cfg = DedupConfig()  # P = 128
    rng = np.random.default_rng(77001)
    within = 0
    for _ in range(200):
        n_shared = int(rng.integers(0, 200))
        n_a = int(rng.integers(1, 120))
        n_b = int(rng.integers(1, 120))
        pool = np.unique(rng.integers(0, 2**63, size=n_shared + n_a + n_b))
        sa = frozenset(int(x) for x in pool[: n_shared + n_a])
        sb = frozenset(int(x) for x in pool[:n_shared]) | frozenset(
            int(x) for x in pool[n_shared + n_a :]
        )
        exact = oracle_jaccard(set(sa), set(sb))
        a, b = compute_signatures([np.array(sorted(x), dtype=np.uint64) for x in (sa, sb)], cfg)
        est = float(np.mean(a == b))
        within += abs(est - exact) <= 0.15
    assert within / 200 >= 0.95, f"only {within}/200 within tolerance"


@criterion(3, "frequency signals equal the distinct-count oracle on every cluster")
def test_criterion_03_frequency_signals(dedup_corpus):
    corpus, _, clusters, _ = dedup_corpus
    for c in clusters:
        docs = [corpus.get(i) for i in c.member_ids]
        assert c.occurrence_count == len(docs)
        assert c.snapshot_count == len({d.snapshot_id for d in docs})
        assert c.domain_count == len({d.domain for d in docs})


@criterion(4, "top-k retention size and ordering match the sort oracle exactly")
def test_criterion_04_top_k_retention(dedup_corpus):
    corpus, cfg, clusters, _ = dedup_corpus
    for c in clusters:
        assert len(c.retained_ids) == min(cfg.top_k, len(c.member_ids))
        docs = [corpus.get(i) for i in c.member_ids]
        oracle_order = [
            d.doc_id for d in sorted(docs, key=lambda d: (-len(d.text), d.doc_id))
        ]
        assert c.retained_ids == oracle_order[: len(c.retained_ids)]


@criterion(5, "merged distribution sums to 1 +/- 1e-9; hand-computed case exact")
def test_criterion_05_merge_math():
    rng = np.random.default_rng(55005)
    for _ in range(1000):
        n_maps = int(rng.integers(1, 5))
        n_docs = int(rng.integers(1, 40))
        docs = [f"d{i}" for i in range(n_docs)]
        maps = []
        for s in range(n_maps):
            weights = dict(zip(docs, (rng.random(n_docs) * 10)))
            weights[docs[0]] += 0.5
            maps.append(WeightMap(f"s{s}", {k: float(v) for k, v in weights.items()}))
        lam = rng.random(n_maps) + 0.01
        lam = [float(x) for x in lam / lam.sum()]
        lam[-1] = 1.0 - math.fsum(lam[:-1])
        merged = merge_distributions(maps, lam)
        assert abs(math.fsum(merged.values()) - 1.0) <= 1e-9

    merged = merge_distributions(
        [WeightMap("a", {"d1": 1.0, "d2": 1.0}), WeightMap("b", {"d1": 1.0})],
        [0.5, 0.5],
    )
    assert merged["d1"] == 0.75
    assert merged["d2"] == 0.25


@criterion(6, "dominance bound: deleting a signal moves any probability by <= its lambda")
def test_criterion_06_dominance_bound():
    rng = np.random.default_rng(66006)
    docs = [f"d{i}" for i in range(25)]
    for _ in range(100):
        n_maps = int(rng.integers(2, 6))
        maps = [
            WeightMap(f"s{s}", {d: float(w) + 1e-3 for d, w in zip(docs, rng.random(len(docs)) * 5)})
            for s in range(n_maps)
        ]
        lam = rng.random(n_maps) + 0.02
        lam = [float(x) for x in lam / lam.sum()]
        lam[-1] = 1.0 - math.fsum(lam[:-1])
        merged = merge_distributions(maps, lam)
        for drop in range(n_maps):
            rest = [m for i, m in enumerate(maps) if i != drop]
            rest_lam = [l for i, l in enumerate(lam) if i != drop]
            scale = math.fsum(rest_lam)
            rest_lam = [l / scale for l in rest_lam]
            rest_lam[-1] = 1.0 - math.fsum(rest_lam[:-1])
            reduced = merge_distributions(rest, rest_lam)
            for d in docs:
                delta = abs(
                    merged.get(d, 0.0) - reduced.get(d, 0.0)
                )
                assert delta <= lam[drop] + 1e-12


def eight_million_token_fixture():
    rng = np.random.default_rng(70007)
    vocab = make_vocab(rng, 2000)
    pairs = []
    for i in range(2500):
        text = make_text(rng, vocab, int(rng.integers(60, 200)))
        pairs.append(
            annotated_doc(
                f"d{i:05d}",
                {
                    "clf:u": float(rng.random()),
                    "freq:occurrence": 1.0,
                    "freq:snapshot": 1.0,
                    "freq:domain": 1.0,
                    "tag:code": float(i % 2),
                    "tag:math": 0.0,
                },
                text=text,
            )
        )
    rows = [row for row, _ in pairs]
    corpus = Corpus([doc for _, doc in pairs])
    clusters = [
        DuplicateCluster(d.doc_id, [d.doc_id], [d.doc_id], 1, 1, 1)
        for d in corpus
    ]
    n = len(pairs)
    dist = {d.doc_id: 1.0 / n for d in corpus}
    return rows, corpus, clusters, dist


@criterion(7, "paper-shaped plan at 8,000,000 tokens: exact budgets, strict final stage, bounded emission")
def test_criterion_07_curriculum_budgets(tmp_path):
    plan = paper_shaped_plan(8_000_000)
    assert validate_plan(plan) == []

    budgets = stage_budgets(plan)
    assert all(isinstance(b, int) for b in budgets.values())
    assert sum(budgets.values()) == 8_000_000

    final = plan.stages[-1]
    for s in plan.stages[:-1]:
        assert budgets[final.stage_id] < budgets[s.stage_id]
        assert final.quality_threshold > s.quality_threshold

    rows, corpus, clusters, dist = eight_million_token_fixture()
    tokenizer = WhitespaceTokenizer(5000)
    for stage in plan.stages:
        eligible = stage_eligible(rows, stage)
        manifest = emit_stage(
            stage,
            plan,
            restrict_distribution(dist, eligible),
            rows,
            corpus,
            restrict_clusters(clusters, eligible),
            tokenizer,
            master_seed=99,
            out_dir=tmp_path / stage.stage_id,
        )
        budget = budgets[stage.stage_id]
        assert budget <= manifest.total_tokens < budget + manifest.max_doc_tokens, (
            stage.stage_id,
            budget,
            manifest.total_tokens,
            manifest.max_doc_tokens,
        )


@criterion(8, "two runs of one config are byte-identical (modulo timing)")
def test_criterion_08_determinism(tmp_path):
    config_path, _ = make_pipeline_workspace(
        tmp_path, n_docs=1200, seed=8, total_tokens=120_000
    )
    shard_digests = []
    reports = []
    for run in (1, 2):
        config = PipelineConfig.from_file(
            config_path, overrides={"work_dir": str(tmp_path / f"w{run}")}
        )
        report = run_pipeline(config)
        digests = {}
        for path in sorted(config.work_dir.rglob("*")):
            rel = str(path.relative_to(config.work_dir))
            if path.is_file() and (rel.startswith("stages/") or rel.startswith("packed/")):
                digests[rel] = sha256_file(path)
        assert digests, "no shards produced"
        shard_digests.append(digests)
        reports.append(strip_timing(report))
    assert shard_digests[0] == shard_digests[1]
    assert reports[0] == reports[1]


@criterion(9, "lr_at matches closed-form interpolation at 1e4 steps to 1e-12 relative")
def test_criterion_09_lr_schedule():
    spec = LrScheduleSpec(
        peak_lr=6e-4,
        warmup_end=1_500,
        constant_end=50_000,
        slow_decay_end=80_000,
        slow_decay_floor=2.4e-4,
        end_step=90_000,
        final_lr=6e-6,
    )
    xp = [0, spec.warmup_end, spec.constant_end, spec.slow_decay_end, spec.end_step]
    fp = [0.0, spec.peak_lr, spec.peak_lr, spec.slow_decay_floor, spec.final_lr]
    rng = np.random.default_rng(99009)
    steps = sorted(set(int(s) for s in rng.integers(0, spec.end_step + 1, size=10_000)))
    prev_step, prev_lr = None, None
    slopes = [
        spec.peak_lr / spec.warmup_end,
        (spec.peak_lr - spec.slow_decay_floor) / (spec.slow_decay_end - spec.constant_end),
        (spec.slow_decay_floor - spec.final_lr) / (spec.end_step - spec.slow_decay_end),
    ]
    max_slope = max(slopes)
    for step in steps:
        got = lr_at(step, spec)
        expected = float(np.interp(step, xp, fp))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-18)
        if prev_step is not None:
            # Continuity: bounded by the steepest segment slope.
            assert abs(got - prev_lr) <= max_slope * (step - prev_step) * (1 + 1e-9)
            if prev_step >= spec.warmup_end:
                assert got <= prev_lr + 1e-18  # non-increasing after warmup
        prev_step, prev_lr = step, got


@criterion(10, "cross-document mask equals the brute-force oracle on 100 random packings")
def test_criterion_10_cross_doc_mask():
    from test_packing import docs_of, oracle_mask

    rng = np.random.default_rng(10010)
    for _ in range(100):
        seq_len = int(rng.integers(2, 513))
        lengths = [
            int(rng.integers(1, seq_len * 2)) for _ in range(int(rng.integers(1, 7)))
        ]
        sequences = pack_documents(docs_of(lengths), seq_len=seq_len, pad_id=0)
        seq = sequences[int(rng.integers(0, len(sequences)))]
        assert np.array_equal(CrossDocMask(seq).materialize(), oracle_mask(seq))


@criterion(11, "RoPE constants exact; norm preserved to 1e-9; relative identity to 1e-6")
def test_criterion_11_rope():
    assert (rope_config("pretrain").sequence_length, rope_config("pretrain").theta) == (4_096, 1.0e4)
    assert (rope_config("ext1").sequence_length, rope_config("ext1").theta) == (32_768, 8.0e6)
    assert (rope_config("ext2").sequence_length, rope_config("ext2").theta) == (131_072, 1.28e8)

    rng = np.random.default_rng(11011)
    cfg = rope_config("pretrain", head_dim=64)
    for _ in range(1000):
        q = rng.normal(size=64)
        k = rng.normal(size=64)
        m = int(rng.integers(0, 1001))
        n = int(rng.integers(0, 1001))
        delta = int(rng.integers(0, 1001))
        rq = rope_rotate(q, m, cfg)
        assert np.linalg.norm(rq) == pytest.approx(np.linalg.norm(q), rel=1e-9)
        lhs = rq @ rope_rotate(k, n, cfg)
        rhs = rope_rotate(q, m + delta, cfg) @ rope_rotate(k, n + delta, cfg)
        assert abs(lhs - rhs) <= 1e-6


@criterion(12, "packing conserves every input token on 100 random workloads")
def test_criterion_12_packing_conservation():
    from test_packing import docs_of

    rng = np.random.default_rng(12012)
    for _ in range(100):
        seq_len = int(rng.integers(2, 128))
        lengths = [
            int(rng.integers(1, seq_len * 4)) for _ in range(int(rng.integers(1, 40)))
        ]
        assert any(n > seq_len for n in lengths) or min(lengths) >= 1
        docs = docs_of(lengths)
        sequences = pack_documents(docs, seq_len=seq_len, pad_id=0)
        assert sum(s.pad_from for s in sequences) == sum(lengths)
        emitted: dict[str, list[int]] = {}
        for s in sequences:
            for (a, b), did in zip(s.doc_spans, s.doc_ids):
                emitted.setdefault(did, []).extend(s.token_ids[a:b])
        for did, toks in docs:
            assert emitted[did] == toks


@criterion(13, "classifier sanity: separable >= 0.95 held out; identical classes in [0.4, 0.6]")
def test_criterion_13_classifier_sanity():
    rng = np.random.default_rng(13013)
    vocab = make_vocab(rng, 600)

    def toy(marker: str, n: int) -> list[str]:
        out = []
        for _ in range(n):
            words = [vocab[int(i)] for i in rng.integers(0, len(vocab), 40)]
            words += [marker] * 2
            rng.shuffle(words)
            out.append(" ".join(words))
        return out

    pos = toy("alphamarker", 200)
    neg = toy("betamarker", 200)
    clf = train_classifier(pos[:150], neg[:150], ClassifierHyper(seed=13), "toy")
    held = [(t, 1) for t in pos[150:]] + [(t, 0) for t in neg[150:]]
    acc = sum((clf.score_text(t) >= 0.5) == bool(y) for t, y in held) / len(held)
    assert acc >= 0.95, f"held-out accuracy {acc}"

    same = toy("nomarker", 150)
    sym = train_classifier(same, same, ClassifierHyper(seed=14), "sym")
    assert 0.4 <= sym.training_meta["train_accuracy"] <= 0.6


@criterion(14, "10,000-doc end-to-end run in < 2 min with a reconciling report")
def test_criterion_14_end_to_end(tmp_path):
    config_path, _ = make_pipeline_workspace(
        tmp_path, n_docs=10_000, seed=14, total_tokens=400_000
    )
    config = PipelineConfig.from_file(config_path)
    started = time.monotonic()
    report = run_pipeline(config)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"end-to-end run took {elapsed:.1f}s"
    assert report["reconciliation"]["ok"], report["reconciliation"]["checks"]
    for check in report["reconciliation"]["checks"]:
        assert check["ok"], check
    # Every phase actually ran and produced its section.
    for phase in ("ingest", "dedup", "quality", "sampling", "curriculum", "train_prep"):
        assert "absent" not in report["phases"][phase]
    # Duplicate rate matches the planted rate within LSH recall bounds:
    # 30 near pairs (>= 90% found) + 10 exact triples (always found).
    ded = report["phases"]["dedup"]
    found = round(ded["duplicate_rate"] * ded["documents"])
    assert 27 + 20 <= found <= 50 + 3, f"planted 50 duplicates, found {found}"
