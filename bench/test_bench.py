"""Fast tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_bench.py -q

They check that each workload's artifact digest repeats, that the worker
count leaves it unchanged, that every checker catches a deliberately
corrupted output, and that the tracer patches every module binding a
traced function.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import TINY, generate

SEED = 5


def one_round(name: str, tmp: Path, **changes) -> tuple[run.Bench, run.Round]:
    bench = run.Bench(name, dataclasses.replace(TINY[name], **changes), SEED, tmp, 1)
    rnd = bench.round(run.run_subprocess)
    assert bench.problems == [] and rnd.failed == 0
    return bench, rnd


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_repeats_across_setups_and_rounds(name, tmp_path):
    bench, first = one_round(name, tmp_path / "a")
    second = bench.round(run.run_subprocess)
    _, other_setup = one_round(name, tmp_path / "b")
    assert bench.problems == []
    assert first.digest == second.digest == other_setup.digest
    assert first.attempted == (4 if TINY[name].edit_loop else 1)


def test_worker_count_leaves_web_digest_unchanged(tmp_path):
    _, two = one_round("web-w2", tmp_path / "w2")
    _, one = one_round("web-w2", tmp_path / "w1", workers=1)
    assert two.digest == one.digest


def test_generator_depends_only_on_seed(tmp_path):
    w = TINY["boilerplate-w1"]
    generate(w, 1, tmp_path / "a")
    generate(w, 1, tmp_path / "b")
    generate(w, 2, tmp_path / "c")
    dump = lambda d: (tmp_path / d / "dump.jsonl").read_bytes()  # noqa: E731
    assert dump("a") == dump("b") != dump("c")


# -- every checker catches a corrupted output ----------------------------------


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """A checked cold run of the tiny web and boilerplate inputs."""
    out = {}
    for name in ("web-w2", "boilerplate-w1"):
        bench, _ = one_round(name, tmp_path_factory.mktemp(name))
        out[name] = bench
    return out


@pytest.fixture
def web(cold_runs, tmp_path):
    bench = cold_runs["web-w2"]
    work = tmp_path / "work"
    shutil.copytree(bench.root / "work", work)
    return bench, work


def rewrite_jsonl(path: Path, edit) -> None:
    rows = checks.read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def rewrite_json(path: Path, edit) -> None:
    obj = checks.read_json(path)
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_ingest_check_catches_lost_line(web):
    bench, work = web
    assert checks.check_ingest(bench.plan, work) == []
    rewrite_json(work / "ingest_report.json", lambda r: r.update(accepted=r["accepted"] - 1))
    assert checks.check_ingest(bench.plan, work)


def test_dedup_check_catches_split_exact_group(web):
    bench, work = web
    by_url = {r["url"]: r["doc_id"] for r in checks.read_jsonl(work / "corpus.jsonl")}
    victim = by_url[bench.plan.exact_groups[0][0]]

    def split(rows):
        for r in rows:
            if victim in r["member_ids"] and len(r["member_ids"]) > 1:
                r["member_ids"].remove(victim)
        rows.append({**rows[0], "cluster_id": victim, "member_ids": [victim], "retained_ids": [victim]})

    rewrite_jsonl(work / "clusters.jsonl", split)
    assert any("exact groups split" in p for p in checks.check_web_dedup(bench.plan, work))


def test_dedup_check_catches_joined_unrelated_texts(web):
    bench, work = web

    def join(rows):
        singles = [r for r in rows if len(r["member_ids"]) == 1][:2]
        singles[0]["member_ids"] += singles[1]["member_ids"]
        rows.remove(singles[1])

    rewrite_jsonl(work / "clusters.jsonl", join)
    assert any("unrelated" in p for p in checks.check_web_dedup(bench.plan, work))


def test_quality_check_catches_flipped_tags(web):
    bench, work = web

    def flip(rows):
        for r in rows[::10]:
            r["extra"]["tag:code"] = repr(1.0 - float(r["extra"]["tag:code"]))

    rewrite_jsonl(work / "annotated.jsonl", flip)
    assert any("code signal" in p for p in checks.check_quality(bench.plan, work))


def test_quality_check_catches_missing_drop(web):
    bench, work = web
    rewrite_jsonl(work / "drop_report.jsonl", lambda rows: rows.pop())
    assert any("dropped" in p for p in checks.check_quality(bench.plan, work))


def test_stage_check_catches_short_stage(web):
    bench, work = web
    manifest = checks.read_json(work / "stages" / "iv" / "manifest.json")
    rewrite_jsonl(work / "stages" / "iv" / manifest["shards"][-1]["file"], lambda rows: rows.pop())
    assert any("stage iv emitted" in p for p in checks.check_stages(bench.config, work))


def test_stage_check_catches_uneven_budgets(web):
    bench, work = web

    def shift(rep):
        rep["stages"]["i"]["budget"] += 2
        rep["stages"]["ii"]["budget"] -= 2

    rewrite_json(work / "curriculum_report.json", shift)
    assert any("exact share" in p for p in checks.check_stages(bench.config, work))


def test_packing_check_catches_changed_token(web):
    bench, work = web
    path = work / "packed" / "stage_ii.bin"
    data = bytearray(path.read_bytes())
    data[-4:] = (7).to_bytes(4, "little")  # a pad slot of the last sequence
    path.write_bytes(bytes(data))
    assert any("packing: stage ii" in p for p in checks.check_stages(bench.config, work))


def test_output_comparison_catches_changed_output(web):
    _, work = web
    before = checks.output_digests(work)
    rewrite_jsonl(work / "weights.jsonl", lambda rows: rows.pop())
    assert checks.compare_outputs(checks.output_digests(work), before, "x")
    assert checks.compare_outputs(before, {**before, "extra.jsonl": "0"}, "x")


def test_unchanged_rerun_check_catches_executed_phase(web):
    _, work = web
    before = checks.raw_digests(work)
    ran = lambda **phases: lambda r: r["phases_executed"].update(  # noqa: E731
        {p: phases.get(p, False) for p in checks.PHASES})
    rewrite_json(work / "report.json", ran())
    assert checks.check_unchanged_rerun(work, before) == []
    rewrite_json(work / "report.json", ran(sampling=True))
    assert checks.check_unchanged_rerun(work, before) == ["rerun: phase sampling executed"]


@pytest.fixture
def boilerplate(cold_runs, tmp_path):
    bench = cold_runs["boilerplate-w1"]
    work = tmp_path / "work"
    shutil.copytree(bench.root / "work", work)
    return bench, work


def test_boilerplate_check_catches_split_block(boilerplate):
    bench, work = boilerplate
    assert checks.check_boilerplate_dedup(bench.plan, bench.config, work) == []

    def split(rows):
        big = max(rows, key=lambda r: len(r["member_ids"]))
        moved = big["member_ids"].pop()
        rows.append({**big, "cluster_id": moved, "member_ids": [moved], "retained_ids": [moved]})

    rewrite_jsonl(work / "clusters.jsonl", split)
    problems = checks.check_boilerplate_dedup(bench.plan, bench.config, work)
    assert any("not exactly one cluster" in p for p in problems)
    assert any("clusters, want" in p for p in problems)


def test_boilerplate_check_catches_wrong_retention(boilerplate):
    bench, work = boilerplate

    def reorder(rows):
        template = next(r for r in rows if len(r["member_ids"]) == TINY["boilerplate-w1"].blocks[1][1])
        template["retained_ids"].reverse()

    rewrite_jsonl(work / "clusters.jsonl", reorder)
    assert any("retains" in p for p in checks.check_boilerplate_dedup(bench.plan, bench.config, work))


# -- tracer and entry point -------------------------------------------------------


def test_tracer_patches_every_binding_and_restores(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from corpusprep import classifier, jsonl, quality
    from tracer import Tracer

    original = classifier.ngram_hashes
    tracer = Tracer()
    tracer.install()
    try:
        assert quality.ngram_hashes is classifier.ngram_hashes is not original
        quality.ngram_hashes("a b c", (1, 2))
        (tmp_path / "x.jsonl").write_text('{"a": 1}\n{"a": 2}\n')
        assert [r["a"] for r in jsonl.read_jsonl(tmp_path / "x.jsonl")] == [1, 2]
    finally:
        tracer.uninstall()
    assert quality.ngram_hashes is classifier.ngram_hashes is original
    assert [s[0] for s in tracer.spans] == ["classifier.ngram_hashes", "jsonl.read_jsonl"]
    assert tracer.counts["hashing.hash64.calls"] == 5
    assert tracer.absent == []


def test_fails_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "web-w2", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
