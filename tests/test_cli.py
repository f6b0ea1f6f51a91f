"""CLI surface tests: every subcommand plus exit-code mapping."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from corpusprep.cli import main
from corpusprep.jsonl import read_json, read_jsonl

from conftest import make_pipeline_workspace, planted_corpus_records, write_records


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path, raw = make_pipeline_workspace(root, n_docs=240, total_tokens=25_000)
    return Path(root), config_path, raw


class TestIngestDedupCommands:
    def test_ingest(self, tmp_path):
        records, _, _ = planted_corpus_records(seed=3, n_docs=40, n_near_pairs=2, n_exact_triples=1)
        dump = tmp_path / "dump.jsonl"
        write_records(dump, records)
        out = tmp_path / "corpus.jsonl"
        report = tmp_path / "ingest.json"
        assert main(["ingest", "--in", str(dump), "--out", str(out), "--report", str(report)]) == 0
        assert out.is_file()
        assert read_json(report)["accepted"] == 40

    def test_dedup(self, tmp_path):
        records, _, triples = planted_corpus_records(seed=4, n_docs=40, n_near_pairs=2, n_exact_triples=2)
        dump = tmp_path / "dump.jsonl"
        write_records(dump, records)
        corpus = tmp_path / "corpus.jsonl"
        main(["ingest", "--in", str(dump), "--out", str(corpus)])
        clusters = tmp_path / "clusters.jsonl"
        annotated = tmp_path / "clustered.jsonl"
        rc = main(["dedup", "--in", str(corpus), "--out", str(clusters), "--annotated", str(annotated)])
        assert rc == 0
        recs = list(read_jsonl(clusters))
        assert sum(r["occurrence_count"] for r in recs) == 40
        assert any(r["occurrence_count"] == 3 for r in recs)


class TestQualityCommands:
    def test_train_score_annotate(self, workspace, tmp_path):
        root, config_path, raw = workspace
        q = raw["quality"]["classifiers"][0]
        model = tmp_path / "web.clf"
        rc = main([
            "quality", "train",
            "--positives", q["positives"], "--negatives", q["negatives"],
            "--model-id", "web", "--out", str(model),
            "--epochs", "10", "--seed", "7",
        ])
        assert rc == 0 and model.is_file()

        dump = raw["input"][0]
        corpus = tmp_path / "corpus.jsonl"
        clusters = tmp_path / "clusters.jsonl"
        clustered = tmp_path / "clustered.jsonl"
        main(["ingest", "--in", dump, "--out", str(corpus)])
        main(["dedup", "--in", str(corpus), "--out", str(clusters), "--annotated", str(clustered)])

        scores = tmp_path / "scores.jsonl"
        assert main(["quality", "score", "--model", str(model), "--in", str(corpus), "--out", str(scores)]) == 0
        rows = list(read_jsonl(scores))
        assert rows and all(0.0 <= r["score"] <= 1.0 for r in rows)

        dcode = tmp_path / "dcode.clf"
        dmath = tmp_path / "dmath.clf"
        code = raw["quality"]["domain_classifiers"][0]
        math_ = raw["quality"]["domain_classifiers"][1]
        main(["quality", "train", "--positives", code["positives"], "--negatives", code["negatives"], "--model-id", "code", "--out", str(dcode)])
        main(["quality", "train", "--positives", math_["positives"], "--negatives", math_["negatives"], "--model-id", "math", "--out", str(dmath)])

        annotated = tmp_path / "annotated.jsonl"
        drops = tmp_path / "drops.jsonl"
        rc = main([
            "quality", "annotate",
            "--in", str(clustered), "--clusters", str(clusters),
            "--models", str(model),
            "--domain", f"code={dcode}", f"math={dmath}",
            "--out", str(annotated), "--drops", str(drops),
        ])
        assert rc == 0
        recs = list(read_jsonl(annotated))
        assert recs
        for rec in recs[:5]:
            assert "clf:web" in rec["extra"]
            assert "tag:code" in rec["extra"]


class TestSampleCommand:
    def test_sample_with_draws(self, workspace, tmp_path):
        root, config_path, raw = workspace
        dump = raw["input"][0]
        corpus = tmp_path / "corpus.jsonl"
        clusters = tmp_path / "clusters.jsonl"
        clustered = tmp_path / "clustered.jsonl"
        main(["ingest", "--in", dump, "--out", str(corpus)])
        main(["dedup", "--in", str(corpus), "--out", str(clusters), "--annotated", str(clustered)])
        model = tmp_path / "web.clf"
        q = raw["quality"]["classifiers"][0]
        main(["quality", "train", "--positives", q["positives"], "--negatives", q["negatives"], "--model-id", "web", "--out", str(model)])
        annotated = tmp_path / "annotated.jsonl"
        main(["quality", "annotate", "--in", str(clustered), "--clusters", str(clusters), "--models", str(model), "--out", str(annotated)])

        weights = tmp_path / "weights.jsonl"
        manifest = tmp_path / "draws.json"
        rc = main([
            "sample", "--config", str(config_path), "--in", str(annotated),
            "--out", str(weights), "--draw", "50", "--seed", "3",
            "--clusters", str(clusters), "--manifest", str(manifest),
        ])
        assert rc == 0
        rows = list(read_jsonl(weights))
        assert rows and abs(sum(r["probability"] for r in rows) - 1.0) < 1e-9
        assert len(read_json(manifest)["doc_ids"]) == 50


class TestCurriculumCommands:
    def test_validate_good_plan(self, tmp_path):
        plan = {
            "total_token_budget": 1000,
            "stages": [
                {"stage_id": "i", "token_share": "0.6", "quality_threshold": 0.0, "mixture": {"other": "1"}},
                {"stage_id": "ii", "token_share": "0.4", "quality_threshold": 0.5, "mixture": {"other": "1"}},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["curriculum", "validate", "--plan", str(path)]) == 0

    def test_validate_bad_plan_exit_1(self, tmp_path, capsys):
        plan = {
            "total_token_budget": 1000,
            "stages": [
                {"stage_id": "i", "token_share": "0.5", "quality_threshold": 0.0, "mixture": {"other": "1"}},
                {"stage_id": "ii", "token_share": "0.6", "quality_threshold": 0.5, "mixture": {"other": "1"}},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["curriculum", "validate", "--plan", str(path)]) == 1
        assert "shares_not_one" in capsys.readouterr().out

    def test_emit_requires_earlier_phases(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path / "fresh", n_docs=60)
        assert main(["curriculum", "emit", "--config", str(config_path), "--stage", "i"]) == 3


class TestPrepCommands:
    def test_pack(self, tmp_path):
        shard = tmp_path / "tokens.jsonl"
        with open(shard, "w") as fh:
            for i, n in enumerate([3, 5, 11]):
                fh.write(json.dumps({"doc_id": f"d{i}", "token_ids": list(range(1, n + 1))}) + "\n")
        out = tmp_path / "packed.bin"
        assert main(["prep", "pack", "--length", "8", "--in", str(shard), "--out", str(out)]) == 0
        from corpusprep.packing import read_packed

        seq_len, pad_id, seqs = read_packed(out)
        assert seq_len == 8
        assert sum(s.pad_from for s in seqs) == 3 + 5 + 11

    def test_schedule(self, tmp_path, capsys):
        spec = {
            "peak_lr": 1e-3, "warmup_end": 10, "constant_end": 20,
            "slow_decay_end": 30, "slow_decay_floor": 5e-4,
            "end_step": 35, "final_lr": 0.0,
        }
        path = tmp_path / "lr.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "lr.csv"
        assert main(["prep", "schedule", "--spec", str(path), "--dump-csv", str(out), "--at", "25"]) == 0
        assert out.is_file()
        assert "lr at step 25" in capsys.readouterr().out

    def test_rope(self, capsys):
        assert main(["prep", "rope", "--stage", "ext2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["theta"] == 1.28e8
        assert rec["sequence_length"] == 131072

    def test_rope_unknown_stage_exit_1(self):
        assert main(["prep", "rope", "--stage", "ext9"]) == 1


class TestRunReport:
    def test_run_then_report(self, workspace, capsys):
        root, config_path, raw = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "reconciliation OK" in out
        assert main(["report", "--work-dir", raw["work_dir"]]) == 0
        report = read_json(Path(raw["work_dir"]) / "report.json")
        assert report["reconciliation"]["ok"]

    def test_bad_banding_exit_1(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=30)
        raw["dedup"] = {"bands": 3, "rows": 5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", "--config", str(bad)]) == 1

    def test_report_empty_dir_exit_3(self, tmp_path):
        assert main(["report", "--work-dir", str(tmp_path)]) == 3

    def test_report_corrupted_output_exit_3(self, tmp_path, capsys):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=60, total_tokens=8_000)
        assert main(["run", "--config", str(config_path)]) == 0
        annotated = Path(raw["work_dir"]) / "annotated.jsonl"
        annotated.write_text(annotated.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        assert main(["report", "--work-dir", raw["work_dir"]]) == 3
        assert "annotated.jsonl (checksum mismatch)" in capsys.readouterr().err

    def test_cli_overrides(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=60, total_tokens=8_000)
        override_dir = tmp_path / "override_work"
        rc = main([
            "run", "--config", str(config_path),
            "--work-dir", str(override_dir), "--seed", "7", "--workers", "2",
        ])
        assert rc == 0
        assert (override_dir / "report.json").is_file()
