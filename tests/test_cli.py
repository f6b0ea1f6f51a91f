"""CLI surface tests: every subcommand plus exit-code mapping."""

from __future__ import annotations

import copy
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusprep
from corpusprep.classifier import ClassifierHyper, QualityClassifier
from corpusprep.cli import build_parser, main
from corpusprep.corpus import read_corpus
from corpusprep.curriculum import StagePlan
from corpusprep.dedup import DedupConfig
from corpusprep.errors import ConfigError
from corpusprep.jsonl import read_json, read_jsonl, write_jsonl
from corpusprep.pipeline import (
    PipelineConfig,
    QualityConfig,
    SamplingConfig,
    TrainPrepConfig,
    config_section,
)
from corpusprep.quality import HeuristicThresholds
from corpusprep.rope import rope_config
from corpusprep.sampling import UpsamplePolicy
from corpusprep.schedule import LrScheduleSpec

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
        rc = main(["dedup", "--in", str(corpus), "--out", str(clusters)])
        assert rc == 0
        recs = list(read_jsonl(clusters))
        assert sum(r["occurrence_count"] for r in recs) == 40
        assert any(r["occurrence_count"] == 3 for r in recs)
        with pytest.raises(SystemExit):  # the corpus copy option is gone
            main(["dedup", "--in", str(corpus), "--out", str(clusters), "--annotated", "x"])


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
        main(["ingest", "--in", dump, "--out", str(corpus)])
        main(["dedup", "--in", str(corpus), "--out", str(clusters)])

        scores = tmp_path / "scores.jsonl"
        assert main(["quality", "score", "--model", str(model), "--in", str(corpus), "--out", str(scores)]) == 0
        rows = list(read_jsonl(scores))
        assert rows and all(0.0 <= r["score"] <= 1.0 for r in rows)
        clf = QualityClassifier.load(model)
        assert rows == [
            {"doc_id": d.doc_id, "score": clf.score_text(d.text)} for d in read_corpus(corpus)
        ]

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
            "--in", str(corpus), "--clusters", str(clusters),
            "--models", str(model),
            "--domain", f"code={dcode}", f"math={dmath}",
            "--out", str(annotated), "--drops", str(drops),
        ])
        assert rc == 0
        recs = list(read_jsonl(annotated))
        assert recs
        for rec in recs[:5]:
            assert "text" not in rec
            assert "clf:web" in rec["extra"]
            assert "tag:code" in rec["extra"]

        out, dropped = tmp_path / "annotated-again.jsonl", tmp_path / "drops-again.jsonl"
        rc = main([
            "quality", "annotate",
            "--in", str(corpus), "--clusters", str(clusters),
            "--models", str(model),
            "--domain", f"code={dcode}", f"math={dmath}",
            "--out", str(out), "--drops", str(dropped),
        ])
        assert rc == 0
        assert (out.read_bytes(), dropped.read_bytes()) == (annotated.read_bytes(), drops.read_bytes())


class TestSampleCommand:
    def test_sample_with_draws(self, workspace, tmp_path):
        root, config_path, raw = workspace
        dump = raw["input"][0]
        corpus = tmp_path / "corpus.jsonl"
        clusters = tmp_path / "clusters.jsonl"
        main(["ingest", "--in", dump, "--out", str(corpus)])
        main(["dedup", "--in", str(corpus), "--out", str(clusters)])
        model = tmp_path / "web.clf"
        q = raw["quality"]["classifiers"][0]
        main(["quality", "train", "--positives", q["positives"], "--negatives", q["negatives"], "--model-id", "web", "--out", str(model)])
        annotated = tmp_path / "annotated.jsonl"
        main(["quality", "annotate", "--in", str(corpus), "--clusters", str(clusters), "--models", str(model), "--out", str(annotated)])

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

    @pytest.mark.parametrize("row", [
        {  # format 1: a corpus record with repr-string signals and the text
            "doc_id": "d1", "url": "https://a.example/1", "crawl_time": "2024-01-01T00:00:00Z",
            "language": "en", "snapshot_id": "S0", "domain": "a.example",
            "content_hash": "0" * 32, "text": "some text",
            "extra": {"cluster_id": "d1", "clf:web": "0.9", "freq:occurrence": "1.0"},
        },
        {"doc_id": "d1", "url": "https://a.example/1", "cluster_id": "d1",
         "extra": {"cluster_id": "d1", "clf:web": 0.9, "freq:occurrence": 1.0}},
    ], ids=["format-1-row", "string-in-extra"])
    def test_old_annotation_rows_exit_1(self, workspace, tmp_path, capsys, row):
        _, config_path, _ = workspace
        old = tmp_path / "old_annotated.jsonl"
        old.write_text(json.dumps(row) + "\n", encoding="utf-8")
        rc = main(["sample", "--config", str(config_path), "--in", str(old),
                   "--out", str(tmp_path / "weights.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 1 is not an object of the fields" in err and "annotated.jsonl format 2" in err


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

    def test_validate_rejects_zero_shard_tokens(self, tmp_path, capsys):
        """validate reports the shard size that run rejects."""
        plan = {
            "total_token_budget": 1000,
            "shard_tokens": 0,
            "stages": [
                {"stage_id": "i", "token_share": "0.6", "quality_threshold": 0.0, "mixture": {"other": "1"}},
                {"stage_id": "ii", "token_share": "0.4", "quality_threshold": 0.5, "mixture": {"other": "1"}},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["curriculum", "validate", "--plan", str(path)]) == 1
        assert "INVALID bad_shard_tokens" in capsys.readouterr().out

    def test_emit_requires_earlier_phases(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path / "fresh", n_docs=60)
        assert main(["curriculum", "emit", "--config", str(config_path), "--stage", "i"]) == 3

    @pytest.mark.parametrize("edit", ["uniform-weights", "no-sampling-marker"])
    def test_emit_checks_its_inputs_against_the_markers(self, tmp_path, capsys, edit):
        """A work file that no done-marker records, or that no longer has
        its recorded digest, stops emit with exit 3 before it writes."""
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=100, total_tokens=10_000)
        assert main(["run", "--config", config_path]) == 0
        work = Path(raw["work_dir"])
        if edit == "uniform-weights":
            rows = list(read_jsonl(work / "weights.jsonl"))
            write_jsonl(work / "weights.jsonl", [dict(r, probability=1 / len(rows)) for r in rows])
        else:
            (work / "sampling.done.json").unlink()
        stage = work / "stages" / "iv"
        before = {p.name: p.read_bytes() for p in stage.iterdir()}
        capsys.readouterr()
        assert main(["curriculum", "emit", "--config", config_path, "--stage", "iv"]) == 3
        assert "weights.jsonl" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in stage.iterdir()} == before


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

    @pytest.mark.parametrize("token_ids, pad_id, named", [
        ([1, -2], "0", "row 2"),
        ([1, 2**32], "0", "row 2"),
        ([1, 2**32 - 1], "-1", "pad id -1"),
        ([1, 2**32 - 1], str(2**32), f"pad id {2**32}"),
    ])
    def test_pack_rejects_values_outside_u32(self, tmp_path, capsys, token_ids, pad_id, named):
        """Token ids and the pad id are u32 in the packed file; any other
        value ends in one error line, not a traceback."""
        shard = tmp_path / "tokens.jsonl"
        shard.write_text(json.dumps({"doc_id": "a", "token_ids": [1]}) + "\n"
                         + json.dumps({"doc_id": "b", "token_ids": token_ids}) + "\n")
        out = tmp_path / "packed.bin"
        argv = ["prep", "pack", "--length", "8", "--in", str(shard), "--out", str(out),
                "--pad-id", pad_id]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and named in err
        assert not out.exists()

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
            "--work-dir", str(override_dir), "--seed", "7",
        ])
        assert rc == 0
        assert (override_dir / "report.json").is_file()


    def test_quality_train_writes_the_run_classifier(self, tmp_path):
        """`quality train` and `run` read training sources alike (a row
        without text is skipped) and write the same .clf bytes."""
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=60, total_tokens=8_000)
        spec = raw["quality"]["classifiers"][0]
        with open(spec["positives"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"url": "https://a.example/no-text"}) + "\n")
        assert main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "web.clf"
        rc = main([
            "quality", "train", "--positives", spec["positives"], "--negatives", spec["negatives"],
            "--model-id", spec["model_id"], "--out", str(out),
            "--epochs", str(spec["hyper"]["epochs"]), "--seed", str(spec["hyper"]["seed"]),
        ])
        assert rc == 0
        assert out.read_bytes() == (Path(raw["work_dir"]) / "classifiers" / "web.clf").read_bytes()


def test_per_phase_chain_reproduces_the_run(tmp_path):
    """ingest, dedup, quality annotate (on the run's own classifiers) and
    sample, each given the run's config, write the bytes run writes, also
    for non-default heuristics and tag_threshold."""
    config_path, raw = make_pipeline_workspace(tmp_path, n_docs=300)
    raw["quality"].update(heuristics={"min_words": 120, "max_mean_word_length": 7.0}, tag_threshold=0.3)
    Path(config_path).write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", config_path]) == 0
    work, chain = Path(raw["work_dir"]), tmp_path / "chain"
    clf = work / "classifiers"
    chain.mkdir()
    for argv in (
        ["ingest", "--in", *raw["input"], "--out", chain / "corpus.jsonl"],
        ["dedup", "--config", config_path, "--in", chain / "corpus.jsonl",
         "--out", chain / "clusters.jsonl"],
        ["quality", "annotate", "--config", config_path, "--in", chain / "corpus.jsonl",
         "--clusters", chain / "clusters.jsonl", "--models", clf / "web.clf",
         "--domain", f"code={clf / 'code.clf'}", f"math={clf / 'math.clf'}",
         "--out", chain / "annotated.jsonl", "--drops", chain / "drop_report.jsonl"],
        ["sample", "--config", config_path, "--in", chain / "annotated.jsonl",
         "--out", chain / "weights.jsonl"],
    ):
        assert main([str(arg) for arg in argv]) == 0
    assert any("min_words" in row["reasons"] for row in read_jsonl(work / "drop_report.jsonl"))
    for name in ("corpus.jsonl", "clusters.jsonl", "annotated.jsonl", "drop_report.jsonl", "weights.jsonl"):
        assert (chain / name).read_bytes() == (work / name).read_bytes(), name


# -- missing input files ------------------------------------------------------------

MISSING = "absent.jsonl"
# Each per-phase command with one named input or model file that does not exist.
MISSING_INPUTS = {
    "ingest-in": ["ingest", "--in", MISSING, "--out", "corpus2.jsonl"],
    "dedup-in": ["dedup", "--in", MISSING, "--out", "clusters2.jsonl"],
    "train-positives": ["quality", "train", "--positives", MISSING, "--negatives", "neg.jsonl",
                        "--out", "m.clf"],
    "score-model": ["quality", "score", "--model", MISSING, "--in", "corpus.jsonl"],
    "annotate-in": ["quality", "annotate", "--in", MISSING, "--clusters", "clusters.jsonl",
                    "--models", "web.clf", "--out", "a.jsonl"],
    "annotate-clusters": ["quality", "annotate", "--in", "corpus.jsonl", "--clusters", MISSING,
                          "--models", "web.clf", "--out", "a.jsonl"],
    "annotate-models": ["quality", "annotate", "--in", "corpus.jsonl", "--clusters",
                        "clusters.jsonl", "--models", "web.clf", MISSING, "--out", "a.jsonl"],
    "annotate-domain": ["quality", "annotate", "--in", "corpus.jsonl", "--clusters",
                        "clusters.jsonl", "--models", "web.clf", "--domain", f"code={MISSING}",
                        "--out", "a.jsonl"],
    "sample-in": ["sample", "--config", "config.json", "--in", MISSING, "--out", "w.jsonl"],
    "pack-in": ["prep", "pack", "--length", "8", "--in", MISSING, "--out", "p.bin"],
}


@pytest.fixture(scope="module")
def phase_files(workspace, tmp_path_factory):
    """A directory holding every input the MISSING_INPUTS commands name, but
    MISSING."""
    _, config_path, raw = workspace
    root = tmp_path_factory.mktemp("inputs")
    q = raw["quality"]["classifiers"][0]
    (root / "config.json").write_bytes(Path(config_path).read_bytes())
    (root / "neg.jsonl").write_bytes(Path(q["negatives"]).read_bytes())
    for argv in (
        ["ingest", "--in", raw["input"][0], "--out", str(root / "corpus.jsonl")],
        ["dedup", "--in", str(root / "corpus.jsonl"), "--out", str(root / "clusters.jsonl")],
        ["quality", "train", "--positives", q["positives"], "--negatives", q["negatives"],
         "--out", str(root / "web.clf"), "--epochs", "1"],
    ):
        assert main(argv) == 0
    return root


@pytest.mark.parametrize("argv", MISSING_INPUTS.values(), ids=MISSING_INPUTS.keys())
def test_missing_input_file_exits_1(phase_files, monkeypatch, capsys, argv):
    monkeypatch.chdir(phase_files)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MISSING in err
    assert "Traceback" not in out + err


# Each per-phase command that reads JSONL rows, by the input whose first row
# test_malformed_input_row_exits_1_or_3 breaks; "@name" is the file in row_files.
ANNOTATE = ["quality", "annotate", "--in", "@corpus.jsonl", "--clusters", "@clusters.jsonl",
            "--models", "@web.clf", "--out", "@out.jsonl"]
ROW_INPUTS = {
    "dedup-in": (["dedup", "--in", "@corpus.jsonl", "--out", "@out.jsonl"], "corpus.jsonl"),
    "annotate-in": (ANNOTATE, "corpus.jsonl"),
    "annotate-clusters": (ANNOTATE, "clusters.jsonl"),
    "sample-in": (["sample", "--config", "@sampling.json", "--in", "@annotated.jsonl",
                   "--out", "@out.jsonl"], "annotated.jsonl"),
    "pack-in": (["prep", "pack", "--length", "8", "--in", "@shard.jsonl", "--out", "@out.bin"],
                "shard.jsonl"),
}
# One value of each JSON type.
JSON_VALUES = [None, True, 7, "s", [], {}]


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _row_argv(root: Path, argv: list[str], swap: dict[str, str] = {}) -> list[str]:
    return [str(root / swap.get(a[1:], a[1:])) if a.startswith("@") else a for a in argv]


@pytest.fixture(scope="module")
def row_files(phase_files, tmp_path_factory):
    """The phase_files corpus, clusters and model, with the annotated rows,
    sampling section and stage shard that the ROW_INPUTS commands read;
    each command passes on them."""
    root = tmp_path_factory.mktemp("rows")
    for name in ("corpus.jsonl", "clusters.jsonl", "web.clf"):
        (root / name).write_bytes((phase_files / name).read_bytes())
    (root / "sampling.json").write_text(
        json.dumps({"policies": [{"signal": "freq:occurrence", "lambda": 1}]}), encoding="utf-8"
    )
    write_jsonl(root / "shard.jsonl", [{"doc_id": "a", "token_ids": [1, 2, 3]},
                                       {"doc_id": "b", "token_ids": [4, 5]}])
    argv = _row_argv(root, ANNOTATE, {"out.jsonl": "annotated.jsonl"})
    assert main(argv) == 0
    for argv, _ in ROW_INPUTS.values():
        assert main(_row_argv(root, argv)) == 0
    return root


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_malformed_input_row_exits_1_or_3(row_files, data):
    """A row with a key dropped or added, a value of another JSON type, or
    the line cut short: the command exits 1 or 3 with one error line."""
    case = data.draw(st.sampled_from(sorted(ROW_INPUTS)), label="command")
    argv, name = ROW_INPUTS[case]
    lines = (row_files / name).read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    how = data.draw(st.sampled_from(["drop", "add", "retype", "truncate"]), label="change")
    if how == "truncate":
        bad = lines[0][: data.draw(st.integers(1, len(lines[0]) - 1), label="length")]
    else:
        key = data.draw(st.sampled_from(sorted(row)), label="key")
        if how == "drop":
            del row[key]
        elif how == "add":
            row[f"{key}_extra"] = row[key]
        else:
            others = [v for v in JSON_VALUES if _json_type(v) != _json_type(row[key])]
            row[key] = data.draw(st.sampled_from(others), label="value")
        bad = json.dumps(row)
    (row_files / "bad.jsonl").write_text("\n".join([bad, *lines[1:]]) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(_row_argv(row_files, argv, {name: "bad.jsonl"}))
    assert rc in (1, 3)
    assert "error: " in err.getvalue() and err.getvalue().count("\n") == 1
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("argv", [
    ["quality", "train", "--seed", "-1"],
    ["quality", "train", "--seed", str(2**64)],
    ["sample", "--config", "@sampling.json", "--in", "@annotated.jsonl", "--out", "@out.jsonl",
     "--clusters", "@clusters.jsonl", "--draw", "3", "--seed", "-1"],
], ids=["train-seed-negative", "train-seed-over-u64", "draw-seed-negative"])
def test_seed_out_of_range_exits_1(workspace, row_files, capsys, argv):
    """A classifier file packs its seed as u64 and numpy seeds with a
    non-negative integer, so both commands reject other seeds up front."""
    if argv[0] == "quality":
        q = workspace[2]["quality"]["classifiers"][0]
        argv = [*argv, "--positives", q["positives"], "--negatives", q["negatives"],
                "--epochs", "1", "--out", "@out.clf"]
    capsys.readouterr()
    assert main(_row_argv(row_files, argv)) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err
    assert not (row_files / "out.clf").exists()

# -- malformed config files ---------------------------------------------------------

DELETE = object()
# Each command that reads a config file: its arguments before the file, and
# the part of the pipeline config the file holds.
CONFIG_COMMANDS = {
    "run": (["run", "--config"], ()),
    "dedup": (["dedup", "--in", "corpus.jsonl", "--out", "clusters.jsonl", "--config"], ("dedup",)),
    "sample": (["sample", "--in", "annotated.jsonl", "--out", "weights.jsonl", "--config"], ("sampling",)),
    "quality-annotate": (["quality", "annotate", "--in", "corpus.jsonl", "--clusters", "clusters.jsonl",
                          "--models", "web.clf", "--out", "annotated.jsonl", "--config"], ("quality",)),
    "curriculum-emit": (["curriculum", "emit", "--stage", "i", "--config"], ()),
    "curriculum-validate": (["curriculum", "validate", "--plan"], ("curriculum",)),
    "prep-schedule": (["prep", "schedule", "--spec"], ("train_prep", "lr_schedule")),
}
# (command, case, key path inside the file, new value or DELETE)
BROKEN_KEYS = [
    ("run", "missing-key", ("sampling", "policies", 0, "signal"), DELETE),
    ("run", "non-numeric", ("dedup", "bands"), "x"),
    ("run", "non-numeric-vocab-size", ("train_prep", "vocab_size"), "x"),
    ("run", "non-numeric-shard-tokens", ("curriculum", "shard_tokens"), "x"),
    ("run", "zero-denominator", ("curriculum", "stages", 0, "mixture", "code"), "1/0"),
    ("run", "nan-lambda", ("sampling", "policies", 0, "lambda"), float("nan")),
    ("dedup", "non-numeric", ("bands",), "x"),
    ("dedup", "fractional-int", ("top_k",), 2.7),
    ("dedup", "boolean-int", ("shingle_width",), True),
    ("sample", "missing-key", ("policies", 0, "signal"), DELETE),
    ("sample", "non-numeric", ("policies", 0, "lambda"), "x"),
    ("sample", "infinite-boost", ("policies", 1, "boost"), float("inf")),
    ("quality-annotate", "non-numeric", ("heuristics",), {"min_words": "x"}),
    ("quality-annotate", "float-overflow", ("heuristics",), {"min_alpha_ratio": 10**400}),
    ("quality-annotate", "non-numeric-tag-threshold", ("tag_threshold",), "x"),
    ("quality-annotate", "nan-tag-threshold", ("tag_threshold",), float("nan")),
    ("quality-annotate", "nan-min-alpha-ratio", ("heuristics",), {"min_alpha_ratio": float("nan")}),
    ("curriculum-emit", "missing-key", ("curriculum", "stages", 0, "token_share"), DELETE),
    ("curriculum-emit", "non-numeric", ("quality", "heuristics"), {"min_words": "x"}),
    ("curriculum-validate", "missing-key", ("stages", 0, "token_share"), DELETE),
    ("curriculum-validate", "non-numeric", ("total_token_budget",), "x"),
    ("curriculum-validate", "negative-infinite-threshold", ("stages", 0, "quality_threshold"), float("-inf")),
    ("prep-schedule", "missing-key", ("end_step",), DELETE),
    ("prep-schedule", "non-numeric", ("peak_lr",), "x"),
]
MALFORMED = [
    (command, case, (), None) for command in CONFIG_COMMANDS for case in ("missing-file", "invalid-json")
] + BROKEN_KEYS


@pytest.mark.parametrize(
    "command,case,keys,value", MALFORMED, ids=[f"{m[0]}-{m[1]}" for m in MALFORMED]
)
def test_malformed_config_exits_1(workspace, tmp_path, monkeypatch, capsys, command, case, keys, value):
    _, _, raw = workspace
    argv, section = CONFIG_COMMANDS[command]
    path = tmp_path / "config.json"
    if case == "invalid-json":
        path.write_text('{"dedup": {"bands": 16,', encoding="utf-8")
    elif case != "missing-file":
        obj = copy.deepcopy(raw)
        for key in section:
            obj = obj[key]
        target = obj
        for key in keys[:-1]:
            target = target[key]
        if value is DELETE:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err
    if keys:  # the error names the dotted key, from the section the file holds
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in section[-1:] + keys)
        assert f"config {dotted.lstrip('.')}" in err


@pytest.mark.parametrize("section", [
    {"bands": 0, "rows": 0, "num_perms": 0},
    {"bands": 1, "rows": -8, "num_perms": -8},
    {"bands": -1, "rows": -8, "num_perms": 8},
], ids=["zero", "negative-rows", "negative-bands-and-rows"])
def test_dedup_bands_and_rows_below_1_exit_1(phase_files, tmp_path, monkeypatch, capsys, section):
    """Banding whose product matches num_perms but with a band or row count
    below 1 is a config error, not a traceback, on a valid corpus."""
    path = tmp_path / "dedup.json"
    path.write_text(json.dumps({"dedup": section}), encoding="utf-8")
    monkeypatch.chdir(phase_files)
    capsys.readouterr()
    assert main(["dedup", "--in", "corpus.jsonl", "--out", str(tmp_path / "out.jsonl"),
                 "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == "error: bands and rows must be >= 1\n" and "Traceback" not in out
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("cls", [
    DedupConfig, ClassifierHyper, HeuristicThresholds,
    QualityConfig, SamplingConfig, StagePlan, TrainPrepConfig,
])
def test_empty_config_section_is_the_dataclass_default(cls):
    assert config_section(cls, {}, "section") == cls()


@pytest.mark.parametrize("cls,rec,expected", [
    (DedupConfig,
     {"shingle_width": "4", "num_perms": 64, "bands": 8, "rows": 8, "jaccard_threshold": "0.7",
      "top_k": 2, "perm_seed": 7, "unknown": 1},
     DedupConfig(shingle_width=4, num_perms=64, bands=8, rows=8, jaccard_threshold=0.7, top_k=2,
                 perm_seed=7)),
    (ClassifierHyper,
     {"orders": [1, "3"], "max_features": 1000, "epochs": "5", "lr": 1, "seed": 9},
     ClassifierHyper(orders=(1, 3), max_features=1000, epochs=5, lr=1.0, seed=9)),
    (HeuristicThresholds,
     {"min_words": 5.0, "min_alpha_ratio": "0.5", "max_line_repeat_ratio": 1},
     HeuristicThresholds(min_words=5, min_alpha_ratio=0.5, max_line_repeat_ratio=1.0)),
    (LrScheduleSpec,
     {"peak_lr": 1, "warmup_end": "10", "constant_end": 20, "slow_decay_end": 30,
      "slow_decay_floor": 0.5, "end_step": 35.0, "final_lr": 0},
     LrScheduleSpec(peak_lr=1.0, warmup_end=10, constant_end=20, slow_decay_end=30,
                    slow_decay_floor=0.5, end_step=35, final_lr=0.0)),
], ids=["dedup", "hyper", "heuristics", "lr_schedule"])
def test_config_section_casts_like_the_field_parsers(cls, rec, expected):
    got = config_section(cls, rec, "section")
    assert got == expected and repr(got) == repr(expected)  # repr tells 5 from 5.0


# A valid instance of each frozen config type and one out-of-range field value.
OUT_OF_RANGE = {
    "dedup": (DedupConfig(), "bands", 7),
    "hyper": (ClassifierHyper(), "epochs", 0),
    "hyper-epochs-over-u32": (ClassifierHyper(), "epochs", 2**32),
    "hyper-order-over-u16": (ClassifierHyper(), "orders", (1, 2**16)),
    "hyper-max-features-over-u64": (ClassifierHyper(), "max_features", 2**64),
    "hyper-seed-negative": (ClassifierHyper(), "seed", -1),
    "hyper-seed-over-u64": (ClassifierHyper(), "seed", 2**64),
    "policy": (UpsamplePolicy("clf:web"), "transform", "cubic"),
    "policy-lambda": (UpsamplePolicy("clf:web"), "mixture_weight", -0.5),
    "policy-lambda-nan": (UpsamplePolicy("clf:web"), "mixture_weight", float("nan")),
    "policy-boost-infinite": (UpsamplePolicy("clf:web", "threshold"), "boost", float("inf")),
    "hyper-lr-nan": (ClassifierHyper(), "lr", float("nan")),
    "lr_schedule": (LrScheduleSpec(1e-3, 100, 200, 300, 5e-4, 350, 0.0), "warmup_end", 0),
    "rope": (rope_config("pretrain"), "head_dim", 63),
}


@pytest.mark.parametrize("valid,name,bad", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_frozen_config_rejects_out_of_range_value(valid, name, bad):
    """Each config type checks its ranges when built, so no invalid
    instance exists, also through dataclasses.replace."""
    with pytest.raises(ConfigError):
        type(valid)(**{**vars(valid), name: bad})
    with pytest.raises(ConfigError):
        replace(valid, **{name: bad})


def test_policy_spec_maps_signal_and_lambda():
    got = config_section(
        UpsamplePolicy,
        {"signal": "clf:web", "transform": "threshold", "threshold": "0.9", "boost": 5, "lambda": "0.6"},
        "sampling.policies[0]",
    )
    expected = UpsamplePolicy("clf:web", "threshold", threshold=0.9, boost=5.0, mixture_weight=0.6)
    assert got == expected and repr(got) == repr(expected)
    assert config_section(UpsamplePolicy, {"signal": "s", "lambda": 1}, "p") == UpsamplePolicy("s")


# Commands that once took --workers, reading the files phase_files holds.
FORMER_WORKER_COMMANDS = {
    "ingest": ["ingest", "--in", "corpus.jsonl", "--out", "out.jsonl"],
    "dedup": ["dedup", "--in", "corpus.jsonl", "--out", "out.jsonl"],
    "quality-annotate": ["quality", "annotate", "--in", "corpus.jsonl", "--clusters",
                         "clusters.jsonl", "--models", "web.clf", "--out", "out.jsonl"],
    # A run that started would create out.jsonl as its work directory.
    "run": ["run", "--config", "config.json", "--work-dir", "out.jsonl"],
}


@pytest.mark.parametrize("argv", FORMER_WORKER_COMMANDS.values(), ids=FORMER_WORKER_COMMANDS.keys())
def test_no_command_takes_a_workers_flag(phase_files, monkeypatch, capsys, argv):
    """Every phase runs in the calling process, so argparse rejects --workers."""
    monkeypatch.chdir(phase_files)
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--workers", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (phase_files / "out.jsonl").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The argv after `corpusprep` of each command line in the bash block
    under README's `## CLI`, with continuations joined, comments cut and
    optional `[...]` groups dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]).strip()
        if line.startswith("corpusprep "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_lines_parse():
    commands = readme_cli_commands()
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: corpusprep {shlex.join(argv)}")


def test_readme_config_example_builds():
    """The JSON example under README's `## Configuration` is a config that
    passes every check PipelineConfig makes when it is built."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = PipelineConfig.from_dict(json.loads(block))
    assert [s.model_id for s in config.quality.classifiers] == ["web"]
    assert [p.signal_name for p in config.sampling.policies] == ["freq:occurrence", "clf:web"]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_cli_sets_one_openblas_thread_unless_the_user_set_it(preset, seen):
    """Importing numpy starts OpenBLAS's thread pool, which nothing here
    uses; the CLI module caps it at one thread before numpy loads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(corpusprep.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    code = "import os, corpusprep.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == seen
