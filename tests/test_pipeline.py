"""Orchestrator tests: resume, determinism, reporting, integrity."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from corpusprep import pipeline
from corpusprep.errors import ConfigError, IntegrityError, ValidationError
from corpusprep.hashing import sha256_file
from corpusprep.jsonl import read_json
from corpusprep.pipeline import (
    Pipeline,
    PipelineConfig,
    build_report,
    run_pipeline,
    strip_timing,
)

from conftest import make_pipeline_workspace


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    config_path, _ = make_pipeline_workspace(root, n_docs=500, total_tokens=60_000)
    config = PipelineConfig.from_file(config_path)
    report = run_pipeline(config)
    return config, report


def work_files(work_dir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(work_dir.rglob("*")):
        if path.is_file() and not path.name.endswith(".done.json") and path.name != "report.json":
            out[str(path.relative_to(work_dir))] = sha256_file(path)
    return out


class TestRun:
    def test_reconciliation_holds(self, completed_run):
        _, report = completed_run
        assert report["reconciliation"]["ok"], report["reconciliation"]["checks"]
        names = {c["name"] for c in report["reconciliation"]["checks"]}
        assert "ingest_counts" in names
        assert "available_to_sampling" in names
        assert any(n.startswith("stage_") for n in names)
        assert any(n.startswith("packing_conservation_") for n in names)

    def test_rejects_counted(self, completed_run):
        _, report = completed_run
        ingest = report["phases"]["ingest"]
        assert ingest["rejected_total"] >= 2  # planted malformed lines
        assert ingest["accepted"] + ingest["rejected_total"] == ingest["input_lines"]

    def test_duplicate_rate_reported(self, completed_run):
        _, report = completed_run
        ded = report["phases"]["dedup"]
        assert 0 < ded["duplicate_rate"] < 0.5
        assert ded["cluster_size_histogram"].get("3", 0) >= 10  # planted triples

    def test_all_stages_emitted(self, completed_run):
        _, report = completed_run
        stages = report["phases"]["curriculum"]["stages"]
        assert set(stages) == {"i", "ii", "iii", "iv"}
        for s in stages.values():
            assert s["total_tokens"] >= s["budget"]

    def test_dedup_writes_no_corpus_copy(self, completed_run):
        config, _ = completed_run
        marker = read_json(config.work_dir / "dedup.done.json")
        assert sorted(marker["outputs"]) == ["clusters.jsonl", "dedup_report.json"]
        assert not (config.work_dir / "corpus_clustered.jsonl").exists()

    def test_rerun_skips_every_phase(self, completed_run):
        config, first = completed_run
        second = Pipeline(config).run()
        assert all(second["phases_executed"][p] is False for p in second["phases_executed"])
        assert strip_timing(first["phases"]) == strip_timing(second["phases"])
        assert strip_timing(first["reconciliation"]) == strip_timing(second["reconciliation"])

    def test_report_command_matches_run_report(self, completed_run):
        config, report = completed_run
        rebuilt = build_report(config.work_dir)
        assert strip_timing(rebuilt["phases"]) == strip_timing(report["phases"])
        assert rebuilt["config_hash"] == report["config_hash"]


def _truncate_dump(raw: dict) -> None:
    dump = Path(raw["input"][0])
    lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
    dump.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")


def _rewrite_web_positives(raw: dict) -> None:
    # Math-marked texts become web positives too, so more documents pass
    # the later stages' quality gates and the drawn shards change.
    web = Path(raw["quality"]["classifiers"][0]["positives"])
    math = Path(raw["quality"]["domain_classifiers"][1]["positives"])
    text = web.read_text(encoding="utf-8") + math.read_text(encoding="utf-8")
    web.write_text(text, encoding="utf-8")


def _swap_lambdas(raw: dict) -> None:
    policies = raw["sampling"]["policies"]
    policies[0]["lambda"], policies[1]["lambda"] = policies[1]["lambda"], policies[0]["lambda"]


def _lower_budget(raw: dict) -> None:
    raw["curriculum"]["total_token_budget"] //= 2


LATER_PHASES = ("sampling", "curriculum", "train_prep")


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_truncate_dump, ("ingest", "dedup", "quality") + LATER_PHASES),
        (_rewrite_web_positives, ("quality",) + LATER_PHASES),
        (_swap_lambdas, LATER_PHASES),
        (_lower_budget, ("curriculum", "train_prep")),
    ],
    ids=["truncated_dump", "rewritten_positives", "sampling_lambdas", "lower_budget"],
)
def test_edit_reruns_exactly_the_phases_that_read_it(tmp_path, edit, expected):
    """After an edit, a rerun executes only the phases whose inputs changed
    and leaves the work directory as a cold run of the edited config would."""
    _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=40_000)
    raw["curriculum"]["shard_tokens"] = 4_000  # several shards per stage
    run_pipeline(PipelineConfig.from_dict(raw))
    edit(raw)
    rerun = run_pipeline(PipelineConfig.from_dict(raw))
    cold = run_pipeline(PipelineConfig.from_dict(dict(raw, work_dir=str(tmp_path / "cold"))))

    assert [p for p, ran in rerun["phases_executed"].items() if ran] == list(expected)
    assert strip_timing(rerun["phases"]) == strip_timing(cold["phases"])
    assert work_files(Path(raw["work_dir"])) == work_files(tmp_path / "cold")


class TestDeterminismAcrossWorkers:
    def test_worker_count_invisible_in_outputs(self, tmp_path):
        config_path, _ = make_pipeline_workspace(tmp_path, n_docs=220, total_tokens=25_000)
        digests = []
        reports = []
        for workers in (1, 4):
            config = PipelineConfig.from_file(
                config_path,
                overrides={"workers": workers, "work_dir": str(tmp_path / f"work{workers}")},
            )
            report = run_pipeline(config)
            digests.append(work_files(config.work_dir))
            reports.append(strip_timing(report))
        assert digests[0] == digests[1]
        assert reports[0] == reports[1]


class TestValidation:
    def test_bad_banding_aborts_before_any_phase(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=50)
        raw["dedup"] = {"bands": 7, "rows": 9, "num_perms": 128}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="bands"):
            Pipeline(PipelineConfig.from_file(bad_path))
        assert not (Path(raw["work_dir"]) / "corpus.jsonl").exists()

    def test_bad_plan_rejected(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=50)
        raw["curriculum"]["stages"][0]["token_share"] = "0.5"
        bad_path = tmp_path / "bad_plan.json"
        bad_path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError):
            Pipeline(PipelineConfig.from_file(bad_path))

    def test_bad_lambdas_rejected(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=50)
        raw["sampling"]["policies"][0]["lambda"] = 0.9
        bad_path = tmp_path / "bad_lam.json"
        bad_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="lambda"):
            Pipeline(PipelineConfig.from_file(bad_path))

    def test_missing_input_rejected(self, tmp_path):
        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=50)
        raw["input"] = [str(tmp_path / "nope.jsonl")]
        bad_path = tmp_path / "bad_in.json"
        bad_path.write_text(json.dumps(raw))
        config = PipelineConfig.from_file(bad_path)
        with pytest.raises(ConfigError, match="not readable"):
            Pipeline(config).run()

    def test_phase_error_names_failing_phase(self, tmp_path):
        from corpusprep.errors import PhaseError

        config_path, raw = make_pipeline_workspace(tmp_path, n_docs=60)
        raw["quality"]["classifiers"] = [
            {"model_id": "web", "path": str(tmp_path / "missing.clf")}
        ]
        bad_path = tmp_path / "bad_clf.json"
        bad_path.write_text(json.dumps(raw))
        config = PipelineConfig.from_file(bad_path)
        with pytest.raises(PhaseError) as err:
            Pipeline(config).run()
        assert err.value.phase == "quality"
        # Earlier phases completed and left their markers.
        assert (config.work_dir / "dedup.done.json").is_file()
        assert not (config.work_dir / "quality.done.json").exists()


class TestIntegrity:
    def test_corrupted_shard_detected(self, tmp_path):
        config_path, _ = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        config = PipelineConfig.from_file(config_path)
        run_pipeline(config)
        shard = next((config.work_dir / "stages" / "i").glob("shard_*.jsonl"))
        shard.write_text(shard.read_text() + "\n")
        with pytest.raises(IntegrityError) as err:
            build_report(config.work_dir)
        assert "shard_" in str(err.value)

    def test_absent_phase_marked(self, tmp_path):
        config_path, _ = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        config = PipelineConfig.from_file(config_path)
        run_pipeline(config)
        # Remove the train_prep phase entirely: artifacts and marker.
        (config.work_dir / "train_prep.done.json").unlink()
        (config.work_dir / "train_prep_report.json").unlink()
        shutil.rmtree(config.work_dir / "packed")
        report = build_report(config.work_dir)
        assert report["phases"]["train_prep"] == {"absent": True}
        assert "dedup_in_matches_ingest_out" in {
            c["name"] for c in report["reconciliation"]["checks"]
        }

    def test_empty_work_dir_rejected(self, tmp_path):
        with pytest.raises(IntegrityError):
            build_report(tmp_path)


class TestConfigHash:
    """The phase keys that decide what a rerun executes."""

    def test_workers_and_work_dir_excluded(self, tmp_path):
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        run_pipeline(PipelineConfig.from_dict(dict(raw, workers=1)))
        moved = tmp_path / "elsewhere"
        shutil.copytree(raw["work_dir"], moved)
        rerun = run_pipeline(PipelineConfig.from_dict(dict(raw, workers=2, work_dir=str(moved))))
        assert not any(rerun["phases_executed"].values())

    def test_data_config_changes_hash(self, tmp_path):
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        run_pipeline(PipelineConfig.from_dict(raw))
        raw["dedup"]["top_k"] = 2
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert rerun["phases_executed"]["ingest"] is False
        assert rerun["phases_executed"]["dedup"] is True


def test_unchanged_rerun_hashes_each_file_once(tmp_path, monkeypatch):
    """An unchanged rerun hashes every outside file and every recorded
    output once: the report reuses the phases' own verification."""
    config_path, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
    config = PipelineConfig.from_file(config_path)
    run_pipeline(config)
    outside = config.resolve_inputs() + [
        spec[side] for spec in raw["quality"]["classifiers"] + raw["quality"]["domain_classifiers"]
        for side in ("positives", "negatives")
    ]
    outputs = [
        str(config.work_dir / rel)
        for marker in config.work_dir.glob("*.done.json")
        for rel in read_json(marker)["outputs"]
    ]
    hashed = []

    def counting_sha256(path):
        hashed.append(str(path))
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", counting_sha256)
    rerun = run_pipeline(config)
    assert not any(rerun["phases_executed"].values())
    assert sorted(hashed) == sorted(outside + outputs)
