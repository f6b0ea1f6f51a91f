"""Orchestrator tests: resume, determinism, reporting, integrity."""

from __future__ import annotations

import json
import os
import shutil
import unicodedata
from dataclasses import asdict, fields, replace
from fnmatch import fnmatch
from pathlib import Path

import pytest

from corpusprep import classifier, dedup, pipeline
from corpusprep.cli import main
from corpusprep.corpus import Document, read_corpus
from corpusprep.curriculum import ShardManifest, read_manifest
from corpusprep.errors import ConfigError, IntegrityError, ValidationError
from corpusprep.hashing import hash128_hex, sha256_file
from corpusprep.jsonl import dumps, read_json, read_jsonl, write_json
from corpusprep.pipeline import (
    Pipeline,
    PipelineConfig,
    build_report,
    run_pipeline,
    strip_timing,
)
from corpusprep.quality import DropRecord, TextStats, heuristic_filter

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

    def test_annotation_rows_carry_signals_only(self, completed_run):
        config, report = completed_run
        rows = list(read_jsonl(config.work_dir / "annotated.jsonl"))
        quality = report["phases"]["quality"]
        assert quality["annotated_format"] == 2
        assert rows and len(rows) == quality["annotated"]
        for rec in rows:
            assert set(rec) == {"doc_id", "url", "cluster_id", "extra"}
            assert "text" not in rec
            assert rec["extra"] and all(type(v) is float for v in rec["extra"].values())

    def test_records_are_their_dataclass_fields(self, completed_run):
        """Each row of corpus.jsonl, clusters.jsonl and drop_report.jsonl and
        each stage manifest.json has exactly its dataclass's field names as
        keys, and reads back to an instance with the row's values."""
        config, _ = completed_run
        work = config.work_dir

        def names(cls) -> set[str]:
            return {f.name for f in fields(cls)}

        corpus = read_corpus(work / "corpus.jsonl")
        manifests = [work / "stages" / s.stage_id / "manifest.json" for s in config.curriculum.stages]
        cases = [
            (Document, list(read_jsonl(work / "corpus.jsonl")), corpus.documents),
            (dedup.DuplicateCluster, list(read_jsonl(work / "clusters.jsonl")),
             dedup.read_clusters(work / "clusters.jsonl")),
            (ShardManifest, [read_json(p) for p in manifests], [read_manifest(p) for p in manifests]),
        ]
        for cls, rows, loaded in cases:
            assert rows and all(set(rec) == names(cls) for rec in rows), cls.__name__
            assert [asdict(x) for x in loaded] == rows

        drops = list(read_jsonl(work / "drop_report.jsonl"))
        assert drops
        for rec in drops:
            assert set(rec) == names(DropRecord) and set(rec["stats"]) == names(TextStats)
            read = DropRecord(**{**rec, "stats": TextStats(**rec["stats"])})
            assert read == heuristic_filter(corpus.get(rec["doc_id"]), config.quality.heuristics)

    @pytest.mark.parametrize("index", range(len(pipeline.PHASE_TABLE)),
                             ids=[phase.name for phase in pipeline.PHASE_TABLE])
    def test_phase_needs_only_its_declared_reads(self, completed_run, tmp_path, index):
        """Run the phase in a work directory holding only the earlier outputs
        its `reads` patterns match: an undeclared read fails or changes the
        outputs, and would let an edit to that file skip the phase."""
        config, _ = completed_run
        phase = pipeline.PHASE_TABLE[index]
        upstream = {}
        for earlier in pipeline.PHASE_TABLE[:index]:
            upstream.update(read_json(config.work_dir / f"{earlier.name}.done.json")["outputs"])
        work = tmp_path / "work"
        work.mkdir()
        for rel in upstream:
            if any(fnmatch(rel, pattern) for pattern in phase.reads):
                (work / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(config.work_dir / rel, work / rel)
        outputs, _ = phase.fn(Pipeline(replace(config, work_dir=work)))
        cold = read_json(config.work_dir / f"{phase.name}.done.json")["outputs"]
        assert {str(p.relative_to(work)): sha256_file(p) for p in outputs} == {
            rel: digest for rel, digest in cold.items() if rel != phase.sidecar
        }

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


class TestInMemoryHandoff:
    """Within a run, a phase hands what it wrote to later phases in memory."""

    def test_cold_run_parses_none_of_its_outputs(self, tmp_path, monkeypatch):
        """With the reader of each handed-off file raising, as the pipeline
        binds it, a cold run on a fresh workspace still completes."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)

        def refuse(path, *args):
            raise AssertionError(f"a cold run parsed {path}")

        monkeypatch.setattr(pipeline, "read_corpus", refuse)
        monkeypatch.setattr(pipeline.dedup_mod, "read_clusters", refuse)
        monkeypatch.setattr(pipeline.quality_mod, "read_annotations", refuse)
        monkeypatch.setattr(pipeline.sampling_mod, "read_weights", refuse)
        report = run_pipeline(PipelineConfig.from_dict(raw))
        assert all(report["phases_executed"].values())
        assert report["reconciliation"]["ok"]

    def test_held_only_while_a_later_phase_reads_it(self, tmp_path, monkeypatch):
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        held_at = {}

        def spy(phase):
            def fn(pipe):
                held_at[phase.name] = sorted(pipe._held)
                return phase.fn(pipe)
            return replace(phase, fn=fn)

        monkeypatch.setattr(pipeline, "PHASE_TABLE", tuple(map(spy, pipeline.PHASE_TABLE)))
        pipe = Pipeline(PipelineConfig.from_dict(raw))
        pipe.run()
        assert held_at == {
            "ingest": [],
            "dedup": ["corpus.jsonl"],
            "quality": ["clusters.jsonl", "corpus.jsonl"],
            "sampling": ["annotated.jsonl", "clusters.jsonl", "corpus.jsonl"],
            "curriculum": ["annotated.jsonl", "clusters.jsonl", "corpus.jsonl", "weights.jsonl"],
            "train_prep": [],
        }
        assert pipe._held == {}

    def test_rerun_parses_each_file_once(self, tmp_path, monkeypatch):
        """After a lambda edit, quality is skipped and both sampling and
        curriculum read annotated.jsonl: the rerun parses it once and hands
        it on in memory, like every other file it parses."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        run_pipeline(PipelineConfig.from_dict(raw))
        _swap_lambdas(raw)
        parsed = []

        def counting(real):
            def reader(path, *args):
                parsed.append(Path(path).name)
                return real(path, *args)
            return reader

        monkeypatch.setattr(pipeline, "read_corpus", counting(pipeline.read_corpus))
        for module, name in (
            (pipeline.dedup_mod, "read_clusters"),
            (pipeline.quality_mod, "read_annotations"),
            (pipeline.sampling_mod, "read_weights"),
        ):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert [p for p, ran in rerun["phases_executed"].items() if ran] == list(LATER_PHASES)
        assert sorted(parsed) == ["annotated.jsonl", "clusters.jsonl", "corpus.jsonl"]

    @pytest.mark.parametrize("name", [phase.name for phase in pipeline.PHASE_TABLE[1:]])
    def test_phase_fed_from_files_records_the_cold_digests(self, completed_run, tmp_path, name):
        """Deleting one phase's marker after a cold run reruns that phase
        alone, fed from the files, and it records the output digests that
        the cold run's in-memory inputs gave."""
        config, _ = completed_run
        work = tmp_path / "work"
        shutil.copytree(config.work_dir, work)
        marker = work / f"{name}.done.json"
        cold = read_json(marker)["outputs"]
        marker.unlink()
        rerun = Pipeline(replace(config, work_dir=work)).run()
        assert rerun["phases_executed"] == {p.name: p.name == name for p in pipeline.PHASE_TABLE}
        assert read_json(marker)["outputs"] == cold


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


def test_sampling_report_records_the_configured_lambdas(tmp_path):
    """sampling_report.json's mixture_weights is {signal: lambda} of the
    config, after a cold run and after a rerun with the lambdas swapped."""
    _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
    for edit in (lambda raw: None, _swap_lambdas):
        edit(raw)
        run_pipeline(PipelineConfig.from_dict(raw))
        sidecar = read_json(Path(raw["work_dir"]) / "sampling_report.json")
        assert sidecar["mixture_weights"] == {
            p["signal"]: p["lambda"] for p in raw["sampling"]["policies"]
        }



@pytest.mark.parametrize("schedule", [{}, None], ids=["empty", "null"])
def test_unset_lr_schedule_writes_no_schedule_csv(completed_run, tmp_path, schedule):
    """An empty or null train_prep.lr_schedule is no schedule: train_prep
    reruns alone and neither writes nor records schedule.csv."""
    config, _ = completed_run
    work = tmp_path / "work"
    shutil.copytree(config.work_dir, work)
    (work / "schedule.csv").unlink()
    raw = dict(read_json(config.work_dir.parent / "config.json"), work_dir=str(work))
    raw["train_prep"] = dict(raw["train_prep"], lr_schedule=schedule)
    config = PipelineConfig.from_dict(raw)
    assert config.train_prep.lr_schedule is None
    rerun = run_pipeline(config)
    assert [p for p, ran in rerun["phases_executed"].items() if ran] == ["train_prep"]
    assert not (work / "schedule.csv").exists()
    assert "schedule.csv" not in read_json(work / "train_prep.done.json")["outputs"]

class TestWorkersKey:
    def test_workers_key_starts_no_process(self, tmp_path, monkeypatch):
        """Every phase runs in the calling process: with os.fork raising, a
        config carrying "workers": 2 runs and writes what one without it does."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)

        def no_fork():
            raise OSError("the pipeline must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        reports = []
        for name, extra in (("with-key", {"workers": 2}), ("without", {})):
            config = dict(raw, work_dir=str(tmp_path / name), **extra)
            reports.append(strip_timing(run_pipeline(PipelineConfig.from_dict(config))))
        assert reports[0]["reconciliation"]["ok"]
        assert reports[0] == reports[1]
        assert work_files(tmp_path / "with-key") == work_files(tmp_path / "without")


class TestPathIndependence:
    def test_science_artifacts_do_not_depend_on_the_workspace_path(self, tmp_path):
        """Criterion 08's workspace, built under two directory names with
        absolute config paths. Every work file is the same: no sidecar lists
        a path, and every phase key is path-free."""
        outputs = []
        for name in ("one", "two"):
            config_path, raw = make_pipeline_workspace(
                tmp_path / name, n_docs=1200, seed=8, total_tokens=120_000
            )
            assert Path(raw["input"][0]).is_absolute()
            run_pipeline(PipelineConfig.from_file(config_path))
            outputs.append(work_files(Path(raw["work_dir"])))
        for rel in ("corpus.jsonl", "clusters.jsonl", "classifiers/web.clf", "annotated.jsonl",
                    "weights.jsonl", "ingest_report.json", "quality_report.json"):
            assert rel in outputs[0]
        assert any(rel.startswith("stages/") for rel in outputs[0])
        assert any(rel.startswith("packed/") for rel in outputs[0])
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["sampling"]["policies"][1].update(signal="clf:nope"),
        lambda raw: raw["curriculum"]["stages"][0].update(gating_signal="clf:nope"),
        lambda raw: raw["curriculum"]["stages"][2].update(mixture={"prose": "0.3", "other": "0.7"}),
        lambda raw: raw["quality"]["classifiers"].append(
            dict(raw["quality"]["classifiers"][0], hyper={"seed": 7})),
        lambda raw: raw["quality"]["domain_classifiers"][1].update(model_id="web"),
        lambda raw: raw["quality"]["domain_classifiers"][1].update(tag="code"),
        lambda raw: [p.update({"lambda": lam}) for p, lam in zip(raw["sampling"]["policies"], (1.5, -0.5))],
        lambda raw: raw["sampling"]["policies"][0].update(signal="clf:web"),
        lambda raw: raw["quality"]["classifiers"][0]["hyper"].update(seed=2**64),
    ], ids=["policy-signal", "gating-signal", "mixture-group", "repeated-model-id",
            "model-id-across-lists", "repeated-domain-tag", "negative-lambda",
            "repeated-policy-signal", "hyper-seed-over-u64"])
    def test_unknown_signal_or_repeated_id_exits_1_before_ingest(self, tmp_path, capsys, edit):
        """A signal no classifier writes, two classifiers that would write one
        signal or model file, a policy that would enter the mixture twice or
        with a negative lambda, or a seed a classifier file cannot hold, is a
        config error found before any phase."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=60)
        edit(raw)
        bad_path = tmp_path / "bad_refs.json"
        bad_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(bad_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (Path(raw["work_dir"]) / "ingest.done.json").exists()

    @pytest.mark.parametrize("train_prep", [
        {"vocab_size": 0},
        {"vocab_size": 2**40},
        {"sequence_length": 8192, "rope_stage": "pretrain"},
    ], ids=["vocab-size-0", "vocab-size-over-u32", "longer-than-rope-stage"])
    def test_train_prep_out_of_range_exits_1_before_ingest(self, tmp_path, capsys, train_prep):
        """Token ids are packed as u32 and the packed sequences must fit the
        RoPE stage, so both are config errors found before any phase."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=60)
        raw["train_prep"].update(train_prep)
        bad_path = tmp_path / "bad_train_prep.json"
        bad_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(bad_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (Path(raw["work_dir"]) / "ingest.done.json").exists()

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

    def test_moved_workspace_with_absolute_paths_reruns_nothing(self, tmp_path):
        """Phase keys hold file digests, not paths: a workspace copied to
        another directory, its config's paths rewritten to the copy and the
        original removed, reruns no phase."""
        root, moved = tmp_path / "one", tmp_path / "two"
        _, raw = make_pipeline_workspace(root, n_docs=200, total_tokens=20_000)
        sources = [raw["input"][0], raw["quality"]["classifiers"][0]["positives"]]
        assert all(Path(p).is_absolute() and Path(p).is_relative_to(root) for p in sources)
        run_pipeline(PipelineConfig.from_dict(raw))
        shutil.copytree(root, moved)
        shutil.rmtree(root)
        raw = json.loads(json.dumps(raw).replace(str(root), str(moved)))
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert not any(rerun["phases_executed"].values())
        assert rerun["reconciliation"]["ok"]

    def test_dedup_keyed_before_shingle_hash_versions_reruns(self, tmp_path):
        """A dedup marker whose key names no shingle hash version, as every
        key did before shingle hashes were composed from word hashes, holds
        clusters of the old hash: a rerun must not take them as fresh."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        run_pipeline(PipelineConfig.from_dict(raw))
        work = Path(raw["work_dir"])
        marker = read_json(work / "dedup.done.json")
        marker["config_hash"] = hash128_hex(dumps({
            "phase": "dedup",
            "config": {"dedup": raw["dedup"]},
            "files": {},
            "upstream": {"corpus.jsonl": sha256_file(work / "corpus.jsonl")},
        }).encode("utf-8"))
        write_json(work / "dedup.done.json", marker)
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert rerun["phases_executed"]["ingest"] is False
        assert rerun["phases_executed"]["dedup"] is True
        assert rerun["phases"]["dedup"]["shingle_hash_version"] == dedup.SHINGLE_HASH_VERSION

    def test_signature_version_is_in_the_dedup_key(self, tmp_path, monkeypatch):
        """A finished workspace skips dedup while the signer is unchanged and
        reruns it, reporting it executed, under another SIGNATURE_VERSION."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        first = run_pipeline(PipelineConfig.from_dict(raw))
        assert first["phases"]["dedup"]["signature_version"] == dedup.SIGNATURE_VERSION == 2
        unchanged = run_pipeline(PipelineConfig.from_dict(raw))
        assert not any(unchanged["phases_executed"].values())
        monkeypatch.setattr(dedup, "SIGNATURE_VERSION", dedup.SIGNATURE_VERSION + 1)
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert rerun["phases_executed"]["ingest"] is False
        assert rerun["phases_executed"]["dedup"] is True
        assert rerun["phases"]["dedup"]["signature_version"] == 3

    def test_training_version_is_in_the_quality_key(self, tmp_path, monkeypatch):
        """Quality reruns, and dedup does not, under another TRAINING_VERSION."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        first = run_pipeline(PipelineConfig.from_dict(raw))
        assert first["phases"]["quality"]["training_version"] == classifier.TRAINING_VERSION == 2
        monkeypatch.setattr(classifier, "TRAINING_VERSION", 3)
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert rerun["phases_executed"]["dedup"] is False
        assert rerun["phases_executed"]["quality"] is True
        assert rerun["phases"]["quality"]["training_version"] == 3

    def test_ingest_sidecar_keyed_before_version_1_is_rewritten(self, tmp_path, monkeypatch):
        """Ingest sidecars before version 1 listed the dump paths: a
        workspace keyed at version 0 reruns ingest, and only ingest."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        ingest, *later = pipeline.PHASE_TABLE
        monkeypatch.setattr(pipeline, "PHASE_TABLE", (replace(ingest, version=lambda: 0), *later))
        run_pipeline(PipelineConfig.from_dict(raw))
        monkeypatch.undo()
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert rerun["phases_executed"] == {"ingest": True, **{p.name: False for p in later}}
        assert "inputs" not in rerun["phases"]["ingest"]

    def test_reordered_mixture_reruns_curriculum(self, tmp_path):
        """A document joins the first mixture group, in config order, whose
        tag fires, so reordering the groups changes the shards: a rerun
        executes curriculum and train_prep and matches a cold run."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=400, total_tokens=40_000)
        for stage in raw["curriculum"]["stages"]:
            stage["mixture"] = {"code": "0.3", "math": "0.2", "other": "0.5"}
        run_pipeline(PipelineConfig.from_dict(raw))
        before = work_files(Path(raw["work_dir"]))
        for stage in raw["curriculum"]["stages"]:
            stage["mixture"] = {"math": "0.2", "code": "0.3", "other": "0.5"}
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        cold = run_pipeline(PipelineConfig.from_dict(dict(raw, work_dir=str(tmp_path / "cold"))))
        assert [p for p, ran in rerun["phases_executed"].items() if ran] == ["curriculum", "train_prep"]
        assert strip_timing(rerun["phases"]) == strip_timing(cold["phases"])
        after = work_files(Path(raw["work_dir"]))
        assert after == work_files(tmp_path / "cold")
        assert any(before[rel] != after[rel] for rel in after if rel.startswith("stages/"))

    def test_spelled_out_defaults_rerun_nothing(self, tmp_path):
        """The keys hash the typed values, so writing a default, or another
        spelling of a value, into the config changes no key."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        run_pipeline(PipelineConfig.from_dict(raw))
        raw["dedup"]["jaccard_threshold"] = 0.8
        raw["quality"]["classifiers"][0]["hyper"]["lr"] = 0.5
        raw["curriculum"]["stages"][0].update(token_share="3/20", quality_threshold=0, description="")
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert not any(rerun["phases_executed"].values())

    def test_unicode_version_is_in_every_key(self, tmp_path, monkeypatch):
        """Ingest records the Unicode database version, and a finished
        workspace reruns every phase under another one."""
        _, raw = make_pipeline_workspace(tmp_path, n_docs=200, total_tokens=20_000)
        first = run_pipeline(PipelineConfig.from_dict(raw))
        assert first["phases"]["ingest"]["unidata_version"] == unicodedata.unidata_version
        monkeypatch.setattr(unicodedata, "unidata_version", "0.0.0")
        rerun = run_pipeline(PipelineConfig.from_dict(raw))
        assert all(rerun["phases_executed"].values())
        assert rerun["phases"]["ingest"]["unidata_version"] == "0.0.0"

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
