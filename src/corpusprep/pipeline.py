"""End-to-end orchestration: ingest -> dedup -> quality -> sampling ->
curriculum -> train-prep, with resumable phases and a reconciling report.

Every phase is declared once, in PHASE_TABLE: its function, the config
slice it reads, the files outside the work directory it reads, and the
work-directory files it reads from earlier phases. A phase writes its
own artifacts plus a sidecar report, and its done-marker records the
sha256 of each output. The phase's key hashes its name, its config
slice, the contents of its outside files and the upstream outputs'
recorded digests. On re-run a phase is skipped when its marker holds the
current key and every recorded output still verifies, so an edit reruns
only the phases that read what changed, and a rerun phase whose outputs
come out byte-identical stops the reruns below it. Outputs are fully
determined by (inputs, config, master_seed); the worker count only
shards work.
"""

from __future__ import annotations

import glob
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Callable

from . import classifier as clf_mod
from . import curriculum as cur_mod
from . import dedup as dedup_mod
from . import quality as quality_mod
from . import sampling as sampling_mod
from .corpus import Corpus, ingest_files, read_corpus, write_corpus
from .errors import ConfigError, IntegrityError, PhaseError
from .hashing import hash128_hex, sha256_file
from .jsonl import atomic_write, dumps, read_json, read_jsonl, write_json, write_jsonl
from .packing import pack_documents, write_packed
from .rope import rope_config
from .schedule import LrScheduleSpec, dump_csv
from .tokenizer import WhitespaceTokenizer

TIMING_KEYS = ("timing", "generated_at", "wall_clock_s")


@dataclass
class ClassifierSpec:
    model_id: str
    path: str = ""  # pre-trained model file
    positives: str = ""  # or train from these sources
    negatives: str = ""
    hyper: clf_mod.ClassifierHyper = field(default_factory=clf_mod.ClassifierHyper)
    tag: str = ""  # set for domain classifiers

    @classmethod
    def from_dict(cls, rec: dict) -> "ClassifierSpec":
        hyper_rec = rec.get("hyper", {})
        hyper = clf_mod.ClassifierHyper(
            orders=tuple(hyper_rec.get("orders", (1, 2))),
            max_features=int(hyper_rec.get("max_features", 1 << 18)),
            epochs=int(hyper_rec.get("epochs", 25)),
            lr=float(hyper_rec.get("lr", 0.5)),
            seed=int(hyper_rec.get("seed", 0)),
        )
        spec = cls(
            model_id=str(rec.get("model_id", rec.get("tag", ""))),
            path=str(rec.get("path", "")),
            positives=str(rec.get("positives", "")),
            negatives=str(rec.get("negatives", "")),
            hyper=hyper,
            tag=str(rec.get("tag", "")),
        )
        if not spec.model_id:
            raise ConfigError("classifier spec needs a model_id or tag")
        if not spec.path and not (spec.positives and spec.negatives):
            raise ConfigError(
                f"classifier '{spec.model_id}' needs either a path or "
                "positives+negatives training sources"
            )
        return spec


@dataclass
class PolicySpec:
    policy: sampling_mod.UpsamplePolicy
    mixture_weight: float

    @classmethod
    def from_dict(cls, rec: dict) -> "PolicySpec":
        policy = sampling_mod.UpsamplePolicy(
            signal_name=str(rec["signal"]),
            transform=str(rec.get("transform", "identity")),
            threshold=float(rec.get("threshold", 0.0)),
            boost=float(rec.get("boost", 1.0)),
            cap=int(rec.get("cap", 6)),
        )
        policy.validate()
        return cls(policy=policy, mixture_weight=float(rec["lambda"]))


@dataclass
class PipelineConfig:
    raw: dict
    input_paths: list[str]
    work_dir: Path
    master_seed: int
    workers: int
    dedup: dedup_mod.DedupConfig
    heuristics: quality_mod.HeuristicThresholds
    tag_threshold: float
    classifiers: list[ClassifierSpec]
    domain_classifiers: list[ClassifierSpec]
    policies: list[PolicySpec]
    plan: cur_mod.StagePlan
    shard_tokens: int
    sequence_length: int
    rope_stage: str
    vocab_size: int
    lr_schedule: LrScheduleSpec | None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        try:
            dedup_cfg = dedup_mod.DedupConfig.from_dict(raw.get("dedup", {}))
            q = raw.get("quality", {})
            h = q.get("heuristics", {})
            heuristics = quality_mod.HeuristicThresholds(
                min_words=int(h.get("min_words", 20)),
                min_mean_word_length=float(h.get("min_mean_word_length", 2.0)),
                max_mean_word_length=float(h.get("max_mean_word_length", 12.0)),
                min_alpha_ratio=float(h.get("min_alpha_ratio", 0.6)),
                max_line_repeat_ratio=float(h.get("max_line_repeat_ratio", 0.5)),
            )
            classifiers = [ClassifierSpec.from_dict(r) for r in q.get("classifiers", [])]
            domain = [ClassifierSpec.from_dict(r) for r in q.get("domain_classifiers", [])]
            policies = [PolicySpec.from_dict(r) for r in raw.get("sampling", {}).get("policies", [])]
            cur = raw.get("curriculum", {})
            if "stages" in cur:
                plan = cur_mod.StagePlan.from_dict(cur)
            else:
                plan = cur_mod.paper_shaped_plan(int(cur.get("total_token_budget", 8_000_000)))
            tp = raw.get("train_prep", {})
            lr_rec = tp.get("lr_schedule")
            return cls(
                raw=raw,
                input_paths=list(raw.get("input", [])),
                work_dir=Path(raw.get("work_dir", "work")),
                master_seed=int(raw.get("master_seed", 0)),
                workers=int(raw.get("workers", 1)),
                dedup=dedup_cfg,
                heuristics=heuristics,
                tag_threshold=float(q.get("tag_threshold", 0.5)),
                classifiers=classifiers,
                domain_classifiers=domain,
                policies=policies,
                plan=plan,
                shard_tokens=int(cur.get("shard_tokens", 1_000_000)),
                sequence_length=int(tp.get("sequence_length", 4_096)),
                rope_stage=str(tp.get("rope_stage", "pretrain")),
                vocab_size=int(tp.get("vocab_size", 102_400)),
                lr_schedule=LrScheduleSpec.from_dict(lr_rec) if lr_rec else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad pipeline config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        raw = read_json(path)
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(raw)

    def validate(self) -> None:
        """Validate every sub-config before any phase runs."""
        if not self.input_paths:
            raise ConfigError("config needs at least one input path")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.dedup.validate()
        if not self.classifiers:
            raise ConfigError("at least one quality classifier is required")
        for spec in self.classifiers + self.domain_classifiers:
            spec.hyper.validate()
        if not self.policies:
            raise ConfigError("at least one sampling policy is required")
        lambdas = [p.mixture_weight for p in self.policies]
        if abs(sum(lambdas) - 1.0) > 1e-9:
            raise ConfigError(f"sampling lambdas must sum to 1, got {sum(lambdas)}")
        cur_mod.ensure_valid_plan(self.plan)
        rope_config(self.rope_stage)
        if self.lr_schedule is not None:
            self.lr_schedule.validate()
        if self.sequence_length < 1 or self.shard_tokens < 1:
            raise ConfigError("sequence_length and shard_tokens must be >= 1")

    def resolve_inputs(self) -> list[str]:
        paths: list[str] = []
        for pattern in self.input_paths:
            hits = sorted(glob.glob(pattern))
            paths.extend(hits if hits else [pattern])
        missing = [p for p in paths if not Path(p).is_file()]
        if missing:
            raise ConfigError(f"input files not readable: {missing}")
        return paths


def strip_timing(obj: Any) -> Any:
    """Remove volatile fields so reports can be compared across runs."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class Pipeline:
    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.work_dir = config.work_dir

    # -- phase plumbing ------------------------------------------------

    def _phase_key(self, phase: "Phase", upstream: dict[str, str]) -> str:
        """Hash of everything `phase` reads; `upstream` maps each earlier
        output's work-relative path to its recorded sha256."""
        raw = self.config.raw
        return hash128_hex(dumps({
            "phase": phase.name,
            "config": {key: _config_value(raw, key) for key in phase.config_keys},
            "files": {path: sha256_file(path) for path in phase.outside_files(self.config)},
            "upstream": {
                rel: digest for rel, digest in upstream.items()
                if any(fnmatch(rel, pattern) for pattern in phase.reads)
            },
        }).encode("utf-8"))

    def _run_phase(
        self, phase: "Phase", upstream: dict[str, str], force: bool
    ) -> tuple[bool, dict]:
        """Run or skip one phase; returns (executed, recorded output digests)."""
        marker = self.work_dir / f"{phase.name}.done.json"
        try:
            key = self._phase_key(phase, upstream)
            if not force and marker.is_file():
                recorded = read_json(marker)
                digests = recorded.get("outputs", {})
                if recorded.get("config_hash") == key and not _bad_outputs(self.work_dir, digests):
                    return False, digests
            started = time.monotonic()
            outputs, sidecar = phase.fn(self)
            out_report = self.work_dir / phase.sidecar
            write_json(out_report, {"config_hash": key, **sidecar})
            elapsed = time.monotonic() - started
        except Exception as exc:  # noqa: BLE001 - phase boundary
            raise PhaseError(phase.name, exc) from exc
        digests = {
            str(p.relative_to(self.work_dir)): sha256_file(p)
            for p in sorted(outputs + [out_report])
        }
        write_json(marker, {"config_hash": key, "outputs": digests, "wall_clock_s": elapsed})
        return True, digests

    def run(self, force: bool = False) -> dict:
        self.config.resolve_inputs()  # unreadable inputs abort before phase 1
        self.work_dir.mkdir(parents=True, exist_ok=True)
        executed: dict[str, bool] = {}
        upstream: dict[str, str] = {}
        for phase in PHASE_TABLE:
            executed[phase.name], digests = self._run_phase(phase, upstream, force)
            upstream.update(digests)
        # Each phase has just verified or hashed its outputs.
        report = _assemble_report(self.work_dir)
        report["phases_executed"] = executed
        write_json(self.work_dir / "report.json", report)
        return report

    # -- phases: each returns (artifacts written, sidecar report fields) --

    def _phase_ingest(self) -> tuple[list[Path], dict]:
        paths = self.config.resolve_inputs()
        corpus, report = ingest_files(paths, workers=self.config.workers)
        out_corpus = self.work_dir / "corpus.jsonl"
        write_corpus(corpus, out_corpus)
        return [out_corpus], {"inputs": paths, **report.to_dict()}

    def _phase_dedup(self) -> tuple[list[Path], dict]:
        corpus = read_corpus(self.work_dir / "corpus.jsonl")
        clusters, _ = dedup_mod.run_dedup(
            corpus, self.config.dedup, workers=self.config.workers
        )
        out_clusters = self.work_dir / "clusters.jsonl"
        dedup_mod.write_clusters(clusters, out_clusters)

        sizes: dict[int, int] = {}
        for c in clusters:
            sizes[len(c.member_ids)] = sizes.get(len(c.member_ids), 0) + 1
        retained_total = sum(len(c.retained_ids) for c in clusters)
        n_docs = len(corpus)
        return [out_clusters], {
            "documents": n_docs,
            "clusters": len(clusters),
            "duplicate_rate": (n_docs - len(clusters)) / n_docs if n_docs else 0.0,
            "retained_total": retained_total,
            "cluster_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        }

    def _load_training_texts(self, path: str) -> list[str]:
        texts = []
        for rec in read_jsonl(path):
            if isinstance(rec, dict) and isinstance(rec.get("text"), str):
                texts.append(rec["text"])
        if not texts:
            raise ConfigError(f"no text records in training source {path}")
        return texts

    def _obtain_classifier(self, spec: ClassifierSpec, out_dir: Path) -> tuple[clf_mod.QualityClassifier, Path]:
        if spec.path:
            model = clf_mod.QualityClassifier.load(spec.path)
        else:
            model = clf_mod.train_classifier(
                self._load_training_texts(spec.positives),
                self._load_training_texts(spec.negatives),
                hyper=spec.hyper,
                model_id=spec.model_id,
                source_name=spec.positives,
            )
        out_path = out_dir / f"{spec.model_id}.clf"
        model.save(out_path)
        return model, out_path

    def _phase_quality(self) -> tuple[list[Path], dict]:
        corpus = read_corpus(self.work_dir / "corpus.jsonl")
        clusters = dedup_mod.read_clusters(self.work_dir / "clusters.jsonl")
        clf_dir = self.work_dir / "classifiers"
        clf_dir.mkdir(parents=True, exist_ok=True)
        outputs: list[Path] = []

        ensemble = []
        for spec in self.config.classifiers:
            model, path = self._obtain_classifier(spec, clf_dir)
            ensemble.append(model)
            outputs.append(path)
        domain = {}
        for spec in self.config.domain_classifiers:
            model, path = self._obtain_classifier(spec, clf_dir)
            domain[spec.tag or spec.model_id] = model
            outputs.append(path)

        annotated, drops = quality_mod.annotate(
            corpus,
            clusters,
            ensemble,
            domain,
            thresholds=self.config.heuristics,
            tag_threshold=self.config.tag_threshold,
        )
        out_annotated = self.work_dir / "annotated.jsonl"
        write_corpus(annotated, out_annotated)
        out_drops = self.work_dir / "drop_report.jsonl"
        quality_mod.write_drop_report(drops, out_drops)

        reasons: dict[str, int] = {}
        for d in drops:
            for r in d.reasons:
                reasons[r] = reasons.get(r, 0) + 1
        return outputs + [out_annotated, out_drops], {
            "annotated": len(annotated),
            "dropped": len(drops),
            "drop_reasons": dict(sorted(reasons.items())),
            "classifiers": sorted(m.model_id for m in ensemble),
            "domain_tags": sorted(domain),
            "signal_quantiles": _signal_quantiles(annotated),
            "classifier_train_accuracy": {
                m.model_id: m.training_meta.get("train_accuracy") for m in ensemble
            },
        }

    def _phase_sampling(self) -> tuple[list[Path], dict]:
        annotated = read_corpus(self.work_dir / "annotated.jsonl")
        maps = [
            sampling_mod.build_weight_map(annotated, p.policy)
            for p in self.config.policies
        ]
        lambdas = [p.mixture_weight for p in self.config.policies]
        merged = sampling_mod.merge_distributions(maps, lambdas)
        out_weights = self.work_dir / "weights.jsonl"
        write_jsonl(out_weights, sampling_mod.weight_rows(annotated, maps, merged))
        return [out_weights], {
            "documents": len(annotated),
            "mixture_weights": merged.mixture_weights,
        }

    def _merged_from_disk(self) -> sampling_mod.MergedDistribution:
        probabilities = {}
        for rec in read_jsonl(self.work_dir / "weights.jsonl"):
            probabilities[rec["doc_id"]] = rec["probability"]
        lambdas = {
            p.policy.signal_name: p.mixture_weight for p in self.config.policies
        }
        return sampling_mod.MergedDistribution(
            probabilities=probabilities, mixture_weights=lambdas
        )

    def emit_stage(
        self, stage: cur_mod.StageSpec, plan: cur_mod.StagePlan, annotated: Corpus,
        clusters: list[dedup_mod.DuplicateCluster], merged: sampling_mod.MergedDistribution,
    ) -> tuple[set[str], cur_mod.ShardManifest]:
        """Emit one stage's shards under stages/<id>; returns (eligible ids, manifest)."""
        eligible = cur_mod.stage_eligible(annotated, stage)
        manifest = cur_mod.emit_stage(
            stage,
            plan,
            sampling_mod.restrict_distribution(merged, eligible),
            annotated,
            sampling_mod.restrict_clusters(clusters, eligible),
            WhitespaceTokenizer(self.config.vocab_size),
            self.config.master_seed,
            self.work_dir / "stages" / stage.stage_id,
            shard_tokens=self.config.shard_tokens,
        )
        return eligible, manifest

    def _phase_curriculum(self) -> tuple[list[Path], dict]:
        annotated = read_corpus(self.work_dir / "annotated.jsonl")
        clusters = dedup_mod.read_clusters(self.work_dir / "clusters.jsonl")
        merged = self._merged_from_disk()
        plan = cur_mod.ensure_valid_plan(self.config.plan)
        budgets = cur_mod.stage_budgets(plan)

        outputs: list[Path] = []
        stage_summaries = {}
        for stage in plan.stages:
            stage_dir = self.work_dir / "stages" / stage.stage_id
            eligible, manifest = self.emit_stage(stage, plan, annotated, clusters, merged)
            outputs.append(stage_dir / "manifest.json")
            outputs.extend(stage_dir / s["file"] for s in manifest.shards)
            stage_summaries[stage.stage_id] = {
                "budget": budgets[stage.stage_id],
                "eligible_docs": len(eligible),
                "total_tokens": manifest.total_tokens,
                "max_doc_tokens": manifest.max_doc_tokens,
                "drawn_docs": manifest.drawn_docs,
                "group_tokens": dict(sorted(manifest.group_tokens.items())),
                "shards": len(manifest.shards),
            }
        return outputs, {
            "total_token_budget": plan.total_token_budget,
            "stages": stage_summaries,
        }

    def _phase_train_prep(self) -> tuple[list[Path], dict]:
        outputs: list[Path] = []
        packed_dir = self.work_dir / "packed"
        packed_dir.mkdir(parents=True, exist_ok=True)
        tokenizer = WhitespaceTokenizer(self.config.vocab_size)
        seq_len = self.config.sequence_length

        packed_summary = {}
        manifest_lines = []
        for stage in self.config.plan.stages:
            stage_dir = self.work_dir / "stages" / stage.stage_id
            manifest = cur_mod.read_manifest(stage_dir / "manifest.json")
            stream = []
            for shard in manifest.shards:
                for rec in read_jsonl(stage_dir / shard["file"]):
                    stream.append((rec["doc_id"], rec["token_ids"]))
            sequences = pack_documents(stream, seq_len, tokenizer.pad_id)
            out_bin = packed_dir / f"stage_{stage.stage_id}.bin"
            write_packed(out_bin, sequences, seq_len, tokenizer.pad_id)
            outputs.append(out_bin)
            non_pad = sum(s.pad_from for s in sequences)
            packed_summary[stage.stage_id] = {
                "sequences": len(sequences),
                "non_pad_tokens": non_pad,
                "input_tokens": manifest.total_tokens,
            }
            manifest_lines.append(
                f"{out_bin.name}\tseq_len={seq_len}\tpad_id={tokenizer.pad_id}"
                f"\tsequences={len(sequences)}\tsha256={sha256_file(out_bin)}"
            )
        out_manifest = packed_dir / "manifest.txt"
        with atomic_write(out_manifest) as fh:
            fh.write("\n".join(manifest_lines) + "\n")
        outputs.append(out_manifest)

        out_rope = self.work_dir / "rope.json"
        write_json(out_rope, asdict(rope_config(self.config.rope_stage)))
        outputs.append(out_rope)

        if self.config.lr_schedule is not None:
            out_csv = self.work_dir / "schedule.csv"
            stride = max(1, self.config.lr_schedule.end_step // 10_000)
            dump_csv(self.config.lr_schedule, out_csv, stride=stride)
            outputs.append(out_csv)

        return outputs, {
            "sequence_length": seq_len,
            "rope_stage": self.config.rope_stage,
            "stages": packed_summary,
        }


def _config_value(raw: dict, dotted: str) -> Any:
    """The raw config value at a dotted key such as "train_prep.vocab_size"."""
    for part in dotted.split("."):
        raw = raw.get(part) if isinstance(raw, dict) else None
    return raw


def _classifier_sources(config: PipelineConfig) -> list[str]:
    """The files the quality phase loads: each model file or training pair."""
    return [
        path
        for spec in config.classifiers + config.domain_classifiers
        for path in ((spec.path,) if spec.path else (spec.positives, spec.negatives))
    ]


@dataclass(frozen=True)
class Phase:
    """One pipeline phase and everything it reads.

    `config_keys` are dotted keys into the raw config; the slice they
    select may be wider than the phase needs, never narrower. `reads`
    are glob patterns over the work-relative outputs of earlier phases.
    """

    name: str
    fn: Callable[[Pipeline], tuple[list[Path], dict]]
    config_keys: tuple[str, ...]
    reads: tuple[str, ...] = ()
    outside_files: Callable[[PipelineConfig], list[str]] = lambda config: []

    @property
    def sidecar(self) -> str:
        return f"{self.name}_report.json"


PHASE_TABLE = (
    Phase("ingest", Pipeline._phase_ingest, ("input",),
          outside_files=PipelineConfig.resolve_inputs),
    Phase("dedup", Pipeline._phase_dedup, ("dedup",), reads=("corpus.jsonl",)),
    Phase("quality", Pipeline._phase_quality, ("quality",),
          reads=("corpus.jsonl", "clusters.jsonl"),
          outside_files=_classifier_sources),
    Phase("sampling", Pipeline._phase_sampling, ("sampling",), reads=("annotated.jsonl",)),
    Phase("curriculum", Pipeline._phase_curriculum,
          ("curriculum", "master_seed", "sampling", "train_prep.vocab_size"),
          reads=("annotated.jsonl", "clusters.jsonl", "weights.jsonl")),
    Phase("train_prep", Pipeline._phase_train_prep, ("train_prep", "curriculum"),
          reads=("stages/*",)),
)


def _signal_quantiles(annotated: Corpus) -> dict[str, list[float]]:
    from .quality import signals_from_extra

    values: dict[str, list[float]] = {}
    for doc in annotated:
        for name, val in signals_from_extra(doc.extra).signals.items():
            values.setdefault(name, []).append(val)
    out = {}
    for name in sorted(values):
        vs = sorted(values[name])
        out[name] = [
            vs[0],
            vs[len(vs) // 4],
            vs[len(vs) // 2],
            vs[(3 * len(vs)) // 4],
            vs[-1],
        ]
    return out


def run_pipeline(config: PipelineConfig, force: bool = False) -> dict:
    return Pipeline(config).run(force=force)


# -- report -------------------------------------------------------------


def _bad_outputs(work_dir: Path, outputs: dict[str, str]) -> list[str]:
    """Names of recorded outputs that are missing or fail their sha256."""
    bad = []
    for rel, digest in outputs.items():
        path = work_dir / rel
        if not path.is_file():
            bad.append(f"{rel} (missing)")
        elif sha256_file(path) != digest:
            bad.append(f"{rel} (checksum mismatch)")
    return bad


def build_report(work_dir: str | Path) -> dict:
    """Verify every output the done-markers record, then reassemble the
    pipeline report from on-disk artifacts only."""
    work_dir = Path(work_dir)
    corrupted = [
        bad for marker in _markers(work_dir).values()
        for bad in _bad_outputs(work_dir, marker.get("outputs", {}))
    ]
    if corrupted:
        raise IntegrityError(
            f"artifacts failed verification: {', '.join(corrupted)}", corrupted
        )
    return _assemble_report(work_dir)


def _markers(work_dir: Path) -> dict[str, dict]:
    """Each present done-marker, by phase name, in table order."""
    paths = {phase.name: work_dir / f"{phase.name}.done.json" for phase in PHASE_TABLE}
    return {name: read_json(path) for name, path in paths.items() if path.is_file()}


def _assemble_report(work_dir: Path) -> dict:
    """The report from the sidecars and markers, without verifying outputs."""
    sections: dict[str, Any] = {}
    present = []
    for phase in PHASE_TABLE:
        path = work_dir / phase.sidecar
        if path.is_file():
            sections[phase.name] = read_json(path)
            present.append(phase.name)
        else:
            sections[phase.name] = {"absent": True}
    if not present:
        sidecars = [phase.sidecar for phase in PHASE_TABLE]
        raise IntegrityError(
            "no completed phases found; missing artifacts: " + ", ".join(sidecars),
            sidecars,
        )

    return {
        "config_hash": next(
            (sections[p]["config_hash"] for p in present if "config_hash" in sections[p]),
            None,
        ),
        "generated_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "phases": sections,
        "reconciliation": _reconcile(sections),
        "timing": {
            name: marker.get("wall_clock_s", 0.0)
            for name, marker in _markers(work_dir).items()
        },
    }


def _reconcile(sections: dict) -> dict:
    """Count-reconciliation invariants across completed phases."""
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    ingest = sections.get("ingest", {})
    ded = sections.get("dedup", {})
    qual = sections.get("quality", {})
    samp = sections.get("sampling", {})
    cur = sections.get("curriculum", {})
    prep = sections.get("train_prep", {})

    if "accepted" in ingest:
        total = ingest["accepted"] + ingest.get("rejected_total", 0)
        check(
            "ingest_counts",
            total == ingest["input_lines"],
            f"accepted {ingest['accepted']} + rejected {ingest.get('rejected_total', 0)} "
            f"== input {ingest['input_lines']}",
        )
    if "documents" in ded and "accepted" in ingest:
        check(
            "dedup_in_matches_ingest_out",
            ded["documents"] == ingest["accepted"],
            f"dedup saw {ded['documents']}, ingest accepted {ingest['accepted']}",
        )
    if "cluster_size_histogram" in ded:
        occ = sum(int(k) * v for k, v in ded["cluster_size_histogram"].items())
        check(
            "cluster_partition",
            occ == ded["documents"],
            f"sum of cluster sizes {occ} == documents {ded['documents']}",
        )
    if "annotated" in qual and "retained_total" in ded:
        check(
            "quality_counts",
            qual["annotated"] + qual["dropped"] == ded["retained_total"],
            f"annotated {qual['annotated']} + dropped {qual['dropped']} "
            f"== retained {ded['retained_total']}",
        )
    if "accepted" in ingest and "retained_total" in ded and "annotated" in qual:
        beyond_retained = ingest["accepted"] - ded["retained_total"]
        available = ingest["accepted"] - qual["dropped"] - beyond_retained
        check(
            "available_to_sampling",
            available == qual["annotated"],
            f"ingested {ingest['accepted']} - dropped {qual['dropped']} - "
            f"duplicates beyond retained {beyond_retained} == annotated {qual['annotated']}",
        )
    if "documents" in samp and "annotated" in qual:
        check(
            "sampling_in_matches_quality_out",
            samp["documents"] == qual["annotated"],
            f"sampling saw {samp['documents']}, quality produced {qual['annotated']}",
        )
    if "stages" in cur:
        for sid, s in cur["stages"].items():
            ok = s["budget"] <= s["total_tokens"] < s["budget"] + max(s["max_doc_tokens"], 1)
            check(
                f"stage_{sid}_budget",
                ok,
                f"tokens {s['total_tokens']} in [budget {s['budget']}, "
                f"budget + max_doc {s['budget'] + s['max_doc_tokens']})",
            )
    if "stages" in prep and "stages" in cur:
        for sid, s in prep["stages"].items():
            ok = s["non_pad_tokens"] == s["input_tokens"]
            check(
                f"packing_conservation_{sid}",
                ok,
                f"non-pad {s['non_pad_tokens']} == emitted {s['input_tokens']}",
            )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}
