"""End-to-end orchestration: ingest -> dedup -> quality -> sampling ->
curriculum -> train-prep, with resumable phases and a reconciling report.
The text is written once, to corpus.jsonl; quality's annotated.jsonl
holds one text-free signal row per surviving document, keyed by doc_id,
and curriculum joins the two.

Every phase is declared once, in PHASE_TABLE: its function, the typed
config values it reads, the files outside the work directory it reads,
and the work-directory files it reads from earlier phases. A phase
writes its own artifacts plus a sidecar report, and its done-marker
records the sha256 of each output. The phase's key hashes its name, its
version, the Unicode database version, its config values without file
paths, the contents of its outside files in order and the upstream
outputs' recorded digests, so a workspace moved with its inputs to
another directory reruns nothing. On re-run a phase is skipped when its
marker holds the current key and every recorded output still verifies,
so an edit reruns only the phases that read what changed, and a rerun
phase whose outputs come out byte-identical stops the reruns below it.
Outputs are fully determined by (inputs, config, master_seed). Every
phase runs in the calling process.

Within one run, a phase hands what it wrote to the later phases in
memory: once corpus.jsonl, clusters.jsonl, annotated.jsonl or
weights.jsonl is written, the pipeline holds the object it was written
from (for weights, the distribution its rows record), and a later phase
loads it from there, parsing the file only when the phase that writes it
was skipped. An object is held until no later phase reads its file, and
never past the end of the run; no phase mutates what it loads.
"""

from __future__ import annotations

import glob
import json
import math
import time
import unicodedata
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fnmatch import fnmatch
from fractions import Fraction
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, TypeVar, get_args, get_origin, get_type_hints

from . import classifier as clf_mod
from . import curriculum as cur_mod
from . import dedup as dedup_mod
from . import quality as quality_mod
from . import sampling as sampling_mod
from .corpus import Corpus, ingest_files, read_corpus, write_corpus
from .errors import ConfigError, IntegrityError, PhaseError
from .hashing import hash128_hex, sha256_file
from .jsonl import atomic_write, dumps, json_key, read_json, read_jsonl, write_json, write_jsonl, write_records
from .packing import pack_shards
from .rope import rope_config
from .schedule import LrScheduleSpec, dump_csv
from .tokenizer import DEFAULT_VOCAB_SIZE, WhitespaceTokenizer

TIMING_KEYS = ("timing", "generated_at", "wall_clock_s")
# Config fields that name a file; a phase key holds only whether each is set.
PATH_KEYS = ("path", "positives", "negatives")
T = TypeVar("T")


def read_config(path: str | Path) -> dict:
    """The JSON object in config file `path`; ConfigError if the file is
    missing or unreadable, or holds no valid JSON object."""
    try:
        raw = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return raw


def config_section(cls: type[T], rec: Any, section: str) -> T:
    """Dataclass `cls` from the config object `rec`, at dotted path `section`
    ("" for the whole config) in errors.

    Each field takes rec[key] cast to its annotated type, key being the
    field's JSON key (jsonl.json_key), or else keeps its default. A missing
    required key or a value that does not cast raises ConfigError naming
    the dotted path of the key."""
    if not isinstance(rec, dict):
        raise ConfigError(f"config {section} must be a JSON object")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key = json_key(f)
        path = f"{section}.{key}".lstrip(".")
        if key in rec:
            values[f.name] = _cast(hints[f.name], rec[key], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config {path} is required")
    return cls(**values)


def _cast(hint: Any, value: Any, path: str) -> Any:
    """`value` as type `hint`: a dataclass section, list[X], tuple[X, ...],
    dict[str, X], X | None (null or an empty value is None), Fraction, or a
    scalar; a float must be finite, though Python's json reads NaN and Infinity."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return _cast(args[0], value, path) if value else None
    if is_dataclass(hint):
        return config_section(hint, value, path)
    if origin in (list, tuple, dict):
        if type(value) is not (dict if origin is dict else list):
            raise ConfigError(f"config {path} must be a JSON {'object' if origin is dict else 'array'}")
        if origin is dict:
            return {k: _cast(args[1], v, f"{path}.{k}") for k, v in value.items()}
        return origin(_cast(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    # int() and float() would take true as 1 and cut 2.7 to 2.
    if type(value) is bool and hint in (int, float) or (
        hint is int and type(value) is float and not value.is_integer()
    ):
        raise ConfigError(f"config {path} must be {'an integer' if hint is int else 'a number'}, not {dumps(value)}")
    try:
        # Fraction(str(0.15)) is exactly 3/20; Fraction(0.15) would keep the
        # binary-float artifact and break exact share sums.
        cast = Fraction(str(value)) if hint is Fraction else hint(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if hint is float and not math.isfinite(cast):
        raise ConfigError(f"config {path} must be a finite number, not {dumps(value)}")
    return cast


@dataclass
class ClassifierSpec:
    model_id: str = ""  # defaults to the tag
    path: str = ""  # pre-trained model file
    positives: str = ""  # or train from these sources
    negatives: str = ""
    hyper: clf_mod.ClassifierHyper = field(default_factory=clf_mod.ClassifierHyper)
    tag: str = ""  # set for domain classifiers

    def __post_init__(self):
        self.model_id = self.model_id or self.tag
        if not (self.model_id and (self.path or self.positives and self.negatives)):
            raise ConfigError(f"classifier {self.model_id!r} needs a model_id or tag, and "
                              "either a path or positives+negatives training sources")


@dataclass(frozen=True)
class QualityConfig:
    heuristics: quality_mod.HeuristicThresholds = field(default_factory=quality_mod.HeuristicThresholds)
    tag_threshold: float = quality_mod.DEFAULT_TAG_THRESHOLD
    classifiers: list[ClassifierSpec] = field(default_factory=list)
    domain_classifiers: list[ClassifierSpec] = field(default_factory=list)


@dataclass(frozen=True)
class SamplingConfig:
    policies: list[sampling_mod.UpsamplePolicy] = field(default_factory=list)


@dataclass(frozen=True)
class TrainPrepConfig:
    sequence_length: int = 4_096
    rope_stage: str = "pretrain"
    vocab_size: int = DEFAULT_VOCAB_SIZE
    lr_schedule: LrScheduleSpec | None = None


@dataclass
class PipelineConfig:
    """The whole config, one dataclass per section."""

    input: list[str] = field(default_factory=list)
    work_dir: Path = Path("work")
    master_seed: int = 0
    dedup: dedup_mod.DedupConfig = field(default_factory=dedup_mod.DedupConfig)
    quality: QualityConfig = field(default_factory=QualityConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    curriculum: cur_mod.StagePlan = field(default_factory=cur_mod.StagePlan)
    train_prep: TrainPrepConfig = field(default_factory=TrainPrepConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        return config_section(cls, raw, "")

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        raw = read_config(path)
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(raw)

    def __post_init__(self):
        """The checks that span sections, so a bad config stops before any
        phase runs; each section checked its own ranges when built."""
        quality, policies, plan = self.quality, self.sampling.policies, self.curriculum
        if not self.input:
            raise ConfigError("config needs at least one input path")
        if not quality.classifiers:
            raise ConfigError("at least one quality classifier is required")
        if not policies:
            raise ConfigError("at least one sampling policy is required")
        lambdas = [p.mixture_weight for p in policies]
        if abs(sum(lambdas) - 1.0) > 1e-9:
            raise ConfigError(f"sampling lambdas must sum to 1, got {sum(lambdas)}")
        cur_mod.ensure_valid_plan(plan)
        prep = self.train_prep
        rope_length = rope_config(prep.rope_stage).sequence_length
        if not 1 <= prep.sequence_length <= rope_length:
            raise ConfigError(f"sequence_length must be in [1, {rope_length}] for rope_stage {prep.rope_stage!r}")
        if not 1 <= prep.vocab_size <= 2**32 - 1:  # token ids are u32
            raise ConfigError("vocab_size must be in [1, 2**32 - 1]")
        # Each classifier writes classifiers/<model_id>.clf and one signal;
        # each policy adds one signal's weight map to the mixture.
        model_ids = [s.model_id for s in quality.classifiers + quality.domain_classifiers]
        tags = [s.tag or s.model_id for s in quality.domain_classifiers]
        signals = [p.signal_name for p in policies]
        for what, names in (("classifier model_id", model_ids), ("domain tag", tags), ("policy signal", signals)):
            repeats = sorted({n for n in names if names.count(n) > 1})
            if repeats:
                raise ConfigError(f"the config repeats a {what}: {repeats}")
        written = quality_mod.signal_names([s.model_id for s in quality.classifiers], tags)
        needed = [("sampling policy", p.signal_name) for p in policies]
        for s in plan.stages:
            if s.gating_signal != cur_mod.GATE_MAX_CLF:
                needed.append((f"stage {s.stage_id} gating_signal", s.gating_signal))
            needed += [
                (f"stage {s.stage_id} mixture group '{g}'", f"tag:{g}")
                for g in s.mixture if g != cur_mod.OTHER_GROUP
            ]
        unknown = [f"{what} reads '{name}'" for what, name in needed if name not in written]
        if unknown:
            raise ConfigError(f"{'; '.join(unknown)}; the quality phase writes only {written}")

    def resolve_inputs(self) -> list[str]:
        paths: list[str] = []
        for pattern in self.input:
            hits = sorted(glob.glob(pattern))
            paths.extend(hits if hits else [pattern])
        missing = [p for p in paths if not Path(p).is_file()]
        if missing:
            raise ConfigError(f"input files not readable: {missing}")
        return paths


def training_texts(path: str) -> list[str]:
    """The `text` of each JSON object in a classifier training source;
    other rows are skipped."""
    texts = []
    for rec in read_jsonl(path):
        if isinstance(rec, dict) and isinstance(rec.get("text"), str):
            texts.append(rec["text"])
    if not texts:
        raise ConfigError(f"no text records in training source {path}")
    return texts


def obtain_classifier(spec: ClassifierSpec, out: str | Path) -> clf_mod.QualityClassifier:
    """The model `spec` names, saved to `out`: loaded from spec.path, or
    trained on its sources and named by the sha256 of its positives."""
    if spec.path:
        model = clf_mod.QualityClassifier.load(spec.path)
    else:
        model = clf_mod.train_classifier(
            training_texts(spec.positives), training_texts(spec.negatives),
            spec.hyper, spec.model_id, source=sha256_file(spec.positives),
        )
    model.save(out)
    return model


def strip_timing(obj: Any) -> Any:
    """Remove volatile fields so reports can be compared across runs."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.work_dir = config.work_dir
        self.tokenizer = WhitespaceTokenizer(config.train_prep.vocab_size)
        # READERS file name -> the object this run wrote it from, or parsed
        # from it when the phase that writes it was skipped.
        self._held: dict[str, Any] = {}

    # -- phase plumbing ------------------------------------------------

    def _phase_key(self, phase: "Phase", upstream: dict[str, str]) -> str:
        """Hash of everything `phase` reads; `upstream` maps each earlier
        output's work-relative path to its recorded sha256. An outside
        file enters by its sha256 at its place in phase.outside_files,
        which names its role; no path enters. Config values keep their
        order, unsorted: a mixture's group order decides its shards. The
        upstream digests go in path order, whichever phases recorded them."""
        return hash128_hex(json.dumps({
            "phase": phase.name,
            "version": phase.version(),
            "unicode": unicodedata.unidata_version,
            "config": _key_json(phase.config(self.config)),
            "files": [sha256_file(path) for path in phase.outside_files(self.config)],
            "upstream": {
                rel: upstream[rel] for rel in sorted(upstream)
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
        try:
            for i, phase in enumerate(PHASE_TABLE):
                executed[phase.name], digests = self._run_phase(phase, upstream, force)
                upstream.update(digests)
                later = [pattern for p in PHASE_TABLE[i + 1 :] for pattern in p.reads]
                self._held = {
                    name: obj for name, obj in self._held.items()
                    if any(fnmatch(name, pattern) for pattern in later)
                }
        finally:
            self._held.clear()
        # Each phase has just verified or hashed its outputs.
        report = _assemble_report(self.work_dir)
        report["phases_executed"] = executed
        write_json(self.work_dir / "report.json", report)
        return report

    def _load(self, name: str) -> Any:
        """The object in work-directory file `name`, a key of READERS: the
        one this run wrote the file from, else the file parsed by its
        reader, held for the later phases that read it too."""
        if name not in self._held:
            self._held[name] = READERS[name](self.work_dir / name)
        return self._held[name]

    # -- phases: each returns (artifacts written, sidecar report fields) --

    def _phase_ingest(self) -> tuple[list[Path], dict]:
        corpus, report = ingest_files(self.config.resolve_inputs())
        out_corpus = self.work_dir / "corpus.jsonl"
        write_corpus(corpus, out_corpus)
        self._held["corpus.jsonl"] = corpus
        return [out_corpus], {**report.to_dict(), "unidata_version": unicodedata.unidata_version}

    def _phase_dedup(self) -> tuple[list[Path], dict]:
        corpus = self._load("corpus.jsonl")
        clusters = dedup_mod.run_dedup(corpus, self.config.dedup)
        out_clusters = self.work_dir / "clusters.jsonl"
        dedup_mod.write_clusters(clusters, out_clusters)
        self._held["clusters.jsonl"] = clusters

        sizes: dict[int, int] = {}
        for c in clusters:
            sizes[len(c.member_ids)] = sizes.get(len(c.member_ids), 0) + 1
        retained_total = sum(len(c.retained_ids) for c in clusters)
        n_docs = len(corpus)
        return [out_clusters], {
            "documents": n_docs,
            **dedup_mod.versions(),
            "clusters": len(clusters),
            "duplicate_rate": (n_docs - len(clusters)) / n_docs if n_docs else 0.0,
            "retained_total": retained_total,
            "cluster_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        }

    def _phase_quality(self) -> tuple[list[Path], dict]:
        corpus = self._load("corpus.jsonl")
        clusters = self._load("clusters.jsonl")
        clf_dir = self.work_dir / "classifiers"
        clf_dir.mkdir(parents=True, exist_ok=True)
        quality = self.config.quality
        specs = quality.classifiers + quality.domain_classifiers
        outputs = [clf_dir / f"{spec.model_id}.clf" for spec in specs]
        models = [obtain_classifier(spec, out) for spec, out in zip(specs, outputs)]
        n = len(quality.classifiers)
        ensemble, domain = models[:n], dict(zip([s.tag or s.model_id for s in specs[n:]], models[n:]))
        annotated, drops = quality_mod.annotate(
            corpus,
            clusters,
            ensemble,
            domain,
            thresholds=quality.heuristics,
            tag_threshold=quality.tag_threshold,
        )
        out_annotated = self.work_dir / "annotated.jsonl"
        write_records(out_annotated, annotated)
        self._held["annotated.jsonl"] = annotated
        out_drops = self.work_dir / "drop_report.jsonl"
        quality_mod.write_drop_report(drops, out_drops)

        reasons: dict[str, int] = {}
        for d in drops:
            for r in d.reasons:
                reasons[r] = reasons.get(r, 0) + 1
        return outputs + [out_annotated, out_drops], {
            "annotated": len(annotated),
            "annotated_format": quality_mod.ANNOTATED_FORMAT,
            "training_version": clf_mod.TRAINING_VERSION,
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
        annotated = self._load("annotated.jsonl")
        policies = self.config.sampling.policies
        rows, _ = sampling_mod.weight_rows(annotated, policies)
        out_weights = self.work_dir / "weights.jsonl"
        write_jsonl(out_weights, rows)
        # Not `merged`: the rows list every document, in another order, and
        # the sampler's float sums follow that order.
        self._held["weights.jsonl"] = sampling_mod.weights_distribution(rows)
        return [out_weights], {
            "documents": len(annotated),
            "mixture_weights": {p.signal_name: p.mixture_weight for p in policies},
        }

    def emit_stage(
        self, stage: cur_mod.StageSpec, plan: cur_mod.StagePlan,
        annotated: list[quality_mod.Annotation], corpus: Corpus,
        clusters: list[dedup_mod.DuplicateCluster], merged: dict[str, float],
        gates: dict[str, dict[str, float]] | None = None,
    ) -> tuple[set[str], cur_mod.ShardManifest]:
        """Emit one stage's shards under stages/<id>; returns (eligible ids,
        manifest). `gates` is as in curriculum.stage_eligible."""
        eligible = cur_mod.stage_eligible(annotated, stage, gates)
        manifest = cur_mod.emit_stage(
            stage,
            plan,
            sampling_mod.restrict_distribution(merged, eligible),
            annotated,
            corpus,
            clusters,
            self.tokenizer,
            self.config.master_seed,
            self.work_dir / "stages" / stage.stage_id,
        )
        return eligible, manifest

    def _phase_curriculum(self) -> tuple[list[Path], dict]:
        annotated = self._load("annotated.jsonl")
        corpus = self._load("corpus.jsonl")
        clusters = self._load("clusters.jsonl")
        merged = self._load("weights.jsonl")
        plan = self.config.curriculum
        budgets = cur_mod.stage_budgets(plan)

        gates: dict[str, dict[str, float]] = {}  # shared by the stages
        outputs: list[Path] = []
        stage_summaries = {}
        for stage in plan.stages:
            stage_dir = self.work_dir / "stages" / stage.stage_id
            eligible, manifest = self.emit_stage(stage, plan, annotated, corpus, clusters, merged, gates)
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
        pad_id = self.tokenizer.pad_id
        train_prep = self.config.train_prep
        seq_len = train_prep.sequence_length

        packed_summary = {}
        manifest_lines = []
        for stage in self.config.curriculum.stages:
            stage_dir = self.work_dir / "stages" / stage.stage_id
            manifest = cur_mod.read_manifest(stage_dir / "manifest.json")
            out_bin = packed_dir / f"stage_{stage.stage_id}.bin"
            shards = [stage_dir / shard["file"] for shard in manifest.shards]
            sequences = pack_shards(shards, out_bin, seq_len, pad_id)
            outputs.append(out_bin)
            non_pad = sum(s.pad_from for s in sequences)
            packed_summary[stage.stage_id] = {
                "sequences": len(sequences),
                "non_pad_tokens": non_pad,
                "input_tokens": manifest.total_tokens,
            }
            manifest_lines.append(
                f"{out_bin.name}\tseq_len={seq_len}\tpad_id={pad_id}"
                f"\tsequences={len(sequences)}\tsha256={sha256_file(out_bin)}"
            )
        out_manifest = packed_dir / "manifest.txt"
        with atomic_write(out_manifest) as fh:
            fh.write("\n".join(manifest_lines) + "\n")
        outputs.append(out_manifest)

        out_rope = self.work_dir / "rope.json"
        write_json(out_rope, asdict(rope_config(train_prep.rope_stage)))
        outputs.append(out_rope)

        if train_prep.lr_schedule is not None:
            out_csv = self.work_dir / "schedule.csv"
            stride = max(1, train_prep.lr_schedule.end_step // 10_000)
            dump_csv(train_prep.lr_schedule, out_csv, stride=stride)
            outputs.append(out_csv)

        return outputs, {
            "sequence_length": seq_len,
            "rope_stage": train_prep.rope_stage,
            "stages": packed_summary,
        }


def _key_json(value: Any) -> Any:
    """Typed config `value` as JSON in its own order: a dataclass as its fields, each
    PATH_KEYS one cut to whether it is set, a Fraction as text, a tuple as a list."""
    if is_dataclass(value):
        value = {k: bool(v) if k in PATH_KEYS else v for k, v in vars(value).items()}
    if isinstance(value, dict):
        return {k: _key_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_key_json(v) for v in value]
    return str(value) if isinstance(value, Fraction) else value


def _classifier_sources(config: PipelineConfig) -> list[str]:
    """The files the quality phase loads: each model file or training pair."""
    return [
        path
        for spec in config.quality.classifiers + config.quality.domain_classifiers
        for path in ((spec.path,) if spec.path else (spec.positives, spec.negatives))
    ]


@dataclass(frozen=True)
class Phase:
    """One pipeline phase and everything it reads.

    `config` selects the typed config values the phase computes from; they
    may be wider than the phase needs, never narrower, except for file
    paths: `outside_files` lists the files the phase reads from outside
    the work directory, and their contents, in that order, stand in for
    their paths. `reads` are glob patterns over the work-relative
    outputs of earlier phases.
    `version` returns what names how the phase computes its outputs from
    those inputs, read each time a key is taken; a change to it makes
    earlier outputs stale.
    """

    name: str
    fn: Callable[[Pipeline], tuple[list[Path], dict]]
    config: Callable[[PipelineConfig], Any]
    reads: tuple[str, ...] = ()
    outside_files: Callable[[PipelineConfig], list[str]] = lambda config: []
    version: Callable[[], Any] = lambda: 0

    @property
    def sidecar(self) -> str:
        return f"{self.name}_report.json"


# The reader of each phase output that Pipeline._load parses: the file
# name, then path -> the object the file was written from. Each looks its
# reader up when called, so a patched reader takes effect.
READERS: dict[str, Callable[[Path], Any]] = {
    "corpus.jsonl": lambda path: read_corpus(path),
    "clusters.jsonl": lambda path: dedup_mod.read_clusters(path),
    "annotated.jsonl": lambda path: quality_mod.read_annotations(path),
    "weights.jsonl": lambda path: sampling_mod.read_weights(path),
}


PHASE_TABLE = (
    # Ingest version 0 listed the dump paths in its sidecar, stale once a
    # workspace moves; 1 lists none. The key holds the dumps' digests.
    Phase("ingest", Pipeline._phase_ingest, lambda c: (), outside_files=PipelineConfig.resolve_inputs,
          version=lambda: 1),
    Phase("dedup", Pipeline._phase_dedup, lambda c: c.dedup, reads=("corpus.jsonl",),
          version=dedup_mod.versions),
    Phase("quality", Pipeline._phase_quality, lambda c: c.quality,
          reads=("corpus.jsonl", "clusters.jsonl"),
          outside_files=_classifier_sources, version=lambda: clf_mod.TRAINING_VERSION),
    Phase("sampling", Pipeline._phase_sampling, lambda c: c.sampling, reads=("annotated.jsonl",)),
    # The policies reach curriculum through weights.jsonl; `curriculum emit`
    # loads its reads in the order of emit_stage's arguments.
    Phase("curriculum", Pipeline._phase_curriculum,
          lambda c: (c.curriculum, c.master_seed, c.train_prep.vocab_size),
          reads=("annotated.jsonl", "corpus.jsonl", "clusters.jsonl", "weights.jsonl")),
    Phase("train_prep", Pipeline._phase_train_prep, lambda c: (c.train_prep, c.curriculum),
          reads=("stages/*",)),
)


def _signal_quantiles(annotated: list[quality_mod.Annotation]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for row in annotated:
        for name, val in row.signals.items():
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


def _bad_outputs(work_dir: Path, outputs: dict[str, str | None]) -> list[str]:
    """Names of outputs that are missing, unrecorded (digest None) or fail their sha256."""
    bad = []
    for rel, digest in outputs.items():
        path = work_dir / rel
        if not path.is_file():
            bad.append(f"{rel} (missing)")
        elif digest is None:
            bad.append(f"{rel} (unrecorded)")
        elif sha256_file(path) != digest:
            bad.append(f"{rel} (checksum mismatch)")
    return bad


def verify_outputs(work_dir: str | Path, names: Iterable[str] | None = None) -> None:
    """IntegrityError unless each work-relative file in `names` (default: every
    recorded output) is recorded in a done-marker and has the recorded sha256."""
    work_dir = Path(work_dir)
    recorded = {
        rel: digest for marker in _markers(work_dir).values()
        for rel, digest in marker.get("outputs", {}).items()
    }
    names = recorded if names is None else names
    bad = _bad_outputs(work_dir, {rel: recorded.get(rel) for rel in names})
    if bad:
        raise IntegrityError(f"artifacts failed verification: {', '.join(bad)}", bad)


def build_report(work_dir: str | Path) -> dict:
    """Verify every output the done-markers record, then reassemble the
    pipeline report from on-disk artifacts only."""
    verify_outputs(work_dir)
    return _assemble_report(Path(work_dir))


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
