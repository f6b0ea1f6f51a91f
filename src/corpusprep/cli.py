"""Command-line entry points for every pipeline phase.

Exit codes: 0 success, 1 validation/config error, 2 runtime phase
error, 3 integrity error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TypeVar

# Nothing here calls BLAS: no OpenBLAS thread pool, unless the user asks. Runs before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import classifier as clf_mod
from . import curriculum as cur_mod
from . import dedup as dedup_mod
from . import quality as quality_mod
from . import sampling as sampling_mod
from .corpus import Corpus, ingest_files, read_corpus, write_corpus
from .errors import ConfigError, CorpusPrepError, IntegrityError, ValidationError
from .jsonl import write_json, write_jsonl, write_records
from .packing import pack_shards
from .pipeline import (
    PHASE_TABLE,
    ClassifierSpec,
    Pipeline,
    PipelineConfig,
    QualityConfig,
    SamplingConfig,
    build_report,
    config_section,
    curriculum_stage,
    load,
    obtain_classifier,
    read_config,
    verify_outputs,
)
from .rope import DEFAULT_HEAD_DIM, rope_config
from .schedule import LrScheduleSpec, dump_csv, lr_at

T = TypeVar("T")


def _section(path: str | None, cls: type[T], name: str) -> T:
    """Section `name` of config file `path`, which holds a full config or
    that section alone; the section's defaults without a file."""
    raw = read_config(path) if path else {}
    return config_section(cls, raw.get(name, raw), name)


def _read_corpus_shards(paths: list[str]) -> Corpus:
    return Corpus([doc for path in paths for doc in read_corpus(path)])


def cmd_ingest(args) -> int:
    corpus, report = ingest_files(args.inputs)
    write_corpus(corpus, args.out)
    if args.report:
        write_json(args.report, report.to_dict())
    print(
        f"ingested {report.accepted}/{report.input_lines} records "
        f"({report.rejected_total} rejected) -> {args.out}"
    )
    return 0


def cmd_dedup(args) -> int:
    cfg = _section(args.config, dedup_mod.DedupConfig, "dedup")
    corpus = _read_corpus_shards(args.inputs)
    clusters = dedup_mod.run_dedup(corpus, cfg)
    dedup_mod.write_clusters(clusters, args.out)
    dups = len(corpus) - len(clusters)
    print(f"{len(clusters)} clusters over {len(corpus)} docs ({dups} duplicates) -> {args.out}")
    return 0


def cmd_quality_train(args) -> int:
    flags = {k: v for k, v in vars(args).items() if v is not None}  # unset flags take the defaults
    hyper = config_section(clf_mod.ClassifierHyper, flags, "quality train")
    spec = ClassifierSpec(args.model_id, positives=args.positives, negatives=args.negatives, hyper=hyper)
    model = obtain_classifier(spec, iter([args.positives, args.negatives]), args.out)
    acc = model.training_meta["train_accuracy"]
    print(f"trained {model.model_id} (train accuracy {acc:.3f}) -> {args.out}")
    return 0


def cmd_quality_score(args) -> int:
    model = clf_mod.QualityClassifier.load(args.model)
    corpus = _read_corpus_shards(args.inputs)
    rows = [
        {"doc_id": d.doc_id, "score": model.score_text(d.text, corpus.words)} for d in corpus
    ]
    if args.out:
        write_jsonl(args.out, rows)
    else:
        for row in rows:
            print(f"{row['doc_id']}\t{row['score']:.6f}")
    return 0


def cmd_quality_annotate(args) -> int:
    cfg = _section(args.config, QualityConfig, "quality")
    domain_paths = {}
    for item in args.domain or []:
        tag, _, path = item.partition("=")
        if not path:
            raise ConfigError(f"--domain expects tag=path, got '{item}'")
        domain_paths[tag] = path
    corpus = _read_corpus_shards(args.inputs)
    clusters = dedup_mod.read_clusters(args.clusters)
    ensemble = [clf_mod.QualityClassifier.load(p) for p in args.models]
    domain = {tag: clf_mod.QualityClassifier.load(p) for tag, p in domain_paths.items()}
    annotated, drops = quality_mod.annotate(
        corpus, clusters, ensemble, domain, thresholds=cfg.heuristics, tag_threshold=cfg.tag_threshold
    )
    write_records(args.out, annotated)
    if args.drops:
        quality_mod.write_drop_report(drops, args.drops)
    print(f"annotated {len(annotated)} docs ({len(drops)} dropped) -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    policies = _section(args.config, SamplingConfig, "sampling").policies
    if args.draw and not args.clusters:
        raise ConfigError("--draw needs --clusters for variant rotation")
    clusters = dedup_mod.read_clusters(args.clusters) if args.clusters else None
    annotated = sorted(
        (row for path in args.inputs for row in quality_mod.read_annotations(path)),
        key=lambda row: row.doc_id,
    )
    rows, merged = sampling_mod.weight_rows(annotated, policies)
    write_jsonl(args.out, rows)
    print(f"wrote weights for {len(rows)} docs -> {args.out}")
    if args.draw:
        drawn = sampling_mod.draw(merged, clusters, args.seed, args.draw)
        manifest = {"seed": args.seed, "n": args.draw, "doc_ids": drawn}
        out = args.manifest or (str(args.out) + ".draws.json")
        write_json(out, manifest)
        print(f"drew {args.draw} docs -> {out}")
    return 0


def cmd_curriculum_validate(args) -> int:
    plan = config_section(cur_mod.StagePlan, read_config(args.plan), "curriculum")
    violations = cur_mod.validate_plan(plan)
    if violations:
        for code, msg in violations:
            print(f"INVALID {code}: {msg}")
        return 1
    budgets = cur_mod.stage_budgets(plan)
    print(f"plan valid; stage budgets: {budgets}")
    return 0


def cmd_curriculum_emit(args) -> int:
    config = PipelineConfig.from_file(args.config)
    work = config.work_dir
    phase = next(phase for phase in PHASE_TABLE if phase.name == "curriculum")
    verify_outputs(work, phase.reads)
    stage = config.curriculum.stage(args.stage)
    loaded = [load(work, name) for name in phase.reads]
    _, manifest = curriculum_stage(stage, phase.config(config), *loaded, work)
    print(
        f"stage {stage.stage_id}: {manifest.total_tokens} tokens in "
        f"{len(manifest.shards)} shards -> {work / 'stages' / stage.stage_id}"
    )
    return 0


def cmd_prep_pack(args) -> int:
    sequences = pack_shards(args.inputs, args.out, args.length, args.pad_id)
    non_pad = sum(s.pad_from for s in sequences)
    print(f"packed {len(args.inputs)} shards into {len(sequences)} sequences "
          f"({non_pad} non-pad tokens) -> {args.out}")
    return 0


def cmd_prep_schedule(args) -> int:
    spec = config_section(LrScheduleSpec, read_config(args.spec), "lr_schedule")
    if args.dump_csv:
        rows = dump_csv(spec, args.dump_csv, stride=args.stride)
        print(f"wrote {rows} rows -> {args.dump_csv}")
    if args.at is not None:
        print(f"lr at step {args.at}: {lr_at(args.at, spec)!r}")
    return 0


def cmd_prep_rope(args) -> int:
    cfg = rope_config(args.stage, head_dim=args.head_dim)
    print(json.dumps(asdict(cfg), sort_keys=True))
    return 0


def cmd_run(args) -> int:
    overrides = {"master_seed": args.seed, "work_dir": args.work_dir}
    config = PipelineConfig.from_file(args.config, overrides=overrides)
    report = Pipeline(config).run(force=args.force)
    ok = report["reconciliation"]["ok"]
    print(f"pipeline complete; reconciliation {'OK' if ok else 'FAILED'}; "
          f"report -> {config.work_dir / 'report.json'}")
    return 0 if ok else 2


def cmd_report(args) -> int:
    report = build_report(args.work_dir)
    write_json(Path(args.work_dir) / "report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpusprep",
        description="Corpus curation and pre-training data preparation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest raw dumps into corpus shards")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("dedup", help="cluster exact and fuzzy duplicates")
    p.add_argument("--config")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dedup)

    q = sub.add_parser("quality", help="train/score/annotate quality signals")
    qsub = q.add_subparsers(dest="quality_command", required=True)

    p = qsub.add_parser("train")
    p.add_argument("--positives", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--model-id", default=clf_mod.DEFAULT_MODEL_ID)
    p.add_argument("--out", required=True)
    p.add_argument("--orders", type=int, nargs="+")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_quality_train)

    p = qsub.add_parser("score")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quality_score)

    p = qsub.add_parser("annotate")
    p.add_argument("--config")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--domain", nargs="*", help="tag=path pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--drops")
    p.set_defaults(fn=cmd_quality_annotate)

    p = sub.add_parser("sample", help="build per-signal weights and merged distribution")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--draw", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters")
    p.add_argument("--manifest")
    p.set_defaults(fn=cmd_sample)

    c = sub.add_parser("curriculum", help="validate plans and emit stages")
    csub = c.add_subparsers(dest="curriculum_command", required=True)

    p = csub.add_parser("validate")
    p.add_argument("--plan", required=True)
    p.set_defaults(fn=cmd_curriculum_validate)

    p = csub.add_parser("emit")
    p.add_argument("--config", required=True)
    p.add_argument("--stage", required=True)
    p.set_defaults(fn=cmd_curriculum_emit)

    pr = sub.add_parser("prep", help="packing, LR schedule, RoPE configuration")
    prsub = pr.add_subparsers(dest="prep_command", required=True)

    p = prsub.add_parser("pack")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pad-id", type=int, default=0)
    p.set_defaults(fn=cmd_prep_pack)

    p = prsub.add_parser("schedule")
    p.add_argument("--spec", required=True)
    p.add_argument("--dump-csv")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--at", type=int, help="print the rate at one step")
    p.set_defaults(fn=cmd_prep_schedule)

    p = prsub.add_parser("rope")
    p.add_argument("--stage", required=True)
    p.add_argument("--head-dim", type=int, default=DEFAULT_HEAD_DIM)
    p.set_defaults(fn=cmd_prep_rope)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--work-dir")
    p.add_argument("--force", action="store_true", help="ignore done markers")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="rebuild the report from on-disk artifacts")
    p.add_argument("--work-dir", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValidationError, OSError) as exc:  # OSError: a file it cannot open
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except CorpusPrepError as exc:  # PhaseError and every other runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
