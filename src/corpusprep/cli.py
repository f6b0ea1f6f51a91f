"""Command-line entry points for every pipeline phase.

Exit codes: 0 success, 1 validation/config error, 2 runtime phase
error, 3 integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import classifier as clf_mod
from . import curriculum as cur_mod
from . import dedup as dedup_mod
from . import quality as quality_mod
from . import sampling as sampling_mod
from .corpus import Corpus, ingest_files, read_corpus, write_corpus
from .errors import (
    ConfigError,
    CorpusPrepError,
    IntegrityError,
    PhaseError,
    ValidationError,
)
from .jsonl import read_json, read_jsonl, write_json, write_jsonl
from .packing import pack_documents, write_packed
from .pipeline import Pipeline, PipelineConfig, PolicySpec, build_report
from .rope import rope_config
from .schedule import dump_csv, load_schedule, lr_at


def _read_corpus_shards(paths: list[str]) -> Corpus:
    docs = []
    for path in paths:
        docs.extend(read_corpus(path).documents)
    return Corpus(docs)


def cmd_ingest(args) -> int:
    corpus, report = ingest_files(args.inputs, workers=args.workers)
    write_corpus(corpus, args.out)
    if args.report:
        write_json(args.report, report.to_dict())
    print(
        f"ingested {report.accepted}/{report.input_lines} records "
        f"({report.rejected_total} rejected) -> {args.out}"
    )
    return 0


def cmd_dedup(args) -> int:
    raw = read_json(args.config) if args.config else {}
    cfg = dedup_mod.DedupConfig.from_dict(raw.get("dedup", raw))
    cfg.validate()
    corpus = _read_corpus_shards(args.inputs)
    clusters, annotated = dedup_mod.run_dedup(corpus, cfg, workers=args.workers)
    dedup_mod.write_clusters(clusters, args.out)
    if args.annotated:
        write_corpus(annotated, args.annotated)
    dups = len(corpus) - len(clusters)
    print(f"{len(clusters)} clusters over {len(corpus)} docs ({dups} duplicates) -> {args.out}")
    return 0


def cmd_quality_train(args) -> int:
    def texts(path: str) -> list[str]:
        out = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    out.append(rec["text"] if isinstance(rec, dict) else str(rec))
        return out

    hyper = clf_mod.ClassifierHyper(
        orders=tuple(args.orders),
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    model = clf_mod.train_classifier(
        texts(args.positives),
        texts(args.negatives),
        hyper=hyper,
        model_id=args.model_id,
        source_name=args.positives,
    )
    model.save(args.out)
    acc = model.training_meta["train_accuracy"]
    print(f"trained {args.model_id} (train accuracy {acc:.3f}) -> {args.out}")
    return 0


def cmd_quality_score(args) -> int:
    model = clf_mod.QualityClassifier.load(args.model)
    corpus = _read_corpus_shards(args.inputs)
    rows = [
        {"doc_id": d.doc_id, "score": clf_mod.score(model, d)} for d in corpus
    ]
    if args.out:
        write_jsonl(args.out, rows)
    else:
        for row in rows:
            print(f"{row['doc_id']}\t{row['score']:.6f}")
    return 0


def cmd_quality_annotate(args) -> int:
    corpus = _read_corpus_shards(args.inputs)
    clusters = dedup_mod.read_clusters(args.clusters)
    ensemble = [clf_mod.QualityClassifier.load(p) for p in args.models]
    domain = {}
    for item in args.domain or []:
        tag, _, path = item.partition("=")
        if not path:
            raise ConfigError(f"--domain expects tag=path, got '{item}'")
        domain[tag] = clf_mod.QualityClassifier.load(path)
    annotated, drops = quality_mod.annotate(
        corpus, clusters, ensemble, domain, tag_threshold=args.tag_threshold
    )
    write_corpus(annotated, args.out)
    if args.drops:
        quality_mod.write_drop_report(drops, args.drops)
    print(f"annotated {len(annotated)} docs ({len(drops)} dropped) -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    raw = read_json(args.config)
    policy_recs = raw.get("sampling", raw).get("policies", [])
    if not policy_recs:
        raise ConfigError("config has no sampling policies")
    specs = [PolicySpec.from_dict(r) for r in policy_recs]
    annotated = _read_corpus_shards(args.inputs)
    maps = [sampling_mod.build_weight_map(annotated, s.policy) for s in specs]
    merged = sampling_mod.merge_distributions(maps, [s.mixture_weight for s in specs])
    rows = sampling_mod.weight_rows(annotated, maps, merged)
    write_jsonl(args.out, rows)
    print(f"wrote weights for {len(rows)} docs -> {args.out}")
    if args.draw:
        if not args.clusters:
            raise ConfigError("--draw needs --clusters for variant rotation")
        clusters = dedup_mod.read_clusters(args.clusters)
        drawn = sampling_mod.draw(merged, clusters, args.seed, args.draw)
        manifest = {"seed": args.seed, "n": args.draw, "doc_ids": drawn}
        out = args.manifest or (str(args.out) + ".draws.json")
        write_json(out, manifest)
        print(f"drew {args.draw} docs -> {out}")
    return 0


def cmd_curriculum_validate(args) -> int:
    plan = cur_mod.StagePlan.from_dict(read_json(args.plan))
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
    required = ["annotated.jsonl", "clusters.jsonl", "weights.jsonl"]
    missing = [n for n in required if not (work / n).is_file()]
    if missing:
        raise IntegrityError(
            f"curriculum emit needs earlier phases; missing: {missing}", missing
        )
    pipe = Pipeline(config)
    plan = cur_mod.ensure_valid_plan(config.plan)
    stage = plan.stage(args.stage)
    _, manifest = pipe.emit_stage(
        stage,
        plan,
        read_corpus(work / "annotated.jsonl"),
        dedup_mod.read_clusters(work / "clusters.jsonl"),
        pipe._merged_from_disk(),
    )
    print(
        f"stage {stage.stage_id}: {manifest.total_tokens} tokens in "
        f"{len(manifest.shards)} shards -> {work / 'stages' / stage.stage_id}"
    )
    return 0


def cmd_prep_pack(args) -> int:
    stream = []
    for path in args.inputs:
        for rec in read_jsonl(path):
            stream.append((rec["doc_id"], rec["token_ids"]))
    sequences = pack_documents(stream, args.length, args.pad_id)
    write_packed(args.out, sequences, args.length, args.pad_id)
    non_pad = sum(s.pad_from for s in sequences)
    print(f"packed {len(stream)} docs into {len(sequences)} sequences "
          f"({non_pad} non-pad tokens) -> {args.out}")
    return 0


def cmd_prep_schedule(args) -> int:
    spec = load_schedule(args.spec)
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
    overrides = {
        "master_seed": args.seed,
        "workers": args.workers,
        "work_dir": args.work_dir,
    }
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("dedup", help="cluster exact and fuzzy duplicates")
    p.add_argument("--config")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--annotated", help="also write corpus with cluster metadata")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_dedup)

    q = sub.add_parser("quality", help="train/score/annotate quality signals")
    qsub = q.add_subparsers(dest="quality_command", required=True)

    p = qsub.add_parser("train")
    p.add_argument("--positives", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--model-id", default="clf")
    p.add_argument("--out", required=True)
    p.add_argument("--orders", type=int, nargs="+", default=[1, 2])
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_quality_train)

    p = qsub.add_parser("score")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quality_score)

    p = qsub.add_parser("annotate")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--domain", nargs="*", help="tag=path pairs")
    p.add_argument("--tag-threshold", type=float, default=0.5)
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
    p.add_argument("--head-dim", type=int, default=128)
    p.set_defaults(fn=cmd_prep_rope)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
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
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorpusPrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
