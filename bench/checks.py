"""Correctness checks on a finished run's work directory.

The checks read the documented output formats with the standard library
and numpy alone, and compare them against the generator's `Plan` or
against properties the method must have, never against a stored copy of
an earlier output. Each check returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import MARKER_RATES, Plan

# Fields that hold wall-clock readings; everything else is deterministic.
TIMING_KEYS = ("timing", "generated_at", "wall_clock_s")
PHASES = ("ingest", "dedup", "quality", "sampling", "curriculum", "train_prep")
NEAR_PAIR_RECALL = 0.9
MARKER_AGREEMENT = 0.97
PACK_HEADER = "<IIIQ"


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


# -- declared outputs and digests ------------------------------------------


def declared_outputs(work: Path) -> list[str]:
    """Every output a phase marker declares, relative to the work directory.
    The curriculum marker declares each stage manifest and its shards."""
    rels: set[str] = set()
    for phase in PHASES:
        marker = work / f"{phase}.done.json"
        if marker.is_file():
            rels.update(read_json(marker).get("outputs", {}))
    return sorted(rels)


def file_digest(path: Path) -> str:
    """sha256 of a file; JSON documents are hashed after strip_timing."""
    if path.suffix == ".json":
        canon = json.dumps(strip_timing(read_json(path)), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(work: Path) -> dict[str, str]:
    return {rel: file_digest(work / rel) for rel in declared_outputs(work)}


def artifact_digest(work: Path) -> str:
    """One sha256 over the declared outputs and the run report, timing stripped."""
    digests = output_digests(work)
    digests["report.json"] = file_digest(work / "report.json")
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def compare_outputs(got: dict[str, str], want: dict[str, str], label: str) -> list[str]:
    problems = []
    if set(got) != set(want):
        extra, missing = sorted(set(got) - set(want)), sorted(set(want) - set(got))
        problems.append(f"{label}: declared outputs differ (extra {extra[:3]}, missing {missing[:3]})")
    differ = sorted(rel for rel in set(got) & set(want) if got[rel] != want[rel])
    if differ:
        problems.append(f"{label}: {len(differ)} outputs differ, first {differ[:3]}")
    return problems


# -- pipeline-wide checks ----------------------------------------------------


def _urls_by_id(work: Path) -> dict[str, str]:
    return {rec["doc_id"]: rec["url"] for rec in read_jsonl(work / "corpus.jsonl")}


def check_ingest(plan: Plan, work: Path) -> list[str]:
    rep = read_json(work / "ingest_report.json")
    problems = []
    if rep["input_lines"] != plan.lines_written:
        problems.append(f"ingest: input_lines {rep['input_lines']} != written {plan.lines_written}")
    if rep["accepted"] + rep["rejected_total"] != plan.lines_written:
        problems.append(f"ingest: accepted {rep['accepted']} + rejected {rep['rejected_total']} "
                        f"!= written {plan.lines_written}")
    if rep["rejected_total"] != plan.malformed:
        problems.append(f"ingest: rejected {rep['rejected_total']} != malformed {plan.malformed}")
    return problems


def check_quality(plan: Plan, work: Path) -> list[str]:
    """Signals agree with the planted markers; exactly the unusable documents drop."""
    urls = _urls_by_id(work)
    problems = []
    agree = {name: 0 for name in MARKER_RATES}
    annotated = read_jsonl(work / "annotated.jsonl")
    for rec in annotated:
        planted = plan.markers[rec["url"]]
        extra = rec["extra"]
        agree["quality"] += (float(extra["clf:web"]) >= 0.5) == ("quality" in planted)
        agree["code"] += (float(extra["tag:code"]) == 1.0) == ("code" in planted)
        agree["math"] += (float(extra["tag:math"]) == 1.0) == ("math" in planted)
    for name, n in agree.items():
        if not annotated or n < MARKER_AGREEMENT * len(annotated):
            problems.append(f"quality: {name} signal agrees with markers on {n}/{len(annotated)}")
    dropped = {urls[rec["doc_id"]] for rec in read_jsonl(work / "drop_report.jsonl")}
    if dropped != plan.unusable:
        problems.append(f"quality: dropped {len(dropped)} docs, planted {len(plan.unusable)} "
                        f"unusable, {len(dropped ^ plan.unusable)} differ")
    return problems


def stage_streams(config: dict, work: Path) -> tuple[dict[str, list[list[int]]], list[str]]:
    """Check stage budgets and emission; returns each stage's token stream."""
    cur = config["curriculum"]
    total = cur["total_token_budget"]
    report = read_json(work / "curriculum_report.json")["stages"]
    problems = []
    budgets = {s["stage_id"]: report[s["stage_id"]]["budget"] for s in cur["stages"]}
    if sum(budgets.values()) != total:
        problems.append(f"curriculum: budgets sum to {sum(budgets.values())}, not {total}")
    streams = {}
    for stage in cur["stages"]:
        sid = stage["stage_id"]
        exact = Fraction(stage["token_share"]) * total
        if abs(budgets[sid] - exact) >= 1:
            problems.append(f"curriculum: stage {sid} budget {budgets[sid]} vs exact share {exact}")
        manifest = read_json(work / "stages" / sid / "manifest.json")
        docs = [rec["token_ids"] for shard in manifest["shards"]
                for rec in read_jsonl(work / "stages" / sid / shard["file"])]
        emitted = sum(len(ids) for ids in docs)
        largest = max((len(ids) for ids in docs), default=0)
        if not budgets[sid] <= emitted < budgets[sid] + largest:
            problems.append(f"curriculum: stage {sid} emitted {emitted} tokens for budget "
                            f"{budgets[sid]} (largest doc {largest})")
        streams[sid] = docs
    return streams, problems


def read_packed(path: Path) -> tuple[int, int, list[tuple[int, np.ndarray]]]:
    """Parse a packed shard: (sequence length, pad id, [(pad_from, tokens)])."""
    data = path.read_bytes()
    if data[:4] != b"CPPK":
        raise ValueError(f"{path.name}: bad magic")
    version, seq_len, pad_id, n_seqs = struct.unpack_from(PACK_HEADER, data, 4)
    if version != 1:
        raise ValueError(f"{path.name}: layout version {version}, this parser reads version 1")
    pos = 4 + struct.calcsize(PACK_HEADER)
    seqs = []
    for _ in range(n_seqs):
        pad_from, n_spans = struct.unpack_from("<II", data, pos)
        pos += 8
        for _ in range(n_spans):
            _, _, id_len = struct.unpack_from("<IIH", data, pos)
            pos += 10 + id_len
        seqs.append((pad_from, np.frombuffer(data, dtype="<u4", count=seq_len, offset=pos)))
        pos += 4 * seq_len
    if pos != len(data):
        raise ValueError(f"{path.name}: {len(data) - pos} trailing bytes")
    return seq_len, pad_id, seqs


def check_packing(config: dict, work: Path, streams: dict[str, list[list[int]]]) -> list[str]:
    """Each packed shard holds exactly its stage's tokens, in order, then padding."""
    problems = []
    for sid, docs in streams.items():
        try:
            seq_len, pad_id, seqs = read_packed(work / "packed" / f"stage_{sid}.bin")
        except (ValueError, struct.error) as exc:
            problems.append(f"packing: {exc}")
            continue
        want = np.fromiter((t for ids in docs for t in ids), dtype=np.uint32)
        non_pad = [tokens[:pad_from] for pad_from, tokens in seqs]
        got = np.concatenate(non_pad) if non_pad else np.empty(0, dtype=np.uint32)
        if seq_len != config["train_prep"]["sequence_length"]:
            problems.append(f"packing: stage {sid} sequence length {seq_len}")
        if got.shape != want.shape or not np.array_equal(got, want):
            problems.append(f"packing: stage {sid} holds {got.size} non-pad tokens, "
                            f"stage shards {want.size}, or their order differs")
        if any(np.any(tokens[pad_from:] != pad_id) for pad_from, tokens in seqs):
            problems.append(f"packing: stage {sid} has non-pad tokens after pad_from")
    return problems


def check_stages(config: dict, work: Path) -> list[str]:
    streams, problems = stage_streams(config, work)
    return problems + check_packing(config, work, streams)


# -- workload-specific checks ------------------------------------------------


def _clusters_by_url(work: Path, urls: dict[str, str]) -> tuple[list[dict], dict[str, str]]:
    clusters = read_jsonl(work / "clusters.jsonl")
    return clusters, {urls[m]: c["cluster_id"] for c in clusters for m in c["member_ids"]}


def check_web_dedup(plan: Plan, work: Path) -> list[str]:
    urls = _urls_by_id(work)
    clusters, cluster_of = _clusters_by_url(work, urls)
    problems = []
    split = [g for g in plan.exact_groups if len({cluster_of[u] for u in g}) != 1]
    if split:
        problems.append(f"dedup: {len(split)} exact groups split across clusters")
    joined = sum(cluster_of[a] == cluster_of[b] for a, b in plan.near_pairs)
    if joined < NEAR_PAIR_RECALL * len(plan.near_pairs):
        problems.append(f"dedup: only {joined}/{len(plan.near_pairs)} near pairs clustered")
    mixed = [c["cluster_id"] for c in clusters
             if len({plan.family[urls[m]] for m in c["member_ids"]}) > 1]
    if mixed:
        problems.append(f"dedup: {len(mixed)} clusters join unrelated texts")
    return problems


def check_boilerplate_dedup(plan: Plan, config: dict, work: Path) -> list[str]:
    urls = _urls_by_id(work)
    clusters, cluster_of = _clusters_by_url(work, urls)
    by_id = {c["cluster_id"]: c for c in clusters}
    top_k = config["dedup"]["top_k"]
    problems = []
    if len(clusters) != len(plan.blocks) + len(plan.unique):
        problems.append(f"dedup: {len(clusters)} clusters, want {len(plan.blocks)} blocks + "
                        f"{len(plan.unique)} unique documents")
    for b, (kind, block) in enumerate(plan.blocks):
        ids = {cluster_of[u] for u in block}
        if len(ids) != 1 or len(by_id[next(iter(ids))]["member_ids"]) != len(block):
            problems.append(f"dedup: {kind} block {b} ({len(block)} copies) is not exactly one cluster")
            continue
        cluster = by_id[ids.pop()]
        ranked = sorted(cluster["member_ids"], key=lambda d: (-len(plan.text[urls[d]]), d))
        if cluster["retained_ids"] != ranked[: min(top_k, len(block))]:
            problems.append(f"dedup: {kind} block {b} retains {cluster['retained_ids']}, "
                            f"want the {top_k} longest")
    return problems


def check_run(shape: str, plan: Plan, config: dict, work: Path) -> list[str]:
    """Every check that applies to one cold run of a workload's inputs."""
    problems = check_ingest(plan, work) + check_quality(plan, work) + check_stages(config, work)
    if shape == "web":
        problems += check_web_dedup(plan, work)
    else:
        problems += check_boilerplate_dedup(plan, config, work)
    return problems


def check_unchanged_rerun(work: Path, before: dict[str, str]) -> list[str]:
    """A rerun with nothing changed executes no phase and changes no output byte."""
    executed = read_json(work / "report.json")["phases_executed"]
    problems = [f"rerun: phase {p} executed" for p, ran in executed.items() if ran]
    return problems + compare_outputs(raw_digests(work), before, "unchanged rerun")


def raw_digests(work: Path) -> dict[str, str]:
    """sha256 of the raw bytes of every declared output."""
    out = {}
    for rel in declared_outputs(work):
        with open(work / rel, "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out
