"""Staged training plan: breadth first, quality-annealed at the end.

A StagePlan orders stages whose quality thresholds never decrease; the
final stage gets the smallest token share and the strictest threshold.
Token shares are exact rationals so stage budgets are integers summing
exactly to the total (largest-remainder rounding). Each stage draws
from the merged sampling distribution restricted to its eligible set,
stratified so tag mixtures land on target, and emits token shards with
checksums. Stage seeds derive from the master seed and stage id, so
re-running one stage never perturbs another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .dedup import DuplicateCluster
from .errors import ConfigError, UnknownSignalError, ValidationError
from .hashing import derive_seed, sha256_file
from .jsonl import read_json, read_records, write_json, write_records
from .quality import Annotation
from .sampling import ClusterSampler, restrict_clusters, restrict_distribution
from .tokenizer import WhitespaceTokenizer

GATE_MAX_CLF = "clf:max"  # max over ensemble scores, the default gate
OTHER_GROUP = "other"
DEFAULT_SHARD_TOKENS = 1_000_000


@dataclass(frozen=True)
class StageSpec:
    stage_id: str
    token_share: Fraction
    quality_threshold: float
    mixture: dict[str, Fraction]  # tag group -> target token fraction
    description: str = ""
    gating_signal: str = GATE_MAX_CLF


@dataclass
class StagePlan:
    """The config's `curriculum` section; without `stages`, the stages of
    paper_shaped_plan."""

    stages: list[StageSpec] = field(default_factory=lambda: paper_shaped_plan(0).stages)
    total_token_budget: int = 8_000_000
    shard_tokens: int = DEFAULT_SHARD_TOKENS  # tokens per emitted shard file

    def stage(self, stage_id: str) -> StageSpec:
        for s in self.stages:
            if s.stage_id == stage_id:
                return s
        raise ConfigError(f"no stage '{stage_id}' in plan")


def paper_shaped_plan(total_token_budget: int) -> StagePlan:
    """Default four-stage plan: code-heavy start, diverse middle, gradual
    sharpening, small strict anneal. Shares and thresholds are config
    defaults, not published values."""
    stages = [
        ("i", "0.15", 0.0, {"code": "0.7", OTHER_GROUP: "0.3"}, "code-heavy warmup"),
        ("ii", "0.45", 0.0, {"code": "0.3", OTHER_GROUP: "0.7"}, "diverse mixture"),
        ("iii", "0.30", 0.5, {"code": "0.3", OTHER_GROUP: "0.7"}, "gradual shift to quality"),
        ("iv", "0.10", 0.9, {"code": "0.3", OTHER_GROUP: "0.7"}, "highest-quality anneal"),
    ]
    return StagePlan(
        stages=[
            StageSpec(
                stage_id=sid,
                token_share=Fraction(share),
                quality_threshold=thr,
                mixture={k: Fraction(v) for k, v in mix.items()},
                description=desc,
            )
            for sid, share, thr, mix, desc in stages
        ],
        total_token_budget=total_token_budget,
    )


def validate_plan(plan: StagePlan) -> list[tuple[str, str]]:
    """All plan invariants as a machine-readable violation list."""
    violations: list[tuple[str, str]] = []
    if not plan.stages:
        violations.append(("empty_plan", "plan has no stages"))
        return violations
    if plan.total_token_budget < 1:
        violations.append(("bad_budget", "total_token_budget must be >= 1"))
    if plan.shard_tokens < 1:
        violations.append(("bad_shard_tokens", "shard_tokens must be >= 1"))
    ids = [s.stage_id for s in plan.stages]
    if len(set(ids)) != len(ids):
        violations.append(("duplicate_stage_ids", f"stage ids repeat: {ids}"))
    for s in plan.stages:
        if not 0 < s.token_share < 1:
            violations.append(
                ("share_out_of_range",
                 f"stage {s.stage_id}: share {s.token_share} not in (0,1)")
            )
        mix_sum = sum(s.mixture.values(), Fraction(0))
        if mix_sum != 1:
            violations.append(
                ("mixture_not_one",
                 f"stage {s.stage_id}: mixture sums to {mix_sum}, expected 1")
            )
        if any(f < 0 for f in s.mixture.values()):
            violations.append(
                ("mixture_negative", f"stage {s.stage_id}: negative mixture fraction")
            )
    share_sum = sum((s.token_share for s in plan.stages), Fraction(0))
    if share_sum != 1:
        violations.append(("shares_not_one", f"token shares sum to {share_sum}, expected 1"))
    thresholds = [s.quality_threshold for s in plan.stages]
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        violations.append(
            ("thresholds_decreasing", f"quality thresholds decrease: {thresholds}")
        )
    final = plan.stages[-1]
    for s in plan.stages[:-1]:
        if final.token_share >= s.token_share:
            violations.append(
                ("final_share_not_smallest",
                 "final stage must have the strictly smallest token share")
            )
            break
    for s in plan.stages[:-1]:
        if final.quality_threshold <= s.quality_threshold:
            violations.append(
                ("final_threshold_not_strictest",
                 "final stage must have the strictly largest quality threshold")
            )
            break
    return violations


def ensure_valid_plan(plan: StagePlan) -> StagePlan:
    violations = validate_plan(plan)
    if violations:
        raise ValidationError(violations)
    return plan


def stage_budgets(plan: StagePlan) -> dict[str, int]:
    """Integer stage budgets via largest-remainder rounding; sums exactly."""
    total = plan.total_token_budget
    exact = [s.token_share * total for s in plan.stages]
    base = [int(e) for e in exact]  # Fraction -> floor toward zero (all >= 0)
    leftover = total - sum(base)
    remainders = sorted(
        range(len(exact)), key=lambda i: (-(exact[i] - base[i]), i)
    )
    for i in remainders[:leftover]:
        base[i] += 1
    return {s.stage_id: b for s, b in zip(plan.stages, base)}


def gate_value(signals: Mapping[str, float], gating_signal: str) -> float:
    if gating_signal == GATE_MAX_CLF:
        scores = [v for k, v in signals.items() if k.startswith("clf:")]
        if not scores:
            raise UnknownSignalError("no clf:* signals present for gating")
        return max(scores)
    if gating_signal not in signals:
        raise UnknownSignalError(f"gating signal '{gating_signal}' not present")
    return signals[gating_signal]


def stage_eligible(
    annotated: Iterable[Annotation], stage: StageSpec, gates: dict[str, dict[str, float]] | None = None
) -> set[str]:
    """Doc ids whose gating signal meets the stage threshold. `gates` maps
    each gating signal to its {doc_id: gate_value} over `annotated`, filled
    here as needed, so the stages of one run take each signal's values once."""
    signal, gates = stage.gating_signal, {} if gates is None else gates
    if signal not in gates:
        gates[signal] = {row.doc_id: gate_value(row.signals, signal) for row in annotated}
    return {doc_id for doc_id, value in gates[signal].items() if value >= stage.quality_threshold}


def mixture_group(signals: Mapping[str, float], mixture: Mapping[str, Fraction]) -> str | None:
    """First mixture tag (in config order) whose tag:<name> fires, else
    "other" when the mixture has a catch-all, else None (doc excluded)."""
    for group in mixture:
        if group == OTHER_GROUP:
            continue
        if signals.get(f"tag:{group}", 0.0) >= 1.0:
            return group
    return OTHER_GROUP if OTHER_GROUP in mixture else None


@dataclass
class ShardManifest:
    """A stage's manifest.json: these fields, under their own names."""

    stage_id: str
    shards: list[dict]  # {"file", "tokens", "sha256"}
    total_tokens: int
    seed: int
    group_tokens: dict[str, int] = field(default_factory=dict)
    drawn_docs: int = 0
    max_doc_tokens: int = 0  # bound on budget overshoot


@dataclass
class ShardRow:
    """One stage shard row: these fields, under their own names."""

    doc_id: str
    token_ids: list[int]


class _ShardWriter:
    """Accumulates ShardRow records into fixed-capacity shard files."""

    def __init__(self, out_dir: Path, shard_tokens: int):
        self.out_dir = out_dir
        self.shard_tokens = shard_tokens
        self.records: list[ShardRow] = []
        self.tokens = 0
        self.shards: list[dict] = []

    def add(self, doc_id: str, token_ids: list[int]) -> None:
        self.records.append(ShardRow(doc_id, token_ids))
        self.tokens += len(token_ids)
        if self.tokens >= self.shard_tokens:
            self.flush()

    def flush(self) -> None:
        if not self.records:
            return
        name = f"shard_{len(self.shards):04d}.jsonl"
        path = self.out_dir / name
        write_records(path, self.records)
        self.shards.append(
            {"file": name, "tokens": self.tokens, "sha256": sha256_file(path)}
        )
        self.records = []
        self.tokens = 0


def emit_stage(
    stage: StageSpec,
    plan: StagePlan,
    dist: dict[str, float],
    annotated: Iterable[Annotation],
    corpus: Corpus,
    clusters: Sequence[DuplicateCluster],
    tokenizer: WhitespaceTokenizer,
    master_seed: int,
    out_dir: str | Path,
) -> ShardManifest:
    """Draw, tokenize and shard one stage's token budget.

    Mixture groups come from the annotation rows' signals, token ids
    from the corpus text. `dist` must already be restricted to the
    stage's eligible set (see stage_eligible / restrict_distribution):
    that renormalization sets its floats. `clusters` need not be: each
    mixture group restricts them to its own documents, a subset of
    `dist`. Each draw picks the mixture group with the largest remaining
    token deficit, so the stage overshoots its budget by at most one
    document while holding group fractions on target.
    """
    if not dist:
        raise ConfigError(f"stage {stage.stage_id}: eligible set is empty")
    budget = stage_budgets(plan)[stage.stage_id]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = list(stage.mixture.keys())
    docs_by_group: dict[str, set[str]] = {g: set() for g in groups}
    signals = {row.doc_id: row.signals for row in annotated}
    for doc_id in dist:
        if doc_id not in signals or doc_id not in corpus:
            raise ConfigError(f"distribution covers unannotated or missing doc {doc_id}")
        g = mixture_group(signals[doc_id], stage.mixture)
        if g is not None:
            docs_by_group[g].add(doc_id)

    stage_seed = derive_seed(master_seed, stage.stage_id)
    samplers: dict[str, ClusterSampler] = {}
    rngs: dict[str, np.random.Generator] = {}
    for g in groups:
        target = stage.mixture[g]
        if target == 0:
            continue
        if not docs_by_group[g]:
            raise ConfigError(
                f"stage {stage.stage_id}: mixture group '{g}' has target "
                f"{target} but no eligible documents"
            )
        g_dist = restrict_distribution(dist, docs_by_group[g])
        g_clusters = restrict_clusters(clusters, docs_by_group[g])
        samplers[g] = ClusterSampler.from_distribution(g_dist, g_clusters)
        rngs[g] = np.random.default_rng(derive_seed(stage_seed, g))

    writer = _ShardWriter(out_dir, plan.shard_tokens)
    group_tokens = {g: 0 for g in samplers}
    total = 0
    drawn = 0
    max_doc_tokens = 0
    targets = {g: stage.mixture[g] * budget for g in samplers}
    while total < budget:
        g = max(samplers, key=lambda name: (targets[name] - group_tokens[name], name))
        doc_id = samplers[g].draw_one(rngs[g])
        ids = tokenizer.encode(corpus.get(doc_id).text, corpus.words)
        writer.add(doc_id, ids)
        group_tokens[g] += len(ids)
        total += len(ids)
        drawn += 1
        max_doc_tokens = max(max_doc_tokens, len(ids))
    writer.flush()

    manifest = ShardManifest(
        stage_id=stage.stage_id,
        shards=writer.shards,
        total_tokens=total,
        seed=stage_seed,
        group_tokens=group_tokens,
        drawn_docs=drawn,
        max_doc_tokens=max_doc_tokens,
    )
    write_json(out_dir / "manifest.json", asdict(manifest))
    # A smaller budget writes fewer shards; drop those of an earlier emit
    # so the directory holds exactly what the manifest lists.
    listed = {s["file"] for s in manifest.shards}
    for stale in out_dir.glob("shard_*.jsonl"):
        if stale.name not in listed:
            stale.unlink()
    return manifest


def read_manifest(path: str | Path) -> ShardManifest:
    return read_records(ShardManifest, path, [read_json(path)])[0]
