"""Curriculum plan validation, budget math and stage emission tests."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from corpusprep.corpus import Corpus
from corpusprep.curriculum import (
    StagePlan,
    StageSpec,
    emit_stage,
    ensure_valid_plan,
    paper_shaped_plan,
    read_manifest,
    stage_budgets,
    stage_eligible,
    validate_plan,
)
from corpusprep.dedup import DuplicateCluster
from corpusprep.errors import ConfigError, UnknownSignalError, ValidationError
from corpusprep.pipeline import config_section
from corpusprep.quality import Annotation
from corpusprep.sampling import restrict_clusters, restrict_distribution
from corpusprep.tokenizer import WhitespaceTokenizer

from conftest import annotated_doc


def plan_of(shares, thresholds, total=1000) -> StagePlan:
    stages = [
        StageSpec(
            stage_id=f"s{i}",
            token_share=Fraction(str(share)),
            quality_threshold=thr,
            mixture={"other": Fraction(1)},
        )
        for i, (share, thr) in enumerate(zip(shares, thresholds))
    ]
    return StagePlan(stages=stages, total_token_budget=total)


class TestValidatePlan:
    def test_paper_shaped_plan_valid(self):
        plan = paper_shaped_plan(8_000_000)
        assert validate_plan(plan) == []
        shares = [s.token_share for s in plan.stages]
        assert shares == [Fraction(s) for s in ("3/20", "9/20", "3/10", "1/10")]
        assert [s.quality_threshold for s in plan.stages] == [0.0, 0.0, 0.5, 0.9]

    def test_shares_not_one(self):
        plan = plan_of([0.5, 0.6], [0.0, 0.5])
        codes = [c for c, _ in validate_plan(plan)]
        assert "shares_not_one" in codes

    def test_final_share_not_smallest(self):
        plan = plan_of([0.2, 0.3, 0.5], [0.0, 0.1, 0.2])
        codes = [c for c, _ in validate_plan(plan)]
        assert "final_share_not_smallest" in codes

    def test_thresholds_must_not_decrease(self):
        plan = plan_of([0.5, 0.4, 0.1], [0.5, 0.2, 0.9])
        codes = [c for c, _ in validate_plan(plan)]
        assert "thresholds_decreasing" in codes

    def test_final_threshold_must_be_strict_max(self):
        plan = plan_of([0.5, 0.4, 0.1], [0.0, 0.9, 0.9])
        codes = [c for c, _ in validate_plan(plan)]
        assert "final_threshold_not_strictest" in codes

    def test_mixture_must_sum_to_one(self):
        stage = StageSpec(
            stage_id="x",
            token_share=Fraction(1, 2),
            quality_threshold=0.0,
            mixture={"code": Fraction(1, 2), "other": Fraction(1, 4)},
        )
        good = StageSpec(
            stage_id="y",
            token_share=Fraction(1, 2),
            quality_threshold=0.5,
            mixture={"other": Fraction(1)},
        )
        plan = StagePlan([stage, good], 100)
        codes = [c for c, _ in validate_plan(plan)]
        assert "mixture_not_one" in codes

    def test_empty_plan(self):
        codes = [c for c, _ in validate_plan(StagePlan([], 100))]
        assert codes == ["empty_plan"]

    def test_ensure_valid_raises_with_all_violations(self):
        plan = plan_of([0.5, 0.6], [0.9, 0.1])
        with pytest.raises(ValidationError) as err:
            ensure_valid_plan(plan)
        codes = [c for c, _ in err.value.violations]
        assert "shares_not_one" in codes
        assert "thresholds_decreasing" in codes

    def test_plan_from_dict_matches_paper_plan(self):
        # Fraction strings and decimal strings both parse to exact shares.
        rec = {
            "total_token_budget": 12345,
            "stages": [
                {"stage_id": "i", "token_share": "3/20", "quality_threshold": 0.0,
                 "mixture": {"code": "7/10", "other": "0.3"},
                 "description": "code-heavy warmup"},
                {"stage_id": "ii", "token_share": "0.45", "quality_threshold": 0.0,
                 "mixture": {"code": "0.3", "other": "7/10"},
                 "description": "diverse mixture"},
                {"stage_id": "iii", "token_share": "3/10", "quality_threshold": 0.5,
                 "mixture": {"code": "3/10", "other": "0.7"},
                 "description": "gradual shift to quality"},
                {"stage_id": "iv", "token_share": "0.10", "quality_threshold": 0.9,
                 "mixture": {"code": "0.3", "other": "0.7"},
                 "description": "highest-quality anneal"},
            ],
        }
        assert config_section(StagePlan, rec, "curriculum") == paper_shaped_plan(12345)


class TestStageBudgets:
    def test_exact_split_paper_plan(self):
        budgets = stage_budgets(paper_shaped_plan(8_000_000))
        assert budgets == {"i": 1_200_000, "ii": 3_600_000, "iii": 2_400_000, "iv": 800_000}
        assert sum(budgets.values()) == 8_000_000

    def test_largest_remainder_with_thirds(self):
        plan = plan_of(["1/3", "1/3", "1/3"], [0.0, 0.1, 0.2], total=100)
        # Invalid as a curriculum (final share not smallest) but the budget
        # math itself is what's under test.
        budgets = stage_budgets(plan)
        assert sum(budgets.values()) == 100
        assert sorted(budgets.values(), reverse=True) == [34, 33, 33]
        assert budgets["s0"] == 34  # earlier stage wins the tie

    @pytest.mark.parametrize("total", [1, 7, 99, 1001, 8_000_000, 10**12])
    def test_budgets_always_sum_exactly(self, total):
        plan = plan_of(["0.15", "0.45", "0.3", "0.1"], [0, 0, 0.5, 0.9], total=total)
        assert sum(stage_budgets(plan).values()) == total


def uniform_scores_corpus(n=10_000, seed=3) -> tuple[list[Annotation], Corpus]:
    """Annotation rows (in doc_id order) and the corpus they annotate."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        pairs.append(
            annotated_doc(
                f"d{i:05d}",
                {
                    "clf:u": float(rng.random()),
                    "freq:occurrence": 1.0,
                    "freq:snapshot": 1.0,
                    "freq:domain": 1.0,
                    "tag:code": float(i % 2),
                    "tag:math": 0.0,
                },
            )
        )
    return [row for row, _ in pairs], Corpus([doc for _, doc in pairs])


class TestStageEligible:
    def stage(self, threshold, gating="clf:max"):
        return StageSpec(
            stage_id="x",
            token_share=Fraction(1, 2),
            quality_threshold=threshold,
            mixture={"other": Fraction(1)},
            gating_signal=gating,
        )

    def test_threshold_zero_passes_everything(self):
        rows, _ = uniform_scores_corpus(500)
        assert stage_eligible(rows, self.stage(0.0)) == {row.doc_id for row in rows}

    def test_uniform_scores_binomial_bound(self):
        rows, _ = uniform_scores_corpus(10_000)
        eligible = stage_eligible(rows, self.stage(0.9))
        sigma = math.sqrt(0.1 * 0.9 / 10_000)
        assert abs(len(eligible) / 10_000 - 0.1) <= 3 * sigma

    def test_threshold_above_max_empty(self):
        rows, _ = uniform_scores_corpus(200)
        assert stage_eligible(rows, self.stage(1.1)) == set()

    def test_named_gating_signal(self):
        rows, _ = uniform_scores_corpus(200)
        named = stage_eligible(rows, self.stage(0.5, gating="clf:u"))
        default = stage_eligible(rows, self.stage(0.5))
        assert named == default  # single-member ensemble: max == the member

    def test_missing_signal_rejected(self):
        rows, _ = uniform_scores_corpus(10)
        with pytest.raises(UnknownSignalError):
            stage_eligible(rows, self.stage(0.5, gating="clf:absent"))

    def test_eligible_sets_nest_as_thresholds_rise(self):
        rows, _ = uniform_scores_corpus(2000)
        prev = None
        for thr in (0.0, 0.3, 0.6, 0.9):
            cur = stage_eligible(rows, self.stage(thr))
            if prev is not None:
                assert cur <= prev
            prev = cur


def emission_fixture(n=400, seed=5):
    rows, corpus = uniform_scores_corpus(n, seed=seed)
    clusters = [
        DuplicateCluster(d.doc_id, [d.doc_id], [d.doc_id], 1, 1, 1)
        for d in corpus
    ]
    dist = {d.doc_id: 1.0 / n for d in corpus}
    return rows, corpus, clusters, dist


def mixed_plan(total, mixture=None):
    mixture = mixture or {"code": Fraction("0.6"), "other": Fraction("0.4")}
    stages = [
        StageSpec("i", Fraction("0.6"), 0.0, dict(mixture)),
        StageSpec("ii", Fraction("0.4"), 0.5, dict(mixture)),
    ]
    # Not a valid anneal plan shape-wise; emission math is the target here.
    return StagePlan(stages, total)


class TestEmitStage:
    def run_stage(self, stage, plan, rows, corpus, clusters, dist, out_dir, seed=11):
        eligible = stage_eligible(rows, stage)
        return emit_stage(
            stage,
            replace(plan, shard_tokens=5_000),
            restrict_distribution(dist, eligible),
            rows,
            corpus,
            restrict_clusters(clusters, eligible),
            WhitespaceTokenizer(1000),
            seed,
            out_dir,
        )

    def test_budget_stopping_rule(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture()
        plan = mixed_plan(40_000)
        stage = plan.stages[0]
        manifest = self.run_stage(stage, plan, rows, corpus, clusters, dist, tmp_path / "s")
        budget = stage_budgets(plan)[stage.stage_id]
        assert budget <= manifest.total_tokens < budget + manifest.max_doc_tokens
        assert sum(s["tokens"] for s in manifest.shards) == manifest.total_tokens

    def test_deterministic_given_seed(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture()
        plan = mixed_plan(20_000)
        m1 = self.run_stage(plan.stages[0], plan, rows, corpus, clusters, dist, tmp_path / "a")
        m2 = self.run_stage(plan.stages[0], plan, rows, corpus, clusters, dist, tmp_path / "b")
        assert [s["sha256"] for s in m1.shards] == [s["sha256"] for s in m2.shards]
        assert m1.total_tokens == m2.total_tokens

    def test_mixture_fraction_within_one_percent(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture(n=1000, seed=8)
        plan = mixed_plan(200_000)
        stage = plan.stages[0]
        manifest = self.run_stage(stage, plan, rows, corpus, clusters, dist, tmp_path / "m")
        code_fraction = manifest.group_tokens["code"] / manifest.total_tokens
        assert 0.59 <= code_fraction <= 0.61

    def test_mixture_verified_from_shards(self, tmp_path):
        """Count tokens per tag group directly from emitted shard files."""
        from corpusprep.jsonl import read_jsonl

        rows, corpus, clusters, dist = emission_fixture(n=1000, seed=9)
        plan = mixed_plan(100_000)
        stage = plan.stages[0]
        out = tmp_path / "v"
        manifest = self.run_stage(stage, plan, rows, corpus, clusters, dist, out)
        signals = {row.doc_id: row.signals for row in rows}
        counted = {"code": 0, "other": 0}
        for shard in manifest.shards:
            for rec in read_jsonl(out / shard["file"]):
                tag = "code" if signals[rec["doc_id"]]["tag:code"] == 1.0 else "other"
                counted[tag] += len(rec["token_ids"])
        assert counted == dict(manifest.group_tokens)
        frac = counted["code"] / sum(counted.values())
        assert 0.59 <= frac <= 0.61

    def test_unrestricted_clusters_emit_the_same_bytes(self, tmp_path):
        """Each mixture group restricts the clusters to its own eligible
        documents, so restricting them to the eligible set first changes no
        byte, even where drawn clusters hold ineligible retained variants."""
        rows, corpus, _, dist = emission_fixture(n=90, seed=14)
        ids = [d.doc_id for d in corpus]
        clusters = [
            DuplicateCluster(ids[i], ids[i : i + 3], ids[i : i + 3], 3, 1, 1)
            for i in range(0, len(ids), 3)
        ]
        plan = replace(mixed_plan(20_000), shard_tokens=5_000)
        stage = plan.stages[1]
        eligible = stage_eligible(rows, stage)
        outputs = []
        for name, given in (("restricted", restrict_clusters(clusters, eligible)), ("all", clusters)):
            out = tmp_path / name
            emit_stage(
                stage, plan, restrict_distribution(dist, eligible), rows, corpus, given,
                WhitespaceTokenizer(1000), 11, out,
            )
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) > 2  # the manifest and several shards
        assert outputs[0] == outputs[1]

    def test_empty_eligible_set_rejected(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture(n=50)
        plan = mixed_plan(10_000)
        stage = StageSpec("i", Fraction("0.6"), 1.5, {"other": Fraction(1)})
        with pytest.raises(ConfigError):
            eligible = stage_eligible(rows, stage)
            emit_stage(
                stage, plan, restrict_distribution(dist, eligible), rows, corpus,
                clusters, WhitespaceTokenizer(1000), 1, tmp_path / "e",
            )

    def test_unachievable_mixture_rejected(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture(n=50)
        plan = mixed_plan(10_000, mixture={"math": Fraction("0.5"), "other": Fraction("0.5")})
        stage = plan.stages[0]
        with pytest.raises(ConfigError, match="math"):
            self.run_stage(stage, plan, rows, corpus, clusters, dist, tmp_path / "u")

    def test_stage_seeds_isolated(self, tmp_path):
        """Re-running one stage leaves other stages' outputs untouched."""
        rows, corpus, clusters, dist = emission_fixture(n=300, seed=12)
        plan = mixed_plan(30_000)
        m_i_first = self.run_stage(plan.stages[0], plan, rows, corpus, clusters, dist, tmp_path / "i1")
        m_ii = self.run_stage(plan.stages[1], plan, rows, corpus, clusters, dist, tmp_path / "ii")
        m_i_again = self.run_stage(plan.stages[0], plan, rows, corpus, clusters, dist, tmp_path / "i2")
        assert [s["sha256"] for s in m_i_first.shards] == [s["sha256"] for s in m_i_again.shards]
        assert m_ii.seed != m_i_first.seed

    def test_manifest_round_trip(self, tmp_path):
        rows, corpus, clusters, dist = emission_fixture(n=100, seed=13)
        plan = mixed_plan(5_000)
        out = tmp_path / "rt"
        manifest = self.run_stage(plan.stages[0], plan, rows, corpus, clusters, dist, out)
        loaded = read_manifest(out / "manifest.json")
        assert loaded == manifest
