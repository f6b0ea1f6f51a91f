"""Step-wise linear LR schedule tests against a closed-form oracle."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

from corpusprep.errors import ConfigError
from corpusprep.schedule import LrScheduleSpec, dump_csv, lr_at

SPEC = LrScheduleSpec(
    peak_lr=1e-3,
    warmup_end=100,
    constant_end=200,
    slow_decay_end=300,
    slow_decay_floor=5e-4,
    end_step=350,
    final_lr=0.0,
)


class TestLrAt:
    def test_endpoints(self):
        assert lr_at(0, SPEC) == 0.0
        assert lr_at(100, SPEC) == SPEC.peak_lr
        assert lr_at(350, SPEC) == 0.0

    def test_constant_phase(self):
        for step in (101, 150, 200):
            assert lr_at(step, SPEC) == SPEC.peak_lr

    def test_slow_decay_midpoint(self):
        # Hand computation: halfway from peak 1e-3 down to 5e-4.
        assert lr_at(250, SPEC) == pytest.approx(7.5e-4, rel=1e-12)

    def test_phase_floor(self):
        assert lr_at(300, SPEC) == SPEC.slow_decay_floor

    def test_step_beyond_end_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(351, SPEC)
        with pytest.raises(ConfigError):
            lr_at(-1, SPEC)

    def test_matches_interp_oracle_10k_steps(self):
        """np.interp over the breakpoints is the independent closed form."""
        spec = LrScheduleSpec(
            peak_lr=3e-4,
            warmup_end=2_000,
            constant_end=60_000,
            slow_decay_end=90_000,
            slow_decay_floor=1.2e-4,
            end_step=100_000,
            final_lr=3e-6,
        )
        xp = [0, spec.warmup_end, spec.constant_end, spec.slow_decay_end, spec.end_step]
        fp = [0.0, spec.peak_lr, spec.peak_lr, spec.slow_decay_floor, spec.final_lr]
        rng = np.random.default_rng(0)
        steps = rng.integers(0, spec.end_step + 1, size=10_000)
        for step in steps:
            expected = float(np.interp(step, xp, fp))
            got = lr_at(int(step), spec)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-18)

    def test_continuous_and_non_increasing_after_warmup(self):
        spec = SPEC
        slopes = [
            spec.peak_lr / spec.warmup_end,
            (spec.peak_lr - spec.slow_decay_floor) / (spec.slow_decay_end - spec.constant_end),
            (spec.slow_decay_floor - spec.final_lr) / (spec.end_step - spec.slow_decay_end),
        ]
        max_slope = max(slopes)
        prev = lr_at(0, spec)
        for step in range(1, spec.end_step + 1):
            cur = lr_at(step, spec)
            assert abs(cur - prev) <= max_slope * (1 + 1e-9)
            if step > spec.warmup_end:
                assert cur <= prev + 1e-18
            prev = cur


class TestValidation:
    def test_bad_ordering(self):
        with pytest.raises(ConfigError):
            LrScheduleSpec(1e-3, 200, 100, 300, 5e-4, 350, 0.0)

    def test_zero_warmup_rejected(self):
        with pytest.raises(ConfigError):
            LrScheduleSpec(1e-3, 0, 100, 200, 5e-4, 300, 0.0)

    def test_fast_decay_must_be_steeper(self):
        # Slow phase drops 5e-4 over 100 steps; fast drops 1e-4 over 1000.
        with pytest.raises(ConfigError):
            LrScheduleSpec(1e-3, 100, 200, 300, 5e-4, 1300, 4e-4)

    def test_rates_must_decay(self):
        with pytest.raises(ConfigError):
            LrScheduleSpec(1e-3, 100, 200, 300, 2e-3, 350, 0.0)

    def test_valid_spec_passes(self):
        replace(SPEC)

    def test_degenerate_phases_require_matching_rates(self):
        LrScheduleSpec(1e-3, 100, 100, 100, 1e-3, 200, 0.0)
        with pytest.raises(ConfigError):
            LrScheduleSpec(1e-3, 100, 100, 100, 5e-4, 200, 0.0)


class TestDumpCsv:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "lr.csv"
        rows = dump_csv(SPEC, path, stride=7)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["step", "lr"]
            data = [(int(s), float(lr)) for s, lr in reader]
        assert len(data) == rows
        assert data[-1][0] == SPEC.end_step
        for step, lr in data:
            assert lr == lr_at(step, SPEC)
