"""Step-wise linear learning-rate schedule.

Four phases aligned with the curriculum stages: linear warmup to the
peak, a constant hold, a slow linear decay to a floor, then a fast
linear decay to the final rate. The curve is continuous and, after
warmup, non-increasing; validation enforces that the late decay is at
least as steep as the slow one. Phase lengths and rates are config;
only the shape is fixed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .jsonl import atomic_write


@dataclass(frozen=True)
class LrScheduleSpec:
    peak_lr: float
    warmup_end: int  # W: 0 -> peak over [0, W]
    constant_end: int  # C: hold peak over (W, C]
    slow_decay_end: int  # S: peak -> slow_decay_floor over (C, S]
    slow_decay_floor: float
    end_step: int  # E: floor -> final_lr over (S, E]
    final_lr: float

    def __post_init__(self):
        w, c, s, e = self.warmup_end, self.constant_end, self.slow_decay_end, self.end_step
        if not (0 < w <= c <= s <= e):
            raise ConfigError(f"phase boundaries must satisfy 0 < W <= C <= S <= E, got {w},{c},{s},{e}")
        if self.peak_lr <= 0:
            raise ConfigError("peak_lr must be > 0")
        if not (self.peak_lr >= self.slow_decay_floor >= self.final_lr >= 0):
            raise ConfigError("rates must satisfy peak >= slow floor >= final >= 0")
        if c == s and self.slow_decay_floor != self.peak_lr:
            raise ConfigError("zero-length slow decay requires slow_decay_floor == peak_lr")
        if s == e and self.final_lr != self.slow_decay_floor:
            raise ConfigError("zero-length fast decay requires final_lr == slow_decay_floor")
        if s > c and e > s:
            slow = (self.peak_lr - self.slow_decay_floor) / (s - c)
            fast = (self.slow_decay_floor - self.final_lr) / (e - s)
            if fast < slow:
                raise ConfigError(
                    f"fast-decay slope {fast:g} is gentler than slow-decay slope {slow:g}"
                )


def lr_at(step: int, spec: LrScheduleSpec) -> float:
    """Learning rate at an integer step in [0, end_step]."""
    if step < 0 or step > spec.end_step:
        raise ConfigError(f"step {step} outside schedule range [0, {spec.end_step}]")
    if step <= spec.warmup_end:
        return spec.peak_lr * step / spec.warmup_end
    if step <= spec.constant_end:
        return spec.peak_lr
    if step <= spec.slow_decay_end:
        frac = (step - spec.constant_end) / (spec.slow_decay_end - spec.constant_end)
        return spec.peak_lr + (spec.slow_decay_floor - spec.peak_lr) * frac
    frac = (step - spec.slow_decay_end) / (spec.end_step - spec.slow_decay_end)
    return spec.slow_decay_floor + (spec.final_lr - spec.slow_decay_floor) * frac


def dump_csv(spec: LrScheduleSpec, path: str | Path, stride: int = 1) -> int:
    """Write step,lr rows every `stride` steps (end step always included)."""
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    steps = list(range(0, spec.end_step + 1, stride))
    if steps[-1] != spec.end_step:
        steps.append(spec.end_step)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr"])
        for s in steps:
            writer.writerow([s, repr(lr_at(s, spec))])
    return len(steps)
