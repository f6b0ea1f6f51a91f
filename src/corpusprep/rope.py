"""Rotary position embedding configuration and rotation math.

Pre-training runs at 4,096 tokens with base frequency 1e4; length
extension raises the base to 8e6 at 32,768 tokens and then 1.28e8 at
131,072 tokens. Raising the base slows every non-trivial rotation
frequency, which is what lets the same head dimensions span longer
contexts. The rotation itself is a planar rotation of each value pair
by position * theta^(-2i/d); it preserves norms, and inner products
depend only on relative position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_HEAD_DIM = 128

ROPE_STAGES: dict[str, tuple[int, float]] = {
    "pretrain": (4_096, 1.0e4),
    "ext1": (32_768, 8.0e6),
    "ext2": (131_072, 1.28e8),
}


@dataclass(frozen=True)
class RopeConfig:
    stage: str
    sequence_length: int
    theta: float
    head_dim: int = DEFAULT_HEAD_DIM

    def __post_init__(self):
        if self.head_dim < 2 or self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be a positive even number")
        if self.sequence_length < 1 or self.theta <= 0:
            raise ConfigError("sequence_length and theta must be positive")


def rope_config(stage: str, head_dim: int = DEFAULT_HEAD_DIM) -> RopeConfig:
    """The (sequence length, theta) pair for a training stage."""
    try:
        seq_len, theta = ROPE_STAGES[stage]
    except KeyError:
        raise ConfigError(
            f"unknown rope stage '{stage}' (expected one of {sorted(ROPE_STAGES)})"
        ) from None
    return RopeConfig(stage=stage, sequence_length=seq_len, theta=theta, head_dim=head_dim)


def angular_frequencies(cfg: RopeConfig) -> np.ndarray:
    """omega_i = theta^(-2i/d) for each value pair i < d/2."""
    i = np.arange(cfg.head_dim // 2, dtype=np.float64)
    return cfg.theta ** (-2.0 * i / cfg.head_dim)


def rope_rotate(v: np.ndarray | list, position: int, cfg: RopeConfig) -> np.ndarray:
    """Rotate each (v[2i], v[2i+1]) pair by position * omega_i."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != cfg.head_dim:
        raise ConfigError(
            f"vector length {vec.shape} does not match head_dim {cfg.head_dim}"
        )
    if position < 0:
        raise ConfigError("position must be >= 0")
    angles = position * angular_frequencies(cfg)
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = vec[0::2], vec[1::2]
    out = np.empty_like(vec)
    out[0::2] = even * cos - odd * sin
    out[1::2] = even * sin + odd * cos
    return out
