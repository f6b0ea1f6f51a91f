"""RoPE configuration and rotation-property tests."""

from __future__ import annotations

import numpy as np
import pytest

from corpusprep.errors import ConfigError
from corpusprep.rope import RopeConfig, angular_frequencies, rope_config, rope_rotate


class TestRopeConfig:
    def test_stage_constants_exact(self):
        pretrain = rope_config("pretrain")
        assert (pretrain.sequence_length, pretrain.theta) == (4_096, 1.0e4)
        ext1 = rope_config("ext1")
        assert (ext1.sequence_length, ext1.theta) == (32_768, 8.0e6)
        ext2 = rope_config("ext2")
        assert (ext2.sequence_length, ext2.theta) == (131_072, 1.28e8)

    def test_unknown_stage(self):
        with pytest.raises(ConfigError):
            rope_config("ext3")

    def test_head_dim_must_be_even(self):
        with pytest.raises(ConfigError):
            rope_config("pretrain", head_dim=63)

    def test_default_head_dim(self):
        assert rope_config("pretrain").head_dim == 128


class TestRotation:
    def cfg(self, d=64, stage="pretrain"):
        return rope_config(stage, head_dim=d)

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=64)
        assert np.array_equal(rope_rotate(v, 0, self.cfg()), v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for stage in ("pretrain", "ext1", "ext2"):
            for _ in range(50):
                v = rng.normal(size=128)
                m = int(rng.integers(0, 100_000))
                out = rope_rotate(v, m, self.cfg(128, stage))
                assert np.linalg.norm(out) == pytest.approx(
                    np.linalg.norm(v), rel=1e-9
                )

    def test_relative_position_identity(self):
        """dot(rot(q,m), rot(k,n)) depends only on m - n."""
        rng = np.random.default_rng(3)
        cfg = self.cfg(64)
        for _ in range(200):
            q = rng.normal(size=64)
            k = rng.normal(size=64)
            m = int(rng.integers(0, 1001))
            n = int(rng.integers(0, 1001))
            delta = int(rng.integers(0, 1001))
            lhs = rope_rotate(q, m, cfg) @ rope_rotate(k, n, cfg)
            rhs = rope_rotate(q, m + delta, cfg) @ rope_rotate(k, n + delta, cfg)
            assert abs(lhs - rhs) <= 1e-6

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate(np.zeros(32), 1, self.cfg(64))

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            cfg = RopeConfig(stage="pretrain", sequence_length=4096, theta=1e4, head_dim=63)
            rope_rotate(np.zeros(63), 1, cfg)

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate(np.zeros(64), -1, self.cfg())

    def test_larger_theta_slows_all_nontrivial_rotations(self):
        """Angles m * omega_i strictly decrease in theta for i >= 1."""
        d = 64
        m = 1000
        thetas = [1.0e4, 8.0e6, 1.28e8]
        freq_sets = [
            angular_frequencies(RopeConfig("x", 4096, theta, d)) for theta in thetas
        ]
        for a, b in zip(freq_sets, freq_sets[1:]):
            assert a[0] == b[0] == 1.0  # i = 0 never moves
            assert np.all(m * b[1:] < m * a[1:])

    def test_rotation_is_blockwise_2d(self):
        # Only the (2i, 2i+1) pair mixes; all other coordinates untouched.
        cfg = self.cfg(8)
        v = np.zeros(8)
        v[2] = 1.0
        out = rope_rotate(v, 5, cfg)
        assert out[0] == out[1] == 0.0
        assert out[4] == out[5] == out[6] == out[7] == 0.0
        assert out[2] ** 2 + out[3] ** 2 == pytest.approx(1.0, rel=1e-12)
