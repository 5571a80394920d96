"""ServingConfig: the defaults hold, the constructor validates."""

import pytest

from repro.serving.config import ServingConfig


class TestDefaults:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.frame_length == 2048
        assert config.hop_length == 2048
        assert config.max_sessions >= 1
        assert config.port == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frame_length": 0},
            {"min_frames": 0},
            {"check_every": 0},
            {"consecutive": 0},
            {"facing_margin": -0.1},
            {"max_sessions": 0},
            {"ring_seconds": 0.0},
        ],
    )
    def test_direct_construction_validates(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)
