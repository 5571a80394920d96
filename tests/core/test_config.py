"""Tests for facing definitions and system configuration."""

import pytest

from repro.core import (
    ALL_DEFINITIONS,
    BASELINE_DEFINITION,
    DEFAULT_DEFINITION,
    DEFINITION_1,
    DEFINITION_2,
    DEFINITION_3,
    DEFINITION_4,
    FACING,
    FacingDefinition,
    HeadTalkConfig,
    NON_FACING,
    ground_truth_label,
)


class TestGroundTruth:
    def test_facing_zone(self):
        for angle in (0.0, 15.0, -30.0, 30.0):
            assert ground_truth_label(angle) == FACING

    def test_non_facing(self):
        for angle in (45.0, -60.0, 90.0, 180.0, 135.0):
            assert ground_truth_label(angle) == NON_FACING

    def test_wrapping(self):
        assert ground_truth_label(360.0) == FACING
        assert ground_truth_label(-345.0) == FACING
        assert ground_truth_label(190.0) == NON_FACING


class TestDefinitions:
    def test_paper_arcs(self):
        assert DEFINITION_1.facing_angles == frozenset({0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0})
        assert DEFINITION_4.facing_angles == frozenset({0.0, 15.0, -15.0, 30.0, -30.0})
        assert DEFINITION_4.non_facing_angles == frozenset({90.0, -90.0, 135.0, -135.0, 180.0})

    def test_definition_4_excludes_borderline(self):
        for angle in (45.0, -45.0, 60.0, -60.0, 75.0, -75.0):
            assert DEFINITION_4.training_label(angle) is None

    def test_definition_1_includes_45(self):
        assert DEFINITION_1.training_label(45.0) == FACING

    def test_default_is_definition_4(self):
        assert DEFAULT_DEFINITION is DEFINITION_4

    def test_all_definitions_ordered(self):
        assert [d.name for d in ALL_DEFINITIONS] == [
            "Definition-1",
            "Definition-2",
            "Definition-3",
            "Definition-4",
        ]

    def test_progressively_narrower_non_facing(self):
        assert DEFINITION_2.non_facing_angles > DEFINITION_3.non_facing_angles
        assert DEFINITION_3.non_facing_angles > DEFINITION_4.non_facing_angles

    def test_baseline_matches_dov_arcs(self):
        assert BASELINE_DEFINITION.training_label(45.0) == FACING
        assert BASELINE_DEFINITION.training_label(15.0) is None

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            FacingDefinition(
                "bad", frozenset({0.0, 90.0}), frozenset({90.0, 180.0})
            )

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            FacingDefinition("bad", frozenset(), frozenset({180.0}))

    def test_training_label_wraps(self):
        assert DEFINITION_4.training_label(360.0) == FACING


class TestHeadTalkConfig:
    def test_defaults(self):
        config = HeadTalkConfig()
        assert config.liveness_threshold == 0.5
        assert config.facing_threshold == 0.5
        assert config.session_seconds == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadTalkConfig(liveness_threshold=0.0)
        with pytest.raises(ValueError):
            HeadTalkConfig(facing_threshold=1.0)
        with pytest.raises(ValueError):
            HeadTalkConfig(session_seconds=0.0)
