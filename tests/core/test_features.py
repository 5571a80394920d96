"""Tests for the orientation feature extractors."""

import threading

import numpy as np
import pytest

from repro.arrays import get_device
from repro.core import GccOnlyFeatureExtractor, OrientationFeatureExtractor, preprocess
from repro.core.preprocessing import DenoisedAudio
from repro.dsp import srp_max_lag_for


class TestDimensions:
    def test_d2_subset_dimension_matches_paper_formula(self, extractor):
        """For the 4-channel D2 slice: 6 pairs x 27 lags + 6 TDoAs = 168
        GCC values (the paper's number), plus peaks/stats/directivity."""
        n_pairs = 6
        window = 27
        gcc_block = n_pairs * window + n_pairs
        assert gcc_block == 168
        expected = gcc_block + 3 + 10 + 1 + 60
        assert extractor.n_features == expected

    def test_d3_dimension(self):
        extractor = OrientationFeatureExtractor(get_device("D3"))
        gcc_block = 6 * 21 + 6
        assert extractor.n_features == gcc_block + 3 + 10 + 1 + 60

    def test_gcc_only_dimension(self, d2_subset):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        assert baseline.n_features == 6 * 27 + 6

    def test_feature_groups_partition_the_vector(self, extractor):
        groups = extractor.feature_groups()
        assert set(groups) == {"gcc", "srp", "stats", "directivity"}
        covered = sorted(
            index
            for block in groups.values()
            for index in range(block.start, block.stop)
        )
        assert covered == list(range(extractor.n_features))

    def test_feature_groups_match_block_sizes(self, extractor):
        groups = extractor.feature_groups()
        assert groups["gcc"].stop - groups["gcc"].start == 168
        assert groups["srp"].stop - groups["srp"].start == 8  # 3 peaks + 5 stats
        assert groups["stats"].stop - groups["stats"].start == 5
        assert groups["directivity"].stop - groups["directivity"].start == 61


class TestGeometryFacts:
    """Both extractors derive the pair list and lag window at construction."""

    @pytest.mark.parametrize("name", ["D1", "D2", "D3", "subset"])
    def test_extractors_match_array_facts(self, name):
        if name == "subset":
            array = get_device("D2").subset([0, 1, 3, 4])
        else:
            array = get_device(name)
        for extractor in (OrientationFeatureExtractor(array), GccOnlyFeatureExtractor(array)):
            assert extractor.pairs == tuple(array.pairs())
            assert extractor.max_lag == srp_max_lag_for(array)
            assert extractor.pairs is extractor.pairs  # held, not re-derived


class TestExtraction:
    def test_vector_shape_and_finite(self, extractor, forward_capture):
        audio = preprocess(forward_capture)
        features = extractor.extract(audio)
        assert features.shape == (extractor.n_features,)
        assert np.all(np.isfinite(features))

    def test_deterministic(self, extractor, forward_capture):
        audio = preprocess(forward_capture)
        assert np.array_equal(extractor.extract(audio), extractor.extract(audio))

    def test_forward_backward_differ(self, extractor, forward_capture, backward_capture):
        forward = extractor.extract(preprocess(forward_capture))
        backward = extractor.extract(preprocess(backward_capture))
        assert not np.allclose(forward, backward, rtol=0.1)

    def test_batch_stacks(self, extractor, forward_capture, backward_capture):
        audios = [preprocess(forward_capture), preprocess(backward_capture)]
        matrix = extractor.extract_batch(audios)
        assert matrix.shape == (2, extractor.n_features)

    def test_batch_on_threads_matches_extract(
        self, extractor, forward_capture, backward_capture, replay_capture, two_workers
    ):
        audios = [preprocess(c) for c in (forward_capture, backward_capture, replay_capture)]
        before = threading.active_count()
        matrix = extractor.extract_batch(audios)
        assert threading.active_count() == before
        for row, audio in zip(matrix, audios):
            assert row.tobytes() == extractor.extract(audio).tobytes()

    def test_batch_empty_rejected(self, extractor):
        with pytest.raises(ValueError):
            extractor.extract_batch([])

    def test_wrong_channel_count_rejected(self, extractor):
        audio = DenoisedAudio(
            channels=np.random.default_rng(0).standard_normal((2, 4800)),
            sample_rate=48_000,
            had_speech=True,
        )
        with pytest.raises(ValueError, match="channels"):
            extractor.extract(audio)

    def test_too_short_utterance_rejected(self, extractor):
        audio = DenoisedAudio(
            channels=np.zeros((4, 16)), sample_rate=48_000, had_speech=True
        )
        with pytest.raises(ValueError, match="too short"):
            extractor.extract(audio)

    def test_gcc_only_extracts(self, d2_subset, forward_capture):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        features = baseline.extract(preprocess(forward_capture))
        assert features.shape == (baseline.n_features,)

    def test_gcc_only_is_prefix_compatible(self, d2_subset, extractor, forward_capture):
        """The baseline's GCC block equals the full extractor's GCC block
        (same audio, same lags) — the extra features are strictly added."""
        audio = preprocess(forward_capture)
        full = extractor.extract(audio)
        base = GccOnlyFeatureExtractor(d2_subset).extract(audio)
        assert np.allclose(full[: base.size], base)


class TestSharedValidation:
    """Both extractors run the same channel validation (regression:
    GccOnlyFeatureExtractor used to accept malformed input silently)."""

    def test_gcc_only_rejects_wrong_channel_count(self, d2_subset):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        audio = DenoisedAudio(
            channels=np.random.default_rng(0).standard_normal((2, 4800)),
            sample_rate=48_000,
            had_speech=True,
        )
        with pytest.raises(ValueError, match="channels"):
            baseline.extract(audio)

    def test_gcc_only_rejects_too_short_utterance(self, d2_subset):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        audio = DenoisedAudio(
            channels=np.zeros((4, 16)), sample_rate=48_000, had_speech=True
        )
        with pytest.raises(ValueError, match="too short"):
            baseline.extract(audio)

    def test_gcc_only_batch_rejects_malformed(self, d2_subset, forward_capture):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        good = preprocess(forward_capture)
        bad = DenoisedAudio(
            channels=np.zeros((3, 4800)), sample_rate=48_000, had_speech=True
        )
        with pytest.raises(ValueError, match="channels"):
            baseline.extract_batch([good, bad])

    def test_gcc_only_rejects_1d_input(self, d2_subset):
        baseline = GccOnlyFeatureExtractor(d2_subset)
        audio = DenoisedAudio(
            channels=np.zeros(4800), sample_rate=48_000, had_speech=True
        )
        with pytest.raises(ValueError, match="channels"):
            baseline.extract(audio)
