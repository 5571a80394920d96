"""Tests for the decision-dtype switch (``repro.dsp.precision``)."""

import warnings

import numpy as np
import pytest

from repro.dsp.precision import (
    DEFAULT_DTYPE,
    fft_api,
    parse_dtype,
    precision,
    resolve_dtype,
    set_decision_dtype,
)
from repro.obs import control as obs_control


@pytest.fixture(autouse=True)
def _restore_dtype():
    previous = resolve_dtype()
    yield
    set_decision_dtype(previous)


class TestParseDtype:
    @pytest.mark.parametrize("spelling", ["float32", "F32", " single ", "32"])
    def test_float32_spellings(self, spelling):
        assert parse_dtype(spelling) == np.dtype(np.float32)

    @pytest.mark.parametrize("spelling", ["float64", "f64", "DOUBLE", "64", ""])
    def test_float64_spellings(self, spelling):
        assert parse_dtype(spelling) == np.dtype(np.float64)

    def test_none_returns_default(self):
        assert parse_dtype(None) == DEFAULT_DTYPE

    def test_malformed_falls_back_silently_without_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_dtype("float16") == DEFAULT_DTYPE

    def test_malformed_warns_once(self, monkeypatch):
        monkeypatch.setattr(obs_control, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="REPRO_DTYPE"):
            assert parse_dtype("float128", warn=True) == DEFAULT_DTYPE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_dtype("float128", warn=True) == DEFAULT_DTYPE


class TestGlobalDtype:
    def test_default_is_float64(self):
        assert resolve_dtype() == np.dtype(np.float64)

    def test_set_and_restore(self):
        set_decision_dtype("float32")
        assert resolve_dtype() == np.dtype(np.float32)
        set_decision_dtype(np.float64)
        assert resolve_dtype() == np.dtype(np.float64)

    def test_set_rejects_unsupported(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_decision_dtype(np.int32)

    def test_precision_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with precision("float32"):
                assert resolve_dtype() == np.dtype(np.float32)
                raise RuntimeError("boom")
        assert resolve_dtype() == np.dtype(np.float64)

    def test_resolve_explicit_wins_over_global(self):
        with precision("float32"):
            assert resolve_dtype(np.float64) == np.dtype(np.float64)
            assert resolve_dtype(None) == np.dtype(np.float32)

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            resolve_dtype(np.complex128)


class TestFftApi:
    def test_float64_uses_numpy(self):
        assert fft_api(np.float64) is np.fft

    def test_float32_runs_single_precision(self):
        fft = fft_api(np.float32)
        spec = fft.rfft(np.ones(64, dtype=np.float32))
        assert spec.dtype == np.complex64
        back = fft.irfft(spec, 64)
        assert back.dtype == np.float32
