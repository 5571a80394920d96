"""Scene-keyed memoization for the capture-rendering hot path.

Two LRU caches back :func:`repro.acoustics.propagation.render_capture`:

1. **RIR cache** — band-split image-source RIRs keyed by everything they
   depend on: room geometry + material, source position and facing,
   directivity parameters, microphone positions, sample rate, band
   edges, :class:`RirConfig` and the occlusion's direct-path band gains.
   Repeated renders of the same placement skip image enumeration and
   diffuse-tail synthesis entirely.
2. **Dry-render cache** — the noise-free multi-channel convolution of a
   specific emission through a scene (RIR key + waveform digest +
   loudness).  Exact re-renders (warm benchmark passes, the same spec
   feeding both the orientation and the liveness dataset builders, a
   re-run experiment) skip the band-split and the large FFT block too;
   only the stochastic noise layers are recomputed.

Both caches are only consulted when the render is *deterministic given
its key* — i.e. the diffuse tail is disabled or pinned by
``RirConfig.tail_seed`` — so a cache hit consumes exactly as much of the
caller's random stream as a miss (none) and cold/warm outputs are
byte-identical.  Entries are stored read-only; the dry cache hands out
copies because callers mix noise in place.

Caches are per-process and shared by every render thread (each cache
guards its state with a lock).  Both are bounded LRUs, of 64 RIR and
128 dry-render entries; :func:`set_cache_enabled` turns memoization off
for A/B runs.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields
from threading import Lock

import numpy as np

from ..acoustics.directivity import DirectivityModel
from ..acoustics.image_source import RirConfig, render_band_rirs
from ..acoustics.room import Room
from ..obs.metrics import counter_inc

_RIR_ENTRIES = 64
_DRY_ENTRIES = 128


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


class _LruCache:
    """A small thread-safe LRU keyed by hashable tuples.

    ``name`` labels the cache's observability counters
    (``runtime.cache.{hits,misses,evictions}{cache=<name>}``).
    """

    def __init__(self, max_entries: int, name: str = "cache") -> None:
        self.max_entries = max_entries
        self.name = name
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                counter_inc("runtime.cache.hits", cache=self.name)
                return self._entries[key]
            self.stats.misses += 1
            counter_inc("runtime.cache.misses", cache=self.name)
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                counter_inc("runtime.cache.evictions", cache=self.name)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


_RIR_CACHE = _LruCache(_RIR_ENTRIES, name="rir")
_DRY_CACHE = _LruCache(_DRY_ENTRIES, name="dry")
_ENABLED = True


def cache_enabled() -> bool:
    """Whether render memoization is active for this process."""
    return _ENABLED


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable render memoization (e.g. for A/B tests)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def clear_caches() -> None:
    """Drop every memoized RIR and dry render (resets statistics)."""
    _RIR_CACHE.clear()
    _DRY_CACHE.clear()


def cache_stats() -> dict[str, CacheStats]:
    """Current per-cache statistics."""
    return {"rir": _RIR_CACHE.stats, "dry": _DRY_CACHE.stats}


def cache_counts() -> dict[str, dict[str, int]]:
    """Per-cache counters as plain dicts (picklable and JSON-able).

    The shape audit records carry:
    ``{"rir": {"hits": ..., "misses": ..., "evictions": ...}, "dry":
    {...}}``.
    """
    return {
        name: {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions}
        for name, stats in cache_stats().items()
    }


def _array_token(value: np.ndarray | None) -> tuple | None:
    if value is None:
        return None
    x = np.ascontiguousarray(value, dtype=float)
    return (x.shape, x.tobytes())


def _config_token(config: RirConfig) -> tuple:
    return tuple(getattr(config, f.name) for f in fields(config))


def deterministic_rir(config: RirConfig) -> bool:
    """Whether a render is fully determined by its cache key.

    Only the diffuse tail can draw from the caller's generator; with the
    tail disabled or pinned by ``tail_seed`` the RIR is a pure function
    of the key and the caller's random stream is untouched.
    """
    return (not config.include_tail) or config.tail_seed is not None


def rir_key(
    room: Room,
    source_position: np.ndarray,
    facing: np.ndarray,
    directivity: DirectivityModel,
    mic_positions: np.ndarray,
    sample_rate: int,
    bands: list[tuple[float, float]],
    config: RirConfig,
    direct_band_gains: np.ndarray | None,
) -> tuple:
    """Hashable identity of one band-split RIR render.

    Covers every input :func:`render_band_rirs` reads; the room's
    ambient SPL is deliberately excluded (noise is layered after the
    RIR).
    """
    return (
        room.dimensions,
        room.material.band_centers_hz,
        room.material.absorption,
        _array_token(np.asarray(source_position)),
        _array_token(np.asarray(facing)),
        tuple(getattr(directivity, f.name) for f in fields(directivity)),
        _array_token(np.asarray(mic_positions)),
        int(sample_rate),
        tuple(tuple(band) for band in bands),
        _config_token(config),
        _array_token(direct_band_gains),
    )


def cached_band_rirs(
    room: Room,
    source_position: np.ndarray,
    facing: np.ndarray,
    directivity: DirectivityModel,
    mic_positions: np.ndarray,
    sample_rate: int,
    bands: list[tuple[float, float]],
    config: RirConfig,
    rng: np.random.Generator,
    direct_band_gains: np.ndarray | None,
) -> tuple[np.ndarray, tuple | None]:
    """Memoized :func:`render_band_rirs`.

    Returns ``(rirs, key)`` where ``key`` is the cache key (``None`` when
    the render was ineligible — stochastic tail — and was computed
    directly).  The returned array is shared and read-only on a hit;
    callers must not mutate it.
    """
    eligible = _ENABLED and deterministic_rir(config)
    if not eligible:
        rirs = render_band_rirs(
            room=room,
            source_position=source_position,
            facing=facing,
            directivity=directivity,
            mic_positions=mic_positions,
            sample_rate=sample_rate,
            bands=bands,
            config=config,
            rng=rng,
            direct_band_gains=direct_band_gains,
        )
        return rirs, None
    key = rir_key(
        room,
        source_position,
        facing,
        directivity,
        mic_positions,
        sample_rate,
        bands,
        config,
        direct_band_gains,
    )
    cached = _RIR_CACHE.get(key)
    if cached is not None:
        return cached, key
    rirs = render_band_rirs(
        room=room,
        source_position=source_position,
        facing=facing,
        directivity=directivity,
        mic_positions=mic_positions,
        sample_rate=sample_rate,
        bands=bands,
        config=config,
        rng=rng,
        direct_band_gains=direct_band_gains,
    )
    rirs.setflags(write=False)
    _RIR_CACHE.put(key, rirs)
    return rirs, key


def waveform_digest(waveform: np.ndarray) -> bytes:
    """Stable digest of an emission waveform (dry-render cache key part)."""
    x = np.ascontiguousarray(waveform, dtype=float)
    h = hashlib.sha256(x.tobytes())
    h.update(str(x.shape).encode())
    return h.digest()


def get_dry_render(scene_key: tuple | None, digest: bytes, loudness_db_spl: float):
    """Look up a memoized noise-free render; ``None`` on miss/ineligible."""
    if scene_key is None or not _ENABLED:
        return None
    cached = _DRY_CACHE.get((scene_key, digest, float(loudness_db_spl)))
    if cached is None:
        return None
    # Callers mix noise in place — hand out a fresh copy.
    return cached.copy()


def put_dry_render(
    scene_key: tuple | None,
    digest: bytes,
    loudness_db_spl: float,
    mixed: np.ndarray,
) -> None:
    """Memoize a noise-free render (no-op when ineligible)."""
    if scene_key is None or not _ENABLED:
        return
    frozen = mixed.copy()
    frozen.setflags(write=False)
    _DRY_CACHE.put((scene_key, digest, float(loudness_db_spl)), frozen)
