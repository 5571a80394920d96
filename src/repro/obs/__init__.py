"""Observability layer: spans, metrics, decision audit log, bench reports.

``repro.obs`` is zero-dependency (stdlib only) and off by default: every
instrumented hot path checks one global flag first, so the disabled cost
is a function call and a dict/global lookup.  Enable per process with
``REPRO_OBS=1`` or :func:`set_obs_enabled`.

- :mod:`repro.obs.spans` — nestable ``span("stage")`` context managers
  with monotonic timings, exportable as a flat JSON trace;
- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket
  histograms (p50/p95/p99) and sliding-window rate counters keyed by
  name + labels;
- :mod:`repro.obs.correlate` — context-local correlation ids binding an
  utterance's audit records and spans together;
- :mod:`repro.obs.live` — the opt-in (``REPRO_LIVE=1``) HTTP telemetry
  sidecar (``/metrics``, ``/healthz``, ``/readyz``, ``/sessions``,
  ``/alarms``) and the ``python -m repro.obs.live watch`` dashboard
  (imported explicitly, not re-exported, keeping its ``-m`` entry
  point clean);
- :mod:`repro.obs.audit` — a JSONL audit log of every pipeline
  decision (capture key, verdicts, per-stage ms, cache counters);
- :mod:`repro.obs.runlog` — schema-versioned experiment run manifests
  (config, seed, env fingerprint, git SHA, stage timings, metrics
  snapshot) under ``benchmarks/manifests/``;
- :mod:`repro.obs.profile` — opt-in (``REPRO_PROFILE=1``) tracemalloc
  peak + cProfile top-N capture around pipeline/render regions;
- :mod:`repro.obs.bench` — schema-versioned ``BENCH_<name>.json``
  reports, the ``python -m repro.obs.bench --compare`` CI gate and the
  comparator, writer and loader the quality gate and manifests share
  (imported explicitly, not re-exported here, so the ``-m`` entry
  point stays clean; ``python -m repro.obs.metrics`` likewise dumps
  Prometheus text);
- :mod:`repro.obs.monitor` — online decision-quality monitoring:
  sliced FAR/FRR/acceptance counters, PSI / KS / Page–Hinkley score
  drift detectors raising :class:`DriftAlarm` records, rolling
  calibration (ECE), and the ``python -m repro.obs.monitor replay``
  CLI that rebuilds monitor state from an audit JSONL and emits
  gateable ``QUALITY_<name>.json`` reports (like bench, imported
  explicitly to keep its ``-m`` entry point clean);
- :mod:`repro.obs.slo` — multi-window SLO burn-rate alarms over serving
  decisions, read by the live sidecar's ``/alarms`` and ``/readyz``.

See ``docs/OBSERVABILITY.md``.
"""

from .audit import (
    AuditLog,
    audit_log,
    audit_record,
    configure_audit,
    read_jsonl,
)
from .control import obs_enabled, observed, set_obs_enabled
from .correlate import correlated, correlation_id, set_correlation
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    WindowedCounter,
    counter_inc,
    gauge_set,
    histogram_observe,
    snapshot_to_prometheus,
    windowed_inc,
)
from .profile import (
    clear_profiles,
    profile_snapshot,
    profiled,
    profiling_enabled,
    set_profiling_enabled,
)
from .runlog import RunManifest, diff_manifests
from .spans import SpanRecord, clear_spans, export_trace, span, span_records

__all__ = [
    "AuditLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "RunManifest",
    "SpanRecord",
    "WindowedCounter",
    "audit_log",
    "audit_record",
    "clear_profiles",
    "clear_spans",
    "configure_audit",
    "correlated",
    "correlation_id",
    "counter_inc",
    "diff_manifests",
    "export_trace",
    "gauge_set",
    "histogram_observe",
    "obs_enabled",
    "observed",
    "profile_snapshot",
    "profiled",
    "profiling_enabled",
    "read_jsonl",
    "set_correlation",
    "set_obs_enabled",
    "set_profiling_enabled",
    "snapshot_to_prometheus",
    "span",
    "span_records",
    "windowed_inc",
]
