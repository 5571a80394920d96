"""Schema-versioned experiment run manifests.

A :class:`RunManifest` records everything needed to reproduce and diff
one experiment run — config, seed, environment/worker fingerprint, git
SHA, per-stage timings, a metrics snapshot, profiling data and the
result summary — as one JSON document (``repro.obs.runlog/1``)::

    {
      "schema": "repro.obs.runlog/1",
      "name": "E18",
      "created": 1754000000.0,
      "run_id": null,
      "seed": 0,
      "git_sha": "bf2ca03...",
      "config": {"scale": "BENCH", "n_trials": 20},
      "env": {"python": "3.12.1", "cpu_count": 8, ...},
      "stages": {"run": 6120.4, "liveness": 41.7},
      "metrics": {"pipeline.decisions{...}": {...}},
      "summary": {"total_ms": 180.2, ...},
      "profile": {}
    }

Manifests default to ``benchmarks/manifests/RUN_<name>.json`` (override
with ``REPRO_MANIFEST_DIR``), one stable filename per experiment, so
paper-table reproductions stay diffable across PRs:
:func:`diff_manifests` renders the changed stages/summary/config
entries of two documents as plain text.  The writer is wired through
:func:`repro.experiments.common.run_with_manifest`; the loader
(:meth:`RunManifest.load`) round-trips every document it wrote.

Like the rest of :mod:`repro.obs`, this module is stdlib-only.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

SCHEMA = "repro.obs.runlog/1"

DEFAULT_MANIFEST_DIR = "benchmarks/manifests"

_AUTO = "auto"


def default_manifest_dir() -> Path:
    """Where manifests land: ``REPRO_MANIFEST_DIR`` or the repo default."""
    return Path(os.environ.get("REPRO_MANIFEST_DIR") or DEFAULT_MANIFEST_DIR)


def manifest_path(name: str, directory=None) -> Path:
    """Stable per-experiment manifest path (``RUN_<name>.json``)."""
    base = Path(directory) if directory is not None else default_manifest_dir()
    return base / f"RUN_{name}.json"


def repo_git_sha() -> str | None:
    """HEAD commit of the repo this package lives in; ``None`` off-repo.

    Fail-soft by design: a missing ``git`` binary, a site-packages
    install or a timeout all degrade to ``None`` rather than breaking a
    run.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def jsonable(value):
    """Best-effort conversion of arbitrary config values to JSON types.

    Dataclasses become dicts, numpy scalars/arrays their Python
    equivalents (duck-typed — :mod:`repro.obs` imports no numpy), sets
    and tuples become lists, and anything else falls back to ``repr``.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    if hasattr(value, "item") and callable(value.item):
        try:
            return jsonable(value.item())
        except (TypeError, ValueError):
            pass
    return repr(value)


class RunManifest:
    """One experiment run, accumulated field by field, then serialized."""

    def __init__(
        self,
        name: str,
        seed: int | None = None,
        config: dict | None = None,
        env: dict | None = None,
        git_sha: str | None = _AUTO,
        created: float | None = None,
        run_id: str | None = None,
    ) -> None:
        # Imports from bench stay function-level so ``python -m
        # repro.obs.bench`` keeps a clean module graph (bench must not be
        # half-imported via the package, which imports this module).
        from .bench import env_fingerprint

        self.name = name
        self.seed = seed
        self.config = jsonable(config or {})
        self.env = env_fingerprint() if env is None else env
        self.git_sha = repo_git_sha() if git_sha == _AUTO else git_sha
        self.created = time.time() if created is None else created
        self.run_id = run_id
        self.stages: dict[str, float] = {}
        self.metrics: dict = {}
        self.summary: dict = {}
        self.profile: dict = {}
        self.quality: dict = {}

    def add_stage(self, name: str, duration_ms: float) -> None:
        """Record one named stage's wall-clock milliseconds."""
        self.stages[name] = float(duration_ms)

    def to_dict(self) -> dict:
        """The schema-versioned JSON document.

        The decision-quality section is omitted when empty so manifests
        written before the monitor existed round-trip byte-identically.
        """
        document = {
            "schema": SCHEMA,
            "name": self.name,
            "created": self.created,
            "run_id": self.run_id,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "config": self.config,
            "env": self.env,
            "stages": self.stages,
            "metrics": self.metrics,
            "summary": jsonable(self.summary),
            "profile": self.profile,
        }
        if self.quality:
            document["quality"] = self.quality
        return document

    def write(self, path=None, directory=None) -> Path:
        """Validate and write the manifest; returns the path written.

        ``path`` overrides the destination entirely; otherwise the
        stable :func:`manifest_path` under ``directory`` (or the
        default manifest dir) is used and parents are created.
        """
        from .bench import write_document

        destination = path if path is not None else manifest_path(self.name, directory)
        return write_document(destination, self.to_dict(), validate, "manifest")

    @classmethod
    def from_dict(cls, document: dict) -> "RunManifest":
        """Rebuild a manifest from its JSON document (must validate)."""
        problems = validate(document)
        if problems:
            raise ValueError("invalid manifest: " + "; ".join(problems))
        manifest = cls(
            document["name"],
            seed=document.get("seed"),
            config=document.get("config", {}),
            env=dict(document.get("env", {})),
            git_sha=document.get("git_sha"),
            created=document["created"],
            run_id=document.get("run_id"),
        )
        manifest.stages = {name: float(ms) for name, ms in document.get("stages", {}).items()}
        manifest.metrics = dict(document.get("metrics", {}))
        manifest.summary = dict(document.get("summary", {}))
        manifest.profile = dict(document.get("profile", {}))
        manifest.quality = dict(document.get("quality", {}))
        return manifest

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest file back (round-trips :meth:`write` exactly).

        An unreadable, unparsable or invalid file raises ``ValueError``.
        """
        from .bench import load_document

        document, problems = load_document(path, validate)
        if problems:
            raise ValueError("invalid manifest: " + "; ".join(problems))
        return cls.from_dict(document)


def validate(document) -> list[str]:
    """Problems that make ``document`` not a valid v1 run manifest."""
    from .bench import header_problems

    problems = header_problems(document, SCHEMA)
    if not isinstance(document, dict):
        return problems
    if document.get("seed") is not None and not isinstance(document["seed"], int):
        problems.append("seed must be an integer or null")
    if document.get("git_sha") is not None and not isinstance(document["git_sha"], str):
        problems.append("git_sha must be a string or null")
    if document.get("run_id") is not None and not isinstance(document["run_id"], str):
        problems.append("run_id must be a string or null")
    for section in ("config", "env", "stages", "metrics", "summary", "profile", "quality"):
        if not isinstance(document.get(section, {}), dict):
            problems.append(f"{section} must be an object")
    stages = document.get("stages", {})
    if isinstance(stages, dict):
        for name, duration in stages.items():
            if not isinstance(duration, (int, float)):
                problems.append(f"stages[{name!r}] must be numeric milliseconds")
    return problems


def diff_manifests(baseline: dict, current: dict) -> list[str]:
    """Human-readable differences between two manifest documents.

    Compares the reproducibility-relevant fields — seed, git SHA,
    config, per-stage timings (with percent change) and the result
    summary — and skips ``created``/``env``/``metrics`` noise.  An
    empty list means the runs should be interchangeable.
    """
    lines: list[str] = []
    for field in ("name", "seed", "git_sha"):
        if baseline.get(field) != current.get(field):
            lines.append(f"{field}: {baseline.get(field)!r} -> {current.get(field)!r}")
    for section in ("config", "summary"):
        old, new = baseline.get(section, {}), current.get(section, {})
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                lines.append(
                    f"{section}.{key}: {old.get(key)!r} -> {new.get(key)!r}"
                )
    old_stages, new_stages = baseline.get("stages", {}), current.get("stages", {})
    for name in sorted(set(old_stages) | set(new_stages)):
        if name not in old_stages:
            lines.append(f"stage {name}: (absent) -> {new_stages[name]:.1f} ms")
        elif name not in new_stages:
            lines.append(f"stage {name}: {old_stages[name]:.1f} ms -> (absent)")
        elif old_stages[name] != new_stages[name]:
            old_ms, new_ms = old_stages[name], new_stages[name]
            if old_ms > 0:
                change = 100.0 * (new_ms - old_ms) / old_ms
                lines.append(
                    f"stage {name}: {old_ms:.1f} ms -> {new_ms:.1f} ms ({change:+.0f}%)"
                )
            else:
                lines.append(f"stage {name}: {old_ms:.1f} ms -> {new_ms:.1f} ms")
    return lines
