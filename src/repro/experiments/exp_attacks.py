"""E30 — adaptive-attacker robustness: EER vs attacker sophistication.

The adversarial counterpart of E01.  The liveness network is trained
exactly as E01 trains it (same seeds, same ASVspoof-like pretrain, same
incremental adaptation), so the naive-replay operating point here *is*
the E01 operating point.  The network is then attacked by the four
:mod:`repro.attacks` families at each sophistication tier, and scored
twice per tier:

- **un-hardened** — the plain network posterior (what shipped before
  ROADMAP item 4);
- **hardened** — :class:`~repro.core.liveness.FusedLivenessDetector`
  over the same network, blending the single-channel physics cues
  (spectral decay, residual floor) and the array cues (TDoA coherence,
  directivity consistency).

The hardening gate: at every tier the hardened pooled EER must beat the
un-hardened pooled EER (the margin is baselined in
``benchmarks/baselines/BENCH_attacks.json``).  The orientation gate is
measured alongside: every attacker aims straight at the device, so the
facing probability of attack captures against live facing captures is
the orientation detector's own attack EER.
"""

from __future__ import annotations

import numpy as np

from ..arrays.devices import default_channel_subset, get_device
from ..attacks import SOPHISTICATION_TIERS, preset_attack, render_attack_captures
from ..core.features import OrientationFeatureExtractor
from ..core.liveness import LIVE_HUMAN, FusedLivenessDetector, LivenessDetector
from ..core.preprocessing import preprocess
from ..datasets.asvspoof import make_asvspoof_like
from ..datasets.catalog import (
    BENCH,
    Scale,
    build_liveness_dataset,
    dataset1_specs,
    dataset2_specs,
)
from ..datasets.collection import CollectionSpec, collect
from ..ml.metrics import equal_error_rate
from ..reporting import ExperimentResult
from .common import default_dataset, fit_detector

ATTACK_FAMILIES = ("eq-replay", "horn-replay", "speakear", "tdoa-replay")

_LIVE_EVAL_SPECS = (
    (100, "lab", ((1.0, 0.0), (2.0, 0.0), (3.0, 10.0))),
    (101, "lab", ((1.5, 5.0), (2.5, -5.0), (3.0, 0.0))),
    (102, "home", ((1.0, 0.0), (2.0, 0.0), (1.5, 15.0))),
    (103, "lab", ((1.5, 5.0), (2.5, -5.0), (3.0, 0.0))),
    (104, "home", ((1.0, 0.0), (2.0, 0.0), (1.5, 15.0))),
)
"""(speaker seed, room, locations) for the held-out live eval speakers —
voices the adapted network never saw, facing the device (angles 0/15)."""


def _train_liveness_network(
    scale: Scale, seed: int, n_pretrain: int, pretrain_epochs: int, adapt_epochs: int
) -> tuple[LivenessDetector, float]:
    """The E01 pretrain -> adapt flow; returns (detector, naive test EER)."""
    corpus = make_asvspoof_like(n_utterances=n_pretrain, seed=seed)
    rng = np.random.default_rng(seed)
    pre_train, _pre_val = corpus.split((0.8, 0.2), rng)
    detector = LivenessDetector(epochs=pretrain_epochs, random_state=seed)
    detector.network.batch_size = 16
    detector.network.fit(pre_train.features, pre_train.labels, reset=True)

    human_specs = dataset1_specs(
        scale, rooms=("lab",), devices=("D2",), wake_words=("computer", "hey assistant")
    )
    pool = build_liveness_dataset(human_specs + dataset2_specs(scale), seed)
    adapt, _inc_val, test = pool.split((0.2, 0.2, 0.6), rng)
    detector.network.fit(adapt.features, adapt.labels, epochs=adapt_epochs, reset=False)
    scores = detector.network.scores(test.features, positive_label=LIVE_HUMAN)
    naive_eer = equal_error_rate(test.labels, scores, positive_label=LIVE_HUMAN)
    return detector, float(naive_eer)


def _live_eval_audios(n_per_speaker: int) -> list:
    """Held-out live facing captures, preprocessed."""
    audios = []
    for speaker_seed, room, locations in _LIVE_EVAL_SPECS:
        spec = CollectionSpec(
            room=room,
            locations=locations,
            angles=(0.0, 15.0),
            repetitions=1,
            speaker_seed=speaker_seed,
        )
        collected = [preprocess(c) for _, c in collect(spec, speaker_seed)]
        audios.extend(collected[:n_per_speaker])
    return audios


def _eer(live_scores: np.ndarray, attack_scores: np.ndarray) -> float:
    labels = np.r_[
        np.ones(live_scores.size, dtype=int), np.zeros(attack_scores.size, dtype=int)
    ]
    return float(
        equal_error_rate(labels, np.r_[live_scores, attack_scores], positive_label=1)
    )


def run(
    scale: Scale = BENCH,
    seed: int = 0,
    n_pretrain: int = 160,
    pretrain_epochs: int = 200,
    adapt_epochs: int = 400,
    tiers: tuple[float, ...] = SOPHISTICATION_TIERS,
    n_per_family: int = 8,
    n_live_per_speaker: int = 6,
    attack_seed: int = 7,
) -> ExperimentResult:
    """Liveness + orientation EER against each attacker family and tier.

    Rows: one ``naive`` row anchoring the E01 operating point, then per
    tier a pooled row (all four families) plus one row per family.  The
    hardening claim lives in the pooled rows: ``hardened_eer_pct`` must
    be below ``base_eer_pct`` at every tier.
    """
    detector, naive_eer = _train_liveness_network(
        scale, seed, n_pretrain, pretrain_epochs, adapt_epochs
    )
    fused = FusedLivenessDetector(base=detector)

    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    extractor = OrientationFeatureExtractor(array=array)

    live_audios = _live_eval_audios(n_live_per_speaker)
    sample_rate = live_audios[0].sample_rate
    live_base = detector.scores([a.reference for a in live_audios], sample_rate)
    live_hard = fused.fused_scores(live_audios, extractor)

    orientation = fit_detector(default_dataset(scale=scale, seed=seed))
    live_facing = orientation.facing_probability(extractor.extract_batch(live_audios))

    rows = [
        {
            "tier": "naive",
            "family": "replay (E01 test)",
            "base_eer_pct": 100 * naive_eer,
            "hardened_eer_pct": float("nan"),
            "orientation_eer_pct": float("nan"),
            "n_attacks": 0,
        }
    ]
    pooled = {}
    for tier in tiers:
        family_scores = {}
        tier_audios = []
        for family in ATTACK_FAMILIES:
            scenario = preset_attack(family, sophistication=tier, seed=attack_seed)
            captures = render_attack_captures(scenario, n_utterances=n_per_family)
            audios = [preprocess(c) for c in captures]
            tier_audios.extend(audios)
            family_scores[family] = (
                detector.scores([a.reference for a in audios], sample_rate),
                fused.fused_scores(audios, extractor),
            )
        attack_base = np.concatenate([s[0] for s in family_scores.values()])
        attack_hard = np.concatenate([s[1] for s in family_scores.values()])
        attack_facing = orientation.facing_probability(
            extractor.extract_batch(tier_audios)
        )
        base_eer = _eer(live_base, attack_base)
        hard_eer = _eer(live_hard, attack_hard)
        orient_eer = _eer(live_facing, attack_facing)
        pooled[tier] = {
            "base": base_eer,
            "hardened": hard_eer,
            "orientation": orient_eer,
        }
        rows.append(
            {
                "tier": f"{tier:g}",
                "family": "pooled",
                "base_eer_pct": 100 * base_eer,
                "hardened_eer_pct": 100 * hard_eer,
                "orientation_eer_pct": 100 * orient_eer,
                "n_attacks": len(tier_audios),
            }
        )
        for family, (base_scores, hard_scores) in family_scores.items():
            rows.append(
                {
                    "tier": f"{tier:g}",
                    "family": family,
                    "base_eer_pct": 100 * _eer(live_base, base_scores),
                    "hardened_eer_pct": 100 * _eer(live_hard, hard_scores),
                    "orientation_eer_pct": float("nan"),
                    "n_attacks": base_scores.size,
                }
            )

    margins = {
        f"tier{tier:g}_margin": 100 * (metrics["base"] - metrics["hardened"])
        for tier, metrics in pooled.items()
    }
    return ExperimentResult(
        experiment_id="E30",
        title="Adaptive-attacker robustness: EER vs sophistication (ROADMAP item 4)",
        headers=[
            "tier",
            "family",
            "base_eer_pct",
            "hardened_eer_pct",
            "orientation_eer_pct",
            "n_attacks",
        ],
        rows=rows,
        paper=(
            "not in the paper: adversarial extension; gate = hardened pooled EER "
            "below un-hardened at every sophistication tier"
        ),
        summary={
            "naive_eer": 100 * naive_eer,
            "hardened_beats_base_all_tiers": bool(
                all(m["hardened"] < m["base"] for m in pooled.values())
            ),
            **margins,
        },
    )
