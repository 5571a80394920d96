"""Traffic generator: determinism, mix control, config, bank renders."""

import pytest

from repro.traffic import (
    ATTACK_SOURCES,
    SOURCES,
    TRUTH_BY_SOURCE,
    CaptureBank,
    TrafficConfig,
    capture_fingerprint,
    event_stream_fingerprint,
    generate_city,
    generate_events,
    generate_households,
)


class TestEventDeterminism:
    def test_same_seed_same_event_stream(self):
        config = TrafficConfig(households=40, seed=7)
        _, first = generate_city(config)
        _, second = generate_city(TrafficConfig(households=40, seed=7))
        assert first == second
        assert event_stream_fingerprint(first) == event_stream_fingerprint(second)

    def test_different_seed_different_stream(self):
        _, first = generate_city(TrafficConfig(households=40, seed=7))
        _, second = generate_city(TrafficConfig(households=40, seed=8))
        assert event_stream_fingerprint(first) != event_stream_fingerprint(second)

    def test_households_independent_of_city_size(self):
        # Household k is drawn from its own seeded stream, so growing the
        # city extends it without rewriting existing households' days.
        small = generate_households(TrafficConfig(households=10, seed=3))
        large = generate_households(TrafficConfig(households=30, seed=3))
        assert large[:10] == small
        small_events = generate_events(TrafficConfig(households=10, seed=3))
        large_events = generate_events(TrafficConfig(households=30, seed=3))
        small_keys = {(e.household, e.time_s, e.source) for e in small_events}
        large_keys = {
            (e.household, e.time_s, e.source)
            for e in large_events
            if e.household < 10
        }
        assert small_keys == large_keys

    def test_events_sorted_and_labelled(self):
        config = TrafficConfig(households=25, seed=0)
        _, events = generate_city(config)
        assert len(events) > 100
        assert all(
            events[i].time_s <= events[i + 1].time_s for i in range(len(events) - 1)
        )
        for event in events:
            assert event.source in SOURCES
            assert event.truth == TRUTH_BY_SOURCE[event.source]
            assert event.truth == (event.source == "live-facing")
            assert event.key == (event.room, event.source, event.variant)
            assert event.slices() == {"source": event.source, "room": event.room}


class TestMixShift:
    def test_shift_boosts_the_shift_source_after_the_hour(self):
        config = TrafficConfig(households=60, seed=1, shift=True)
        _, events = generate_city(config)
        noon = config.shift_hour * 3600.0

        def loudspeaker_share(batch):
            return sum(1 for e in batch if e.source == "loudspeaker") / len(batch)

        pre = [e for e in events if e.time_s < noon]
        post = [e for e in events if e.time_s >= noon]
        assert loudspeaker_share(post) > 3 * loudspeaker_share(pre)

    def test_stationary_city_unchanged_by_shift_flag_before_noon(self):
        base = TrafficConfig(households=20, seed=5)
        shifted = TrafficConfig(households=20, seed=5, shift=True)
        _, plain = generate_city(base)
        _, with_shift = generate_city(shifted)
        noon = base.shift_hour * 3600.0
        assert [e for e in plain if e.time_s < noon] == [
            e for e in with_shift if e.time_s < noon
        ]


class TestConfig:
    def test_validation_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            TrafficConfig(households=0)
        with pytest.raises(ValueError):
            TrafficConfig(rooms=("garage",))
        with pytest.raises(ValueError):
            TrafficConfig(mix=(("live-facing", 0.0),))
        with pytest.raises(ValueError):
            TrafficConfig(attack_mix=1.0)
        with pytest.raises(ValueError):
            TrafficConfig(attack_mix=-0.1)
        with pytest.raises(ValueError):
            TrafficConfig(attack_sophistication=-1.0)


class TestAttackMix:
    def test_zero_attack_mix_keeps_the_clean_stream_byte_identical(self):
        clean = TrafficConfig(households=30, seed=3)
        assert clean.event_mix() == clean.mix
        explicit = TrafficConfig(households=30, seed=3, attack_mix=0.0)
        _, first = generate_city(clean)
        _, second = generate_city(explicit)
        assert event_stream_fingerprint(first) == event_stream_fingerprint(second)

    def test_event_mix_lands_attacks_at_the_requested_fraction(self):
        config = TrafficConfig(attack_mix=0.2)
        mix = dict(config.event_mix())
        attack_total = sum(mix[s] for s in ATTACK_SOURCES)
        base_total = sum(w for s, w in mix.items() if s not in ATTACK_SOURCES)
        assert attack_total / (attack_total + base_total) == pytest.approx(0.2)
        # Split evenly over the four families.
        assert len({mix[s] for s in ATTACK_SOURCES}) == 1

    def test_attack_events_are_labelled_and_false_truth(self):
        config = TrafficConfig(households=60, seed=1, attack_mix=0.3)
        _, events = generate_city(config)
        attack_events = [e for e in events if e.source in ATTACK_SOURCES]
        assert attack_events, "a 30% attack mix over 60 households must land events"
        assert all(not e.truth for e in attack_events)
        assert all(TRUTH_BY_SOURCE[s] is False for s in ATTACK_SOURCES)

    def test_attack_day_is_deterministic(self):
        config = TrafficConfig(households=30, seed=5, attack_mix=0.2)
        _, first = generate_city(config)
        _, second = generate_city(config)
        assert event_stream_fingerprint(first) == event_stream_fingerprint(second)


class TestCaptureBank:
    def test_bank_covers_the_taxonomy_and_renders_identically_serial_vs_pool(self, two_workers):
        config = TrafficConfig(households=1, seed=0, variants=1, rooms=("lab",))
        serial = CaptureBank(config)
        serial.render(workers=1)
        assert sorted(serial.captures) == [
            ("lab", source, 0) for source in sorted(SOURCES)
        ]
        pooled = CaptureBank(config)
        pooled.render(workers=2)
        assert serial.fingerprints() == pooled.fingerprints()

    def test_fingerprints_require_render(self):
        bank = CaptureBank(TrafficConfig(variants=1, rooms=("lab",)))
        with pytest.raises(RuntimeError):
            bank.fingerprints()

    def test_capture_fingerprint_tracks_content(self):
        config = TrafficConfig(households=1, seed=0, variants=1, rooms=("lab",))
        bank = CaptureBank(config)
        bank.render(workers=1)
        captures = list(bank.captures.values())
        assert capture_fingerprint(captures[0]) != capture_fingerprint(captures[1])
        assert capture_fingerprint(captures[0]) == capture_fingerprint(captures[0])

    def test_attack_mix_adds_attack_archetypes_without_touching_clean_ones(self):
        clean = TrafficConfig(households=1, seed=0, variants=1, rooms=("lab",))
        armed = TrafficConfig(
            households=1, seed=0, variants=1, rooms=("lab",),
            attack_mix=0.2, attack_sophistication=2.0,
        )
        clean_bank, armed_bank = CaptureBank(clean), CaptureBank(armed)
        clean_bank.render(workers=1)
        armed_bank.render(workers=1)
        clean_prints = clean_bank.fingerprints()
        armed_prints = armed_bank.fingerprints()
        # Clean archetypes keep their bytes; attack archetypes join.
        assert {k: v for k, v in armed_prints.items() if k in clean_prints} == clean_prints
        assert set(armed_prints) - set(clean_prints) == {
            ("lab", source, 0) for source in ATTACK_SOURCES
        }

    def test_attack_archetypes_render_identically_serial_vs_pool(self, two_workers):
        config = TrafficConfig(
            households=1, seed=0, variants=1, rooms=("lab",), attack_mix=0.2
        )
        serial, pooled = CaptureBank(config), CaptureBank(config)
        serial.render(workers=1)
        pooled.render(workers=2)
        assert serial.fingerprints() == pooled.fingerprints()
