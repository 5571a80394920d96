"""Correlation ids: context-local binding, audit/span attachment."""

import asyncio

from repro.obs import (
    audit_log,
    audit_record,
    correlated,
    correlation_id,
    set_correlation,
    set_obs_enabled,
    span,
    span_records,
)


class TestBinding:
    def test_default_is_none(self):
        assert correlation_id() is None

    def test_correlated_scopes_and_restores(self):
        with correlated("s0-u0001"):
            assert correlation_id() == "s0-u0001"
            with correlated("s0-u0002"):
                assert correlation_id() == "s0-u0002"
            assert correlation_id() == "s0-u0001"
        assert correlation_id() is None

    def test_falsy_binding_means_unset(self):
        set_correlation("outer")
        with correlated(""):
            assert correlation_id() is None
        assert correlation_id() == "outer"

    def test_asyncio_tasks_inherit_the_binding(self):
        async def child():
            return correlation_id()

        async def main():
            with correlated("s1-u0001"):
                inherited = asyncio.ensure_future(child())
            with correlated("s2-u0001"):
                pass
            return await inherited

        # The task snapshots the context at creation; later rebinding
        # in the parent never leaks into it.
        assert asyncio.run(main()) == "s1-u0001"


class TestAttachment:
    def test_audit_records_carry_corr(self):
        set_obs_enabled(True)
        with correlated("s0-u0003"):
            audit_record("serving", utterance=3)
        audit_record("serving", utterance=4)
        records = audit_log().records()
        assert records[0]["corr"] == "s0-u0003"
        assert "corr" not in records[1]

    def test_explicit_corr_field_wins(self):
        set_obs_enabled(True)
        with correlated("ambient"):
            audit_record("event", corr="explicit")
        assert audit_log().records()[0]["corr"] == "explicit"

    def test_spans_carry_corr_label(self):
        set_obs_enabled(True)
        with correlated("s0-u0005"):
            with span("gate.decision"):
                pass
        with span("uncorrelated"):
            pass
        by_name = {record.name: dict(record.labels) for record in span_records()}
        assert by_name["gate.decision"]["corr"] == "s0-u0005"
        assert "corr" not in by_name["uncorrelated"]
