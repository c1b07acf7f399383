"""Unit tests for the deterministic SLO burn-rate engine (repro.obs.slo)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    REQUESTS_KIND,
    SLO_KIND,
    START_KIND,
    BurnWindow,
    SloConfig,
    SloEngine,
    audit_slo,
    parse_burn_windows,
    slo_from_ledger,
)
from repro.serve.ledger import (
    EVENT_REQUESTS,
    EVENT_SLO,
    EVENT_START,
    LedgerWriter,
)


class TestKindStringsPinned:
    def test_duplicated_literals_match_ledger_schema(self):
        """slo.py duck-types over ledger events without importing
        repro.serve; this pins its hardcoded kind strings to the schema
        constants so a ledger rename cannot silently desynchronize them.
        """
        assert START_KIND == EVENT_START
        assert REQUESTS_KIND == EVENT_REQUESTS
        assert SLO_KIND == EVENT_SLO


class TestBurnWindowValidation:
    def test_rejects_zero_short(self):
        with pytest.raises(ValueError, match="short_ticks"):
            BurnWindow("x", short_ticks=0, long_ticks=4, threshold=1.0)

    def test_rejects_long_shorter_than_short(self):
        with pytest.raises(ValueError, match="long_ticks"):
            BurnWindow("x", short_ticks=8, long_ticks=4, threshold=1.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            BurnWindow("x", short_ticks=2, long_ticks=4, threshold=0.0)

    def test_roundtrips_through_dict(self):
        window = BurnWindow("fast", 2, 8, 6.0)
        assert BurnWindow.from_dict(window.to_dict()) == window


class TestSloConfig:
    def test_defaults(self):
        config = SloConfig()
        assert config.target == 0.99
        assert config.windows == DEFAULT_BURN_WINDOWS
        assert config.error_budget == pytest.approx(0.01)
        assert config.max_window_ticks == 32

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            SloConfig(target=1.0)

    def test_rejects_duplicate_window_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloConfig(windows=(
                BurnWindow("a", 1, 2, 1.0), BurnWindow("a", 2, 4, 2.0),
            ))

    def test_roundtrips_through_dict(self):
        config = SloConfig(target=0.95, windows=(BurnWindow("only", 1, 4, 3.0),))
        assert SloConfig.from_dict(config.to_dict()) == config


class TestParseBurnWindows:
    def test_parses_cli_grammar(self):
        windows = parse_burn_windows("fast:2:8:6,slow:8:32:2")
        assert windows == DEFAULT_BURN_WINDOWS

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="name:short:long:threshold"):
            parse_burn_windows("fast:2:8")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_burn_windows("a:1:2:3,a:1:2:3")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no burn windows"):
            parse_burn_windows(" , ")


class TestBurnRateMath:
    def _engine(self, short=2, long=4, threshold=2.0, target=0.9):
        return SloEngine(SloConfig(
            target=target,
            windows=(BurnWindow("w", short, long, threshold),),
        ))

    def test_burn_is_bad_fraction_over_budget(self):
        engine = self._engine()
        # 50% bad over a 10% budget -> burn 5.0 in both windows.
        engine.observe("t", 0, {"ok": 5, "failed": 5})
        (short, long) = engine.burn_rates("t")["w"]
        assert short == pytest.approx(5.0)
        assert long == pytest.approx(5.0)

    def test_no_traffic_is_zero_burn(self):
        engine = self._engine()
        engine.observe("t", 0, {})
        assert engine.burn_rates("t")["w"] == (0.0, 0.0)

    def test_alert_needs_both_windows(self):
        """A single bad tick trips the short window but not the long one."""
        engine = self._engine(short=1, long=4, threshold=2.0)
        for tick in range(3):
            assert engine.observe("t", tick, {"ok": 10}) == []
        # One fully-bad tick: short burn 10.0, long burn (10/40)/0.1=2.5
        # -> fires; next good tick clears the short window -> resolves.
        transitions = engine.observe("t", 3, {"failed": 10})
        assert [t["state"] for t in transitions] == ["firing"]
        transitions = engine.observe("t", 4, {"ok": 10})
        assert [t["state"] for t in transitions] == ["resolved"]

    @settings(max_examples=200, deadline=None)
    @given(
        ticks=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=60
        ),
        windows=st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 40)),
            min_size=1, max_size=3,
        ),
        target=st.sampled_from([0.9, 0.99, 0.999]),
    )
    def test_running_totals_equal_the_window_sum(self, ticks, windows, target):
        """The burn rate read from running totals is the float the
        brute-force sum over the trailing ticks gives, bit for bit."""
        config = SloConfig(
            target=target,
            windows=tuple(
                BurnWindow(f"w{i}", min(a, b), max(a, b), 1.0)
                for i, (a, b) in enumerate(windows)
            ),
        )
        engine = SloEngine(config)
        seen = []
        for tick, (ok, bad) in enumerate(ticks):
            engine.observe("t", tick, {"ok": ok, "failed": bad})
            seen.append((ok, ok + bad))
            retained = seen[-config.max_window_ticks:]
            for window in config.windows:
                expected = []
                for length in (window.short_ticks, window.long_ticks):
                    tail = retained[len(retained) - min(length, len(retained)):]
                    good = sum(ok for ok, _ in tail)
                    offered = sum(offered for _, offered in tail)
                    expected.append(
                        (offered - good) / offered / config.error_budget
                        if offered else 0.0
                    )
                assert engine.burn_rates("t")[window.name] == tuple(expected)

    def test_transition_attrs_carry_exemplar_span_path(self):
        engine = self._engine(short=1, long=1, threshold=1.0)
        (transition,) = engine.observe("websearch", 7, {"failed": 4})
        assert transition["span_path"] == "serve/tenant:websearch/tick:7"
        assert transition["rule"] == "w"
        assert transition["threshold"] == 1.0

    def test_no_retransition_while_firing(self):
        engine = self._engine(short=1, long=1, threshold=1.0)
        assert len(engine.observe("t", 0, {"failed": 1})) == 1
        assert engine.observe("t", 1, {"failed": 1}) == []
        assert engine.firing("t") == ["w"]

    def test_deterministic_across_runs(self):
        def run():
            engine = SloEngine()
            ticks = [{"ok": 8, "failed": 2}, {"ok": 10}, {"failed": 10}] * 15
            for tick, counts in enumerate(ticks):
                engine.observe("t", tick, counts)
            return engine.transitions

        assert run() == run()


class TestLedgerReplayAudit:
    def _ledger(self, tick_counts, config=None, record=True):
        """Build an in-memory ledger, optionally recording live alerts."""
        engine = SloEngine(config)
        writer = LedgerWriter()
        writer.append(-1, EVENT_START, attrs={
            "tenants": ["t"], "slo": engine.config.to_dict(),
        })
        for tick, counts in enumerate(tick_counts):
            writer.append(tick, EVENT_REQUESTS, tenant="t", attrs=counts)
            if record:
                for attrs in engine.observe("t", tick, counts):
                    writer.append(tick, EVENT_SLO, tenant="t", attrs=attrs)
        return writer.events, engine

    def test_offline_replay_matches_live(self):
        ticks = ([{"ok": 10}] * 5 + [{"failed": 10}] * 5) * 4
        events, engine = self._ledger(ticks)
        replay = slo_from_ledger(events)
        assert replay.computed == engine.transitions
        assert replay.recorded == engine.transitions
        assert replay.consistent
        assert len(replay.computed) > 0

    def test_config_recovered_from_start_event(self):
        config = SloConfig(target=0.5, windows=(BurnWindow("x", 1, 2, 1.5),))
        events, _ = self._ledger([{"failed": 4}] * 4, config=config)
        replay = slo_from_ledger(events)
        assert replay.config == config

    def test_audit_raises_on_tampered_ledger(self):
        ticks = [{"ok": 10}] * 3 + [{"failed": 10}] * 6
        events, _ = self._ledger(ticks)
        tampered = [e for e in events if e.kind != EVENT_SLO]
        with pytest.raises(ValueError, match="slo audit failed"):
            audit_slo(tampered)

    def test_audit_passes_clean_ledger(self):
        ticks = [{"ok": 10}] * 3 + [{"failed": 10}] * 6
        events, _ = self._ledger(ticks)
        assert audit_slo(events).consistent


class TestViews:
    def test_availability_history_oldest_first(self):
        engine = SloEngine()
        engine.observe("t", 0, {"ok": 10})
        engine.observe("t", 1, {"ok": 5, "failed": 5})
        assert engine.availability_history("t") == [1.0, 0.5]

    def test_to_dict_shape(self):
        engine = SloEngine()
        engine.observe("t", 0, {"failed": 10})
        payload = engine.to_dict()
        assert payload["target"] == 0.99
        assert set(payload["tenants"]["t"]) == {"fast", "slow"}
        rule = payload["tenants"]["t"]["fast"]
        assert set(rule) == {
            "state", "since_tick", "burn_short", "burn_long", "threshold",
        }

    def test_unknown_tenant_views_are_empty(self):
        engine = SloEngine()
        assert engine.burn_rates("nope") == {}
        assert engine.firing("nope") == []
        assert engine.availability_history("nope") == []
