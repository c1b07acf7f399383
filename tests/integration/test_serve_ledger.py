"""Serving-layer integration: determinism, ledger audit, CLI, policies.

Three of the PR's acceptance criteria live here:

* **Determinism** — two seeded serve sessions produce *byte-identical*
  JSONL ledgers, and an adversarial asyncio stagger hook (injecting
  random extra event-loop yields into every tenant tick) cannot change
  a single byte.
* **Ledger-replay audit** — availability recomputed from the JSONL
  ledger alone equals the live :class:`~repro.obs.ServeInstruments`
  gauges at shutdown, exactly.
* **End-to-end behavior** — the Table 2 policies actually fire under
  load, admission control sheds when the response backlog grows, and
  the ``repro serve`` CLI round-trips through ``--json``.
"""

import asyncio
import dataclasses
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.top import run_top, snapshot_from_ledger
from repro.serve import (
    LEDGER_VERSION,
    ServeConfig,
    default_tenants,
    load_ledger,
    replay_ledger,
    run_serve,
    serve_session,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG = ServeConfig(duration_ticks=25, error_rate=1.5, seed=20140622)
SCALE = 0.3


def run_once(tmp_path: Path, name: str, stagger=None):
    ledger = tmp_path / f"{name}.jsonl"
    result = asyncio.run(
        serve_session(CONFIG, ledger_path=ledger, stagger=stagger, scale=SCALE)
    )
    return result, ledger.read_bytes()


class TestDeterminism:
    def test_ledger_byte_identical_across_runs(self, tmp_path):
        _, first = run_once(tmp_path, "run1")
        _, second = run_once(tmp_path, "run2")
        assert first == second

    def test_ledger_survives_interleaving_perturbation(self, tmp_path):
        """A hostile event-loop schedule must not leak into the ledger."""
        _, baseline = run_once(tmp_path, "base")

        chaos = random.Random(0xC0FFEE)

        async def stagger(tenant: str, tick: int) -> None:
            for _ in range(chaos.randrange(4)):
                await asyncio.sleep(0)

        _, perturbed = run_once(tmp_path, "perturbed", stagger=stagger)
        assert baseline == perturbed

    def test_tenant_phase_makes_tasks_only_for_a_hook(self, tmp_path):
        """Without a stagger hook (or server) nothing can interleave the
        tenant ticks, so the session awaits them in order and creates
        no task; with a hook, one per tenant per tick."""

        async def count_tasks(stagger):
            created = []
            loop = asyncio.get_running_loop()

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            await serve_session(
                CONFIG, ledger_path=tmp_path / "tasks.jsonl",
                stagger=stagger, scale=SCALE,
            )
            return len(created)

        async def stagger(tenant: str, tick: int) -> None:
            pass

        assert asyncio.run(count_tasks(None)) == 0
        assert asyncio.run(count_tasks(stagger)) == 3 * CONFIG.duration_ticks

    def test_a_reused_tenant_list_serves_as_a_fresh_one(self, tmp_path):
        """A second session on the same tenant objects must not start
        from the first one's cursor, epochs, resident faults, owed
        memory or decisions: ``build()`` makes every tenant new."""
        config = ServeConfig(duration_ticks=20, error_rate=1.0, seed=5)

        def session(tenants, name):
            ledger = tmp_path / f"{name}.jsonl"
            run_serve(config, tenants=tenants, ledger_path=ledger, scale=0.1)
            decisions = {t.name: dict(t.decisions) for t in tenants}
            return ledger.read_bytes(), decisions

        reused = default_tenants(scale=0.1)
        first = session(reused, "first")
        second = session(reused, "second")
        fresh = session(default_tenants(scale=0.1), "fresh")
        assert first == fresh
        assert second == fresh

    def test_replay_equal_across_runs(self, tmp_path):
        first, _ = run_once(tmp_path, "ra")
        second, _ = run_once(tmp_path, "rb")
        assert first.replay.to_dict() == second.replay.to_dict()


class TestLedgerAudit:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("serve")
        ledger = tmp_path / "audit.jsonl"
        registry = MetricsRegistry()
        result = run_serve(
            CONFIG, ledger_path=ledger, registry=registry, scale=SCALE
        )
        return result, ledger, registry

    def test_replay_matches_live_instruments(self, session):
        """Availability from the ledger alone == live gauges at shutdown."""
        result, ledger, _ = session
        replay = replay_ledger(load_ledger(ledger))
        assert set(replay.tenants) == {"graphmining", "kvstore", "websearch"}
        for name, summary in replay.tenants.items():
            live = result.instruments.availability_of(name)
            assert summary.availability == live

    def test_stop_event_agrees_with_replay(self, session):
        result, ledger, _ = session
        events = load_ledger(ledger)
        stop = events[-1]
        assert stop.kind == "serve_stop"
        replay = replay_ledger(events)
        for name, summary in replay.tenants.items():
            assert stop.attrs["availability"][name] == summary.availability

    def test_availability_gauge_in_registry(self, session):
        result, _, registry = session
        replay = result.replay
        gauge = registry.to_dict()["serve_tenant_availability"]["values"]
        expected = {
            f"tenant={name}": summary.availability
            for name, summary in replay.tenants.items()
        }
        assert gauge == expected

    def test_ledger_schema(self, session):
        _, ledger, _ = session
        events = load_ledger(ledger)
        assert events[0].kind == "serve_start"
        assert events[0].attrs["version"] == LEDGER_VERSION
        assert [event.seq for event in events] == list(range(len(events)))
        ticks = [event.tick for event in events]
        assert ticks == sorted(ticks)

    def test_repr_leaves_out_the_events(self, session):
        """asyncio formats the finished main task, hence the result, at
        teardown: its repr must not grow with the ledger."""
        result, _, _ = session
        text = repr(result)
        assert "LedgerEvent(" not in text
        assert len(text) < 10_000
        assert len(text) < sum(len(repr(event)) for event in result.events) / 3

    def test_faults_and_policies_fire(self, session):
        result, _, _ = session
        replay = result.replay
        total_faults = sum(
            sum(summary.faults.values()) for summary in replay.tenants.values()
        )
        total_responses = sum(
            sum(summary.responses.values())
            for summary in replay.tenants.values()
        )
        assert total_faults > 0
        assert total_responses > 0


class TestTruncatedLedger:
    """A cut ledger replays (a live session's does too) but says so."""

    TICKS = 20

    @pytest.fixture(scope="class")
    def ledger(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cut") / "whole.jsonl"
        result = run_serve(
            ServeConfig(duration_ticks=self.TICKS, error_rate=0.5, seed=5),
            ledger_path=path,
            scale=SCALE,
        )
        assert result.replay.complete
        return path

    def cut(self, ledger: Path, keep) -> Path:
        lines = ledger.read_text().splitlines(keepends=True)
        path = ledger.with_name(f"cut-{keep(len(lines))}.jsonl")
        path.write_text("".join(lines[: keep(len(lines))]))
        return path

    def test_whole_ledger_is_complete(self, ledger):
        replay = replay_ledger(load_ledger(ledger))
        assert replay.complete and replay.to_dict()["complete"]
        assert replay.ticks == self.TICKS
        assert snapshot_from_ledger(ledger)[0]["complete"]

    def test_tail_cut_loses_only_the_stop_event(self, ledger):
        whole = replay_ledger(load_ledger(ledger))
        replay = replay_ledger(load_ledger(self.cut(ledger, lambda n: n - 1)))
        assert not replay.complete
        assert {n: s.offered for n, s in replay.tenants.items()} == {
            n: s.offered for n, s in whole.tenants.items()
        }

    def test_mid_cut_replays_half_and_says_so(self, ledger, capsys):
        whole = replay_ledger(load_ledger(ledger))
        half = self.cut(ledger, lambda n: n // 2)
        replay = replay_ledger(load_ledger(half))  # legal: a live session
        assert not replay.complete
        assert 0 < replay.ticks < self.TICKS
        for name, summary in replay.tenants.items():
            assert 0 < summary.offered < whole.tenants[name].offered
        status, _ = snapshot_from_ledger(half)
        assert not status["complete"]
        out = io.StringIO()
        assert run_top(str(half), out=out) == 0
        assert "running]" in out.getvalue()
        assert "incomplete" in capsys.readouterr().err

    def cut_mid_line(self, ledger: Path) -> Path:
        """The ledger as a reader sees it while the writer is mid-line."""
        data = ledger.read_bytes()
        half = data.index(b"\n", len(data) // 2) + 1
        path = ledger.with_name("cut-mid-line.jsonl")
        path.write_bytes(data[: half + 20])
        return path

    def test_mid_line_cut_drops_the_write_in_progress(self, ledger, capsys):
        cut = self.cut_mid_line(ledger)
        whole_lines = ledger.read_text().count("\n")
        events = load_ledger(cut)
        assert 0 < len(events) == cut.read_text().count("\n") < whole_lines
        assert not replay_ledger(events).complete
        out = io.StringIO()
        assert run_top(str(cut), out=out) == 0
        assert "running]" in out.getvalue()
        assert "incomplete" in capsys.readouterr().err
        assert main(["report", str(cut)]) == 0
        assert "INCOMPLETE LEDGER" in capsys.readouterr().out

    def test_malformed_whole_line_is_a_one_line_error(self, ledger, capsys):
        lines = ledger.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:20] + "\n"
        bad = ledger.with_name("malformed.jsonl")
        bad.write_text("".join(lines))
        with pytest.raises(ValueError, match=":4: malformed ledger event"):
            load_ledger(bad)
        for command in (["top", str(bad), "--once"], ["report", str(bad)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "malformed ledger event" in err
            assert err.count("\n") == 1, err

    def test_missing_requests_event_is_incomplete(self, ledger):
        events = load_ledger(ledger)
        hole = next(
            index for index, event in enumerate(events)
            if event.kind == "requests" and event.tick == self.TICKS // 2
        )
        replay = replay_ledger(events[:hole] + events[hole + 1 :])
        assert replay.stop_attrs and not replay.complete

    def test_stop_before_the_announced_duration_is_incomplete(self, ledger):
        events = load_ledger(ledger)
        start = events[0]
        longer = dataclasses.replace(
            start, attrs={**start.attrs, "duration_ticks": self.TICKS + 5}
        )
        assert not replay_ledger([longer] + events[1:]).complete


class TestSessionFold:
    """The session folds its own events: ``ServeResult.replay`` is the
    fold the live session built while appending, never a re-read."""

    @pytest.mark.parametrize(
        "seed, error_rate, policy, staggered",
        [
            (3, 0.05, None, False),
            (7, 1.0, None, True),
            (29, 2.0, None, False),
            (5, 1.0, "restart-rank", False),
            (11, 2.0, "restart-rank", True),
            (2014, 0.05, None, True),
        ],
    )
    def test_session_fold_is_the_offline_replay(
        self, tmp_path, seed, error_rate, policy, staggered
    ):
        chaos = random.Random(seed)

        async def stagger(tenant: str, tick: int) -> None:
            for _ in range(chaos.randrange(4)):
                await asyncio.sleep(0)

        ledger = tmp_path / "fold.jsonl"
        config = ServeConfig(
            duration_ticks=20, error_rate=error_rate, seed=seed, policy=policy
        )
        result = run_serve(
            config,
            ledger_path=ledger,
            stagger=stagger if staggered else None,
            scale=0.1,
        )
        offline = replay_ledger(load_ledger(ledger))
        assert result.replay.to_dict() == offline.to_dict()
        assert result.replay.complete
        # The /status facts too: recent actions, shedding, downtime ends.
        assert result.replay == offline


class TestForcedPolicies:
    @pytest.mark.parametrize("policy", ["consume", "recover-from-disk"])
    def test_forced_policy_is_the_only_responder(self, tmp_path, policy):
        config = ServeConfig(
            duration_ticks=15, error_rate=2.0, seed=7, policy=policy
        )
        result = run_serve(config, scale=SCALE)
        actions = set()
        for summary in result.replay.tenants.values():
            actions.update(summary.responses)
        # Escalation chains may add fallbacks, but the forced policy must
        # have fired and nothing outside its chain may appear.
        allowed = {
            "consume": {"consume"},
            "recover-from-disk": {"recover-from-disk", "retire-page",
                                  "restart-rank"},
        }[policy]
        assert actions, "expected at least one policy response"
        assert actions <= allowed
        assert policy in actions

    def test_shedding_engages_under_heavy_error_load(self, tmp_path):
        config = ServeConfig(
            duration_ticks=30,
            error_rate=6.0,
            seed=11,
            policy="consume",
        )
        result = run_serve(config, ledger_path=tmp_path / "shed.jsonl",
                           scale=SCALE)
        shed = sum(
            summary.requests["shed"]
            for summary in result.replay.tenants.values()
        )
        admission_events = [
            event for event in result.events if event.kind == "admission"
        ]
        assert shed > 0
        assert admission_events, "expected admission transitions in ledger"


class TestServeCli:
    def test_cli_json_output_matches_ledger_replay(self, tmp_path):
        ledger = tmp_path / "cli.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--duration", "12", "--error-rate", "1.0",
                "--seed", "99", "--scale", "0.3",
                "--ledger-out", str(ledger), "--json",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        replay = replay_ledger(load_ledger(ledger))
        assert payload == replay.to_dict()
