"""Integration tests for the live telemetry plane.

Hosts a real :class:`ObservabilityServer` on an ephemeral port inside a
seeded serve session and scrapes it over actual HTTP, then checks the
two contracts the plane promises:

* read-only: hosting the server never perturbs the seeded ledger, and
* replayable: every live number (`/status` availability, SLO alert
  firings) is recomputable offline from the ledger alone.
"""

import asyncio
import io
import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    ObservabilityServer,
    assert_scrape_parses,
    parse_prometheus,
    sample_value,
    slo_from_ledger,
)
from repro.obs.top import run_top, snapshot_from_ledger
from repro.serve import (
    ServeConfig,
    load_ledger,
    replay_ledger,
    serve_session,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}

# High error rate so SLO alerts actually fire within the session.
CONFIG = ServeConfig(duration_ticks=25, error_rate=1.5, seed=20140622)
SCALE = 0.3


def _fetch(url, method="GET", timeout=5.0):
    """Blocking HTTP fetch; returns (status_code, body_text)."""
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


async def _run_session_with_server(ledger_path=None, probe=None):
    """Run one seeded session hosting a live server on an ephemeral port.

    ``probe`` (async callable taking the server) runs mid-session, after
    the server reports ready. Returns (result, server_url, final_fetch)
    where final_fetch maps endpoint path -> (status, body) fetched after
    the session completed but before the server stopped.
    """
    registry = MetricsRegistry()
    server = ObservabilityServer(registry, port=0)
    await server.start()
    # The session outruns four HTTP fetches: hold its last tick until
    # the probe is done, so "mid-session" is not a race. (Tenants
    # stagger by hook only; the ledger does not depend on it.)
    probed = asyncio.Event()
    if probe is None:
        probed.set()

    async def hold_last_tick(tenant: str, tick: int) -> None:
        if tick == CONFIG.duration_ticks - 1:
            await probed.wait()

    try:
        task = asyncio.ensure_future(
            serve_session(
                CONFIG,
                ledger_path=ledger_path,
                registry=registry,
                server=server,
                scale=SCALE,
                stagger=hold_last_tick,
            )
        )
        # Wait for the first tick barrier to publish a snapshot.
        while True:
            status, _ = await asyncio.to_thread(_fetch, server.url + "/readyz")
            if status == 200:
                break
            assert not task.done(), "session finished before becoming ready"
            await asyncio.sleep(0.01)
        if probe is not None:
            await probe(server)
            probed.set()
        result = await task
        final = {}
        for path in ("/metrics", "/status", "/slo", "/healthz"):
            final[path] = await asyncio.to_thread(_fetch, server.url + path)
        return result, server.url, final
    finally:
        await server.stop()


class TestLiveEndpoints:
    def test_all_endpoints_serve_during_and_after_session(self):
        probed = {}

        async def probe(server):
            for path in ("/healthz", "/metrics", "/status", "/slo"):
                probed[path] = await asyncio.to_thread(
                    _fetch, server.url + path
                )

        result, _, final = asyncio.run(
            _run_session_with_server(probe=probe)
        )

        # Mid-session scrapes all answered 200 with real content.
        assert probed["/healthz"] == (200, "ok\n")
        assert probed["/metrics"][0] == 200
        assert assert_scrape_parses(probed["/metrics"][1]) > 0
        mid_status = json.loads(probed["/status"][1])
        assert mid_status["tenants"], "mid-session /status had no tenants"
        assert not mid_status["complete"]

        # Final snapshot covers the whole session.
        status = json.loads(final["/status"][1])
        assert status["complete"]
        assert status["tick"] == CONFIG.duration_ticks
        assert status["seed"] == CONFIG.seed
        for name, tenant in status["tenants"].items():
            assert set(tenant) >= {
                "availability", "requests", "offered", "backlog",
                "shedding", "down", "latency", "availability_spark",
                "slo_firing",
            }
            assert tenant["offered"] > 0
        assert status["retirement"]["max_retired_pages"] >= 0

        slo = json.loads(final["/slo"][1])
        assert slo["target"] == pytest.approx(0.99)
        assert {w["name"] for w in slo["windows"]} == {"fast", "slow"}
        assert set(slo["tenants"]) == set(status["tenants"])
        assert result.replay.tenants.keys() == status["tenants"].keys()

    def test_metrics_expose_request_counters_and_latency(self):
        result, _, final = asyncio.run(_run_session_with_server())
        samples = parse_prometheus(final["/metrics"][1])
        for name, summary in result.replay.tenants.items():
            scraped_ok = sample_value(
                samples,
                "repro_serve_requests_total",
                tenant=name,
                disposition="ok",
            )
            assert scraped_ok == summary.requests["ok"]
            # Only executed requests record latency: down/shed requests
            # never run, and a fatal error fails the rest of its batch
            # after a single timed execute.
            latency_count = sample_value(
                samples, "repro_serve_request_latency_seconds_count",
                tenant=name,
            )
            assert 0 < latency_count <= summary.offered

    def test_status_latency_quantiles_present(self):
        _, _, final = asyncio.run(_run_session_with_server())
        status = json.loads(final["/status"][1])
        for tenant in status["tenants"].values():
            latency = tenant["latency"]
            assert set(latency) == {"p50", "p99"}
            assert 0.0 <= latency["p50"] <= latency["p99"]

    def test_unknown_path_404_and_wrong_method_405(self):
        async def probe(server):
            probe.missing = await asyncio.to_thread(
                _fetch, server.url + "/nope"
            )
            probe.bad_method = await asyncio.to_thread(
                _fetch, server.url + "/metrics", "POST"
            )

        asyncio.run(_run_session_with_server(probe=probe))
        assert probe.missing[0] == 404
        assert probe.bad_method[0] == 405

    def test_quitz_sets_quit_event(self):
        async def probe(server):
            assert not server.quit_event.is_set()
            status, _ = await asyncio.to_thread(
                _fetch, server.url + "/quitz", "POST"
            )
            assert status == 200
            assert server.quit_event.is_set()

        asyncio.run(_run_session_with_server(probe=probe))


class TestLedgerTail:
    def test_tail_matches_ledger_and_supports_offset(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"

        async def run():
            registry = MetricsRegistry()
            server = ObservabilityServer(registry, port=0)
            await server.start()
            try:
                result = await serve_session(
                    CONFIG,
                    ledger_path=ledger,
                    registry=registry,
                    server=server,
                    scale=SCALE,
                )
                full = await asyncio.to_thread(
                    _fetch, server.url + "/ledger/tail"
                )
                offset = await asyncio.to_thread(
                    _fetch, server.url + "/ledger/tail?from=5"
                )
                return result, full, offset
            finally:
                await server.stop()

        result, (full_status, full_body), (_, offset_body) = asyncio.run(run())
        assert full_status == 200
        tail_lines = [l for l in full_body.splitlines() if l]
        disk_lines = [
            l for l in ledger.read_text().splitlines() if l
        ]
        assert tail_lines == disk_lines
        assert len(tail_lines) == len(result.events)
        assert [l for l in offset_body.splitlines() if l] == tail_lines[5:]


class TestSloLiveVsReplay:
    def test_live_engine_matches_offline_replay(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        result, _, _ = asyncio.run(
            _run_session_with_server(ledger_path=ledger)
        )
        events = load_ledger(ledger)
        replay = slo_from_ledger(events)
        assert replay.consistent
        assert replay.computed == result.slo.transitions
        assert replay.computed, "expected SLO alerts at this error rate"

    def test_alert_firings_byte_identical_across_seeded_runs(self, tmp_path):
        def run(name):
            ledger = tmp_path / name
            asyncio.run(_run_session_with_server(ledger_path=ledger))
            return ledger.read_bytes(), replay_ledger(
                load_ledger(ledger)
            ).slo_alerts

        bytes_a, alerts_a = run("a.jsonl")
        bytes_b, alerts_b = run("b.jsonl")
        assert bytes_a == bytes_b
        assert alerts_a == alerts_b
        assert alerts_a, "expected recorded slo_alert events"

    def test_hosting_server_does_not_perturb_ledger(self, tmp_path):
        """A session with a live server writes the same ledger bytes as
        a bare session — telemetry is read-only over session state."""
        with_server = tmp_path / "with.jsonl"
        bare = tmp_path / "bare.jsonl"
        asyncio.run(_run_session_with_server(ledger_path=with_server))
        asyncio.run(
            serve_session(CONFIG, ledger_path=bare, scale=SCALE)
        )
        assert with_server.read_bytes() == bare.read_bytes()

    def test_status_availability_matches_replay(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        _, _, final = asyncio.run(
            _run_session_with_server(ledger_path=ledger)
        )
        status = json.loads(final["/status"][1])
        replay = replay_ledger(load_ledger(ledger))
        assert set(status["tenants"]) == set(replay.tenants)
        for name, summary in replay.tenants.items():
            live = status["tenants"][name]
            assert live["availability"] == pytest.approx(
                summary.availability, abs=1e-12
            )
            assert live["offered"] == summary.offered
            assert live["requests"] == dict(summary.requests)


class _StubServer:
    """Captures each published ``/status`` as the endpoint serves it."""

    started = True
    slo = None

    def __init__(self):
        self.snapshots = []

    def mark_ready(self):
        pass

    async def publish(self, snapshot=None, ledger_lines=None):
        if snapshot is not None:
            self.snapshots.append(json.loads(json.dumps(snapshot)))

    async def mark_complete(self):
        pass


def assert_live_covers(live, offline):
    """``live`` equals ``offline`` on every key ``offline`` has, down
    through the tenant entries and the retirement block."""
    for key, value in offline.items():
        if key == "tenants":
            assert set(live[key]) == set(value)
            for name, entry in value.items():
                assert {k: live[key][name][k] for k in entry} == entry, name
        elif key == "retirement":
            assert {k: live[key][k] for k in value} == value
        else:
            assert live[key] == value, key


class TestStatusLiveVsOffline:
    def test_final_live_status_is_the_offline_snapshot(self, tmp_path):
        """One builder: ``repro top <ledger>`` shows the final live
        ``/status`` on every key the ledger determines — the recent
        response actions, down and shedding included."""
        ledger = tmp_path / "serve.jsonl"
        stub = _StubServer()
        asyncio.run(
            serve_session(
                ServeConfig(duration_ticks=60, error_rate=1.0, seed=5),
                ledger_path=ledger,
                server=stub,
                scale=0.1,
            )
        )
        live = stub.snapshots[-1]
        offline, _ = snapshot_from_ledger(ledger)
        assert live["complete"] and offline["complete"]
        assert offline["recent_actions"], "expected response actions"
        assert any(t["down"] for t in offline["tenants"].values())
        assert_live_covers(live, offline)
        assert set(offline["tenants"]["kvstore"]) >= {
            "shedding", "down", "epochs", "resident_faults",
        }


class TestServeCliTelemetry:
    def test_serve_with_http_port_announces_url(self, tmp_path):
        ledger = tmp_path / "cli.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--duration", "10", "--error-rate", "1.0",
                "--seed", "7", "--scale", "0.3",
                "--http-port", "0", "--http-linger", "0",
                "--ledger-out", str(ledger), "--json",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "telemetry: http://127.0.0.1:" in proc.stderr
        payload = json.loads(proc.stdout)
        replay = replay_ledger(load_ledger(ledger))
        assert payload == replay.to_dict()

    def test_report_renders_serve_ledger(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        asyncio.run(_run_session_with_server(ledger_path=ledger))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "report", str(ledger)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "serve session" in proc.stdout
        assert "slo alert transitions" in proc.stdout

    def test_report_json_matches_replay(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        asyncio.run(serve_session(CONFIG, ledger_path=ledger, scale=SCALE))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "report", str(ledger),
                "--json",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        replay = replay_ledger(load_ledger(ledger))
        assert payload == replay.to_dict()
        assert payload["slo_alerts"], "serve --json should carry slo_alerts"


class TestTop:
    def test_top_renders_one_frame_from_ledger(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        result = asyncio.run(
            serve_session(CONFIG, ledger_path=ledger, scale=SCALE)
        )
        out = io.StringIO()
        assert run_top(str(ledger), out=out) == 0
        frame = out.getvalue()
        for name in result.replay.tenants:
            assert name in frame
        assert "avail" in frame
        assert "fast" in frame and "slow" in frame

    def test_top_missing_file_exits_2(self, tmp_path, capsys):
        assert run_top(str(tmp_path / "nope.jsonl")) == 2
        assert "no such file" in capsys.readouterr().err

    def test_top_snapshot_from_ledger_matches_replay(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        asyncio.run(serve_session(CONFIG, ledger_path=ledger, scale=SCALE))
        status, slo = snapshot_from_ledger(ledger)
        replay = replay_ledger(load_ledger(ledger))
        assert status["complete"]
        for name, summary in replay.tenants.items():
            assert status["tenants"][name]["availability"] == pytest.approx(
                summary.availability
            )
        assert set(slo["tenants"]) == set(replay.tenants)

    def test_top_live_url_single_frame(self):
        async def probe(server):
            out = io.StringIO()
            code = await asyncio.to_thread(
                run_top, server.url, 0.0, None, True, False, out
            )
            probe.code = code
            probe.frame = out.getvalue()

        asyncio.run(_run_session_with_server(probe=probe))
        assert probe.code == 0
        assert "repro top" in probe.frame

    def test_top_cli_once_on_ledger(self, tmp_path):
        ledger = tmp_path / "serve.jsonl"
        asyncio.run(serve_session(CONFIG, ledger_path=ledger, scale=SCALE))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "top", str(ledger), "--once"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "avail" in proc.stdout
