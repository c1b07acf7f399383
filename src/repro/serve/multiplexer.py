"""Asyncio request multiplexer over an HRM-partitioned memory host.

The long-lived serving loop (``repro serve``). Time is discrete: each
*tick* of virtual time runs three phases:

1. **Coordinator (single-threaded)** — the seeded arrival process draws
   a Poisson number of fault footprints, routes every erroneous byte
   through the channel interleave to its owning tenant, applies the
   channel's hardware response, and queues detected-uncorrected bytes
   into the tenant's error-response backlog. Admission control inspects
   each backlog, then the coordinator drains each backlog through the
   region's Table 2 policy in canonical tenant order — policies touch
   *host-shared* state (the retirement budget is per device, not per
   tenant), so responses are serialized here by construction.
2. **Tenant tasks (concurrent)** — one asyncio task per tenant serves
   its slice of the request trace, buffering ledger events locally.
   Tasks touch only their own tenant's state.
3. **Barrier** — buffers are merged in canonical tenant order and
   appended to the ledger.

Every event takes one path: it is written, folded into the session's
:class:`~repro.serve.ledger.LedgerReplay` (the same fold
``replay_ledger`` runs over a file, so ``ServeResult.replay`` is the
session's own), and fed to the live instruments and, for request
counts, the SLO engine. The ``/status`` payload is built from that fold
(``LedgerReplay.status``) plus the few live-only facts the ledger
cannot hold.

Because events carry only virtual time (tick + sequence number) and the
merge order is canonical, a seeded session writes a byte-identical
ledger no matter how the event loop interleaves the tenant tasks — the
property the determinism tests drive with a shuffling scheduler shim.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Awaitable, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.apps import GraphMining, KVStoreWorkload, WebSearch
from repro.obs import (
    NULL_OBSERVER,
    SPAN_SERVE,
    MetricsRegistry,
    Observer,
    ServeInstruments,
    SloConfig,
    SloEngine,
)
from repro.obs.live import ObservabilityServer
from repro.serve.admission import HIGH_WATER, LOW_WATER, AdmissionController
from repro.serve.ledger import (
    EVENT_ADMISSION,
    EVENT_FAULT,
    EVENT_POLICY,
    EVENT_REQUESTS,
    EVENT_RESPONSE,
    EVENT_SLO,
    EVENT_START,
    EVENT_STOP,
    LEDGER_VERSION,
    LedgerReplay,
    LedgerWriter,
)
from repro.serve.partition import ServePartition
from repro.serve.policies import (
    ACTION_RESTART,
    RESTART_DOWNTIME_TICKS,
    ErrorResponsePolicy,
    FaultEvent,
    default_policy_name_for_region,
    make_policy,
)
from repro.serve.tenants import ServeCounts, ServeTenant
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "ServeConfig",
    "ServeResult",
    "StaggerHook",
    "default_tenants",
    "run_serve",
    "serve_session",
]

#: Optional hook awaited by each tenant task at the start of its tick;
#: determinism tests use it to force adversarial interleavings.
StaggerHook = Callable[[str, int], Awaitable[None]]

#: Backlog items each tenant may respond to per tick (the software
#: repair bandwidth).
RESPONSES_PER_TICK = 2


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serve session (all virtual-time, all seeded).

    Attributes:
        duration_ticks: Ticks of virtual time to serve.
        error_rate: Expected fault *footprints* per tick (a footprint
            can corrupt up to 64 correlated bytes).
        policy: Force one Table 2 policy for every region (a name from
            ``POLICY_NAMES``), or ``None`` to pick per region by its
            recoverability class.
        seed: Root seed for the arrival process.
    """

    duration_ticks: int = 60
    error_rate: float = 0.5
    policy: Optional[str] = None
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.duration_ticks < 1:
            raise ValueError(
                f"duration_ticks must be >= 1, got {self.duration_ticks}"
            )
        if self.error_rate < 0:
            raise ValueError(f"error_rate must be >= 0, got {self.error_rate}")
        if self.policy is not None:
            make_policy(self.policy)  # validates the name


@dataclass
class ServeResult:
    """Everything a finished session reports."""

    config: ServeConfig
    ledger_path: Optional[Path]
    #: Every ledger event, in order; left out of the repr (thousands of
    #: lines, and asyncio formats the finished main task at teardown).
    events: list = field(repr=False)
    replay: LedgerReplay
    instruments: ServeInstruments
    registry: MetricsRegistry
    #: The live SLO engine after the session (burn rates, transitions).
    slo: Optional[SloEngine] = None

    def availability(self) -> Dict[str, float]:
        """Per-tenant availability as replayed from the ledger."""
        return {
            name: summary.availability
            for name, summary in self.replay.tenants.items()
        }

    def total_requests(self) -> int:
        """Requests offered across all tenants (every disposition)."""
        return sum(s.offered for s in self.replay.tenants.values())


class _TenantState:
    """Multiplexer-side state for one tenant (task-local by design)."""

    def __init__(
        self,
        tenant: ServeTenant,
        config: ServeConfig,
    ) -> None:
        self.tenant = tenant
        self.backlog: Deque[FaultEvent] = deque()
        self.down_until = 0
        self.accept = True
        self.admission = AdmissionController()
        self._policies: Dict[str, ErrorResponsePolicy] = {}
        self._forced = config.policy

    def policy_for(self, region_name: str) -> ErrorResponsePolicy:
        policy = self._policies.get(region_name)
        if policy is None:
            if self._forced is not None:
                name = self._forced
            else:
                # The layout, not memory: nothing owed is settled.
                region = self.tenant.workload.space.region_named(region_name)
                name = default_policy_name_for_region(region)
            policy = make_policy(name)
            self._policies[region_name] = policy
        return policy


def default_tenants(scale: float = 0.5, load: float = 1.0) -> List[ServeTenant]:
    """The three-workload tenancy of the paper's evaluation, scaled.

    Request rates reflect each workload's query weight: graphmining jobs
    are whole analytics passes (one per tick), websearch queries are
    mid-weight, key-value operations are cheap and frequent. ``load``
    multiplies every tenant's per-tick request quantum without touching
    workload sizes — throughput benchmarks raise it so serving work,
    not per-tick coordination, dominates the measurement.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    return [
        ServeTenant(
            "graphmining",
            GraphMining(vertex_count=max(60, int(300 * scale)), edges_per_vertex=8),
            requests_per_tick=max(1, int(1 * load)),
        ),
        ServeTenant(
            "kvstore",
            KVStoreWorkload(
                key_count=max(100, int(1000 * scale)),
                op_count=max(60, int(300 * scale)),
            ),
            requests_per_tick=max(1, int(8 * load)),
        ),
        ServeTenant(
            "websearch",
            WebSearch(
                vocabulary_size=max(120, int(600 * scale)),
                doc_count=max(80, int(400 * scale)),
                query_count=max(40, int(200 * scale)),
            ),
            requests_per_tick=max(1, int(4 * load)),
        ),
    ]


def _drain_backlog(state: _TenantState, tick: int) -> List[Tuple[str, dict]]:
    """Respond to queued faults within this tick's repair budget.

    Runs on the coordinator, one tenant at a time in canonical order:
    retire-page and recover-from-disk act on host-shared state (the
    device's retirement budget), so response order must not depend on
    event-loop scheduling.
    """
    buffer: List[Tuple[str, dict]] = []
    if tick < state.down_until:
        return buffer
    tenant = state.tenant
    budget = RESPONSES_PER_TICK
    while budget > 0 and state.backlog:
        fault = state.backlog.popleft()
        policy = state.policy_for(fault.region)
        buffer.append(
            (
                EVENT_POLICY,
                {
                    "policy": policy.name,
                    "region": fault.region,
                    "addr": fault.addr,
                    "kind": fault.kind.value,
                    "mode": fault.mode,
                },
            )
        )
        result = policy.respond(tenant, fault)
        buffer.append((EVENT_RESPONSE, result.to_attrs()))
        budget -= 1
        if result.downtime_ticks:
            # Restart repaired everything; queued work is moot.
            state.down_until = tick + result.downtime_ticks
            state.backlog.clear()
            break
    return buffer


async def _tenant_tick(
    state: _TenantState,
    tick: int,
    stagger: Optional[StaggerHook],
) -> List[Tuple[str, dict]]:
    """One tenant's request serving for one tick; returns its events."""
    if stagger is not None:
        await stagger(state.tenant.name, tick)
    tenant = state.tenant
    buffer: List[Tuple[str, dict]] = []

    if tick < state.down_until:
        counts = ServeCounts()
        counts["down"] = tenant.requests_per_tick
    elif not state.accept:
        counts = ServeCounts()
        counts["shed"] = tenant.requests_per_tick
    else:
        counts = tenant.serve(tenant.requests_per_tick)
        if tenant.needs_restart:
            # A request died fatally: the process is gone, and the only
            # possible response is a restart, whatever the policy says.
            cleared = tenant.restart(RESTART_DOWNTIME_TICKS)
            state.down_until = tick + RESTART_DOWNTIME_TICKS
            state.backlog.clear()
            buffer.append(
                (
                    EVENT_RESPONSE,
                    {
                        "action": ACTION_RESTART,
                        "faults_cleared": cleared,
                        "downtime_ticks": RESTART_DOWNTIME_TICKS,
                        "note": "fatal request error",
                    },
                )
            )
    buffer.append((EVENT_REQUESTS, dict(counts)))
    return buffer


async def serve_session(
    config: ServeConfig,
    tenants: Optional[List[ServeTenant]] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    observer: Observer = NULL_OBSERVER,
    registry: Optional[MetricsRegistry] = None,
    stagger: Optional[StaggerHook] = None,
    scale: float = 0.5,
    slo_config: Optional[SloConfig] = None,
    server: Optional[ObservabilityServer] = None,
) -> ServeResult:
    """Run one serve session on the current event loop.

    ``server`` attaches a live telemetry plane: the session starts it
    (unless the caller already did, to learn the port), publishes a
    ``/status`` snapshot plus fresh ledger lines at every tick barrier,
    and marks the ledger complete at stop. The server is read-only over
    session state, so hosting it never perturbs the seeded ledger.
    """
    if tenants is None:
        tenants = default_tenants(scale)
    for tenant in tenants:
        tenant.build()
    tenants = sorted(tenants, key=lambda t: t.name)
    partition = ServePartition(tenants)
    # Every tenant is pristine at its checkpoint: record the traces
    # ServeTenant.serve fuses from.
    for tenant in tenants:
        tenant.record_trace()
    registry = registry if registry is not None else MetricsRegistry()
    instruments = ServeInstruments(registry)
    states = {tenant.name: _TenantState(tenant, config) for tenant in tenants}
    rng = SeedSequenceFactory(config.seed).stream("serve/arrivals")

    slo_engine = SloEngine(slo_config)
    if server is not None:
        if not server.started:
            await server.start()
        server.slo = slo_engine
        for tenant in tenants:
            tenant.latency_sink = partial(
                instruments.record_latency_many, tenant.name
            )

    writer = LedgerWriter(ledger_path)
    footprints = unmapped = retired = 0
    with writer, observer.span(
        SPAN_SERVE, attrs={"tenants": [t.name for t in tenants]}
    ):
        start = writer.append(
            -1,
            EVENT_START,
            attrs={
                "version": LEDGER_VERSION,
                "seed": config.seed,
                "duration_ticks": config.duration_ticks,
                "error_rate": config.error_rate,
                "policy": config.policy or "auto",
                "responses_per_tick": RESPONSES_PER_TICK,
                "restart_downtime_ticks": RESTART_DOWNTIME_TICKS,
                "admission": {"high_water": HIGH_WATER, "low_water": LOW_WATER},
                "tenants": [t.name for t in tenants],
                "requests_per_tick": {
                    t.name: t.requests_per_tick for t in tenants
                },
                "placement": partition.placement_summary(),
                "slo": slo_engine.config.to_dict(),
            },
        )
        fold = LedgerReplay.start(start)
        published_seq = 0

        def append(tick: int, kind: str, tenant: str, attrs: dict) -> None:
            """The one event path: write, fold, feed the instruments.

            The SLO engine observes each tenant's request counts right
            after they are appended, so its alert transitions land in
            the ledger at exactly the position the offline replay
            (repro.obs.slo.slo_from_ledger) recomputes them.
            """
            fold.add(writer.append(tick, kind, tenant=tenant, attrs=attrs))
            if kind == EVENT_REQUESTS:
                instruments.record_requests(tenant, attrs)
                for alert in slo_engine.observe(tenant, tick, attrs):
                    append(tick, EVENT_SLO, tenant, alert)
            elif kind == EVENT_FAULT:
                instruments.record_fault(tenant, str(attrs["kind"]))
            elif kind == EVENT_RESPONSE:
                instruments.record_response(
                    tenant,
                    str(attrs.get("action", "?")),
                    pages_retired=len(attrs.get("pages_retired", ())),
                )

        async def publish(tick: int) -> None:
            """Hand the server this barrier's ``/status`` and new lines.

            The fold builds every key the ledger determines, so a scraped
            ``/status`` agrees with ``repro top`` over the streamed
            ledger; only what the ledger cannot say is added here.
            """
            nonlocal published_seq
            status = fold.status(tick, slo_engine)
            for name, entry in status["tenants"].items():
                tenant = states[name].tenant
                entry["backlog"] = len(states[name].backlog)
                entry["epochs"] = tenant.epochs
                entry["resident_faults"] = tenant.resident_fault_count
                entry["latency"] = instruments.latency_quantiles(name)
            retirement = partition.retirement
            status["retirement"] = {
                "retired_pages": len(retirement.retired_pages),
                "max_retired_pages": retirement.max_retired_pages,
                "retired_capacity_fraction": (
                    retirement.retired_capacity_fraction
                ),
            }
            lines = [e.to_json() for e in writer.events[published_seq:]]
            published_seq = len(writer.events)
            server.mark_ready()
            await server.publish(snapshot=status, ledger_lines=lines)

        for tick in range(config.duration_ticks):
            # Phase 1: coordinator — arrivals, routing, admission.
            batch = partition.tick_arrivals(rng, config.error_rate)
            footprints += batch.footprints
            unmapped += batch.unmapped_bytes
            retired += batch.retired_bytes
            for routed in batch.routed:
                append(tick, EVENT_FAULT, routed.tenant, routed.to_attrs())
                states[routed.tenant].backlog.extend(routed.detected)
            for tenant in tenants:
                state = states[tenant.name]
                decision = state.admission.check(len(state.backlog))
                state.accept = decision.accept
                if decision.changed:
                    append(
                        tick, EVENT_ADMISSION, tenant.name,
                        {
                            "shedding": not decision.accept,
                            "backlog": decision.backlog,
                        },
                    )
                instruments.set_shedding(tenant.name, not decision.accept)

            # Phase 1b: drain error-response backlogs in canonical
            # order — policies mutate host-shared retirement state.
            for tenant in tenants:
                for kind, attrs in _drain_backlog(states[tenant.name], tick):
                    append(tick, kind, tenant.name, attrs)

            # Phase 2: concurrent tenant tasks (task-local state only).
            ticks = (
                _tenant_tick(states[tenant.name], tick, stagger)
                for tenant in tenants
            )
            if stagger is None and server is None:
                # Nothing can yield inside a tenant tick and nothing else
                # runs on the loop: awaiting each in canonical order is
                # the schedule a gather would run, without its tasks.
                buffers = [await tenant_tick for tenant_tick in ticks]
            else:
                buffers = await asyncio.gather(*ticks)

            # Phase 3: barrier — merge in canonical tenant order.
            for tenant, buffer in zip(tenants, buffers):
                for kind, attrs in buffer:
                    append(tick, kind, tenant.name, attrs)
                instruments.set_backlog(
                    tenant.name, len(states[tenant.name].backlog)
                )
                instruments.record_decisions(tenant.name, tenant.decisions)

            if server is not None:
                await publish(tick)
        # The session is over: pay what serving left owed, so
        # every tenant's memory is where its counters say.
        for tenant in tenants:
            tenant.settle()
        append(
            config.duration_ticks,
            EVENT_STOP,
            "",
            {
                "availability": {
                    t.name: instruments.availability_of(t.name) for t in tenants
                },
                "footprints": footprints,
                "unmapped_bytes": unmapped,
                "retired_page_bytes": retired,
                "epochs": {t.name: t.epochs for t in tenants},
                "resident_faults": {
                    t.name: t.resident_fault_count for t in tenants
                },
                "retired_capacity_fraction": (
                    partition.retirement.retired_capacity_fraction
                ),
            },
        )
        if server is not None:
            await publish(config.duration_ticks)
            await server.mark_complete()
    return ServeResult(
        config=config,
        ledger_path=writer.path,
        events=writer.events,
        replay=fold,
        instruments=instruments,
        registry=registry,
        slo=slo_engine,
    )


def run_serve(
    config: ServeConfig,
    tenants: Optional[List[ServeTenant]] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    observer: Observer = NULL_OBSERVER,
    registry: Optional[MetricsRegistry] = None,
    stagger: Optional[StaggerHook] = None,
    scale: float = 0.5,
    slo_config: Optional[SloConfig] = None,
) -> ServeResult:
    """Run one serve session to completion on a fresh event loop."""
    return asyncio.run(
        serve_session(
            config,
            tenants=tenants,
            ledger_path=ledger_path,
            observer=observer,
            registry=registry,
            stagger=stagger,
            scale=scale,
            slo_config=slo_config,
        )
    )
