"""Deterministic SLO burn-rate engine over virtual tick time.

The serving layer's availability SLO ("fraction of offered requests
answered correctly") gets the standard Google-SRE treatment here:
multi-window **burn-rate alerting**. For an SLO target ``t`` the error
budget is ``1 - t``; the *burn rate* over a trailing window of ticks is
the window's bad-request fraction divided by that budget (burn rate 1.0
means the budget is being consumed exactly at the sustainable pace).
An alert rule pairs a *long* window (is the burn sustained?) with a
*short* window (is it still happening?) and fires only while **both**
exceed the rule's threshold — the short window makes alerts reset
quickly once the condition clears, the long window keeps one-tick
blips from paging.

Everything here is computed **exclusively over virtual time**: the
engine consumes per-tick request-disposition counts (the ``requests``
ledger events of :mod:`repro.serve.ledger`) and never reads wall
clocks, so a seeded serve session produces byte-identical alert
transitions on every run — and :func:`slo_from_ledger` re-derives the
exact same transitions offline from the ledger file alone. The live
multiplexer appends every transition to the ledger (kind
``slo_alert``), making alert history part of the auditable record;
:func:`audit_slo` checks recorded-vs-recomputed equality.

Layering: this module deliberately does **not** import
:mod:`repro.serve` — it duck-types over ledger events (``kind`` /
``tenant`` / ``tick`` / ``attrs``). The event-kind strings below must
match the schema constants in ``repro.serve.ledger`` (pinned by a unit
test).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_SLO_TARGET",
    "SloConfig",
    "SloEngine",
    "SloReplay",
    "audit_slo",
    "parse_burn_windows",
    "slo_from_ledger",
]

#: Ledger event kinds consumed/produced, mirroring the schema constants
#: in ``repro.serve.ledger`` (EVENT_START / EVENT_REQUESTS / EVENT_SLO).
#: Kept as literals so ``repro.obs`` stays independent of ``repro.serve``.
START_KIND = "serve_start"
REQUESTS_KIND = "requests"
SLO_KIND = "slo_alert"

#: Default per-tenant availability SLO target. The serving host runs at
#: paper-scale error rates (whole fault footprints per tick), so 99% is
#: the regime where burn-rate alerts are actually exercised.
DEFAULT_SLO_TARGET = 0.99


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule.

    Attributes:
        name: Rule name (``fast`` pages, ``slow`` tickets, ...).
        short_ticks: Trailing short-window length in ticks.
        long_ticks: Trailing long-window length in ticks.
        threshold: Burn rate both windows must reach to fire.
    """

    name: str
    short_ticks: int
    long_ticks: int
    threshold: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("burn window needs a name")
        if self.short_ticks < 1:
            raise ValueError(
                f"{self.name}: short_ticks must be >= 1, got {self.short_ticks}"
            )
        if self.long_ticks < self.short_ticks:
            raise ValueError(
                f"{self.name}: long_ticks ({self.long_ticks}) must be >= "
                f"short_ticks ({self.short_ticks})"
            )
        if self.threshold <= 0:
            raise ValueError(
                f"{self.name}: threshold must be > 0, got {self.threshold}"
            )

    def to_dict(self) -> dict:
        """JSON form (embedded in the ledger's ``serve_start`` event)."""
        return {
            "name": self.name,
            "short_ticks": self.short_ticks,
            "long_ticks": self.long_ticks,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BurnWindow":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            short_ticks=int(data["short_ticks"]),  # type: ignore[arg-type]
            long_ticks=int(data["long_ticks"]),  # type: ignore[arg-type]
            threshold=float(data["threshold"]),  # type: ignore[arg-type]
        )


#: Default rule pair (Google SRE workbook shape, scaled to ticks): a
#: fast page-grade rule (2/8 ticks at 6x budget burn) and a slow
#: ticket-grade rule (8/32 ticks at 2x).
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow("fast", short_ticks=2, long_ticks=8, threshold=6.0),
    BurnWindow("slow", short_ticks=8, long_ticks=32, threshold=2.0),
)


def parse_burn_windows(spec: str) -> Tuple[BurnWindow, ...]:
    """Parse the CLI ``--burn-windows`` grammar.

    ``name:short:long:threshold`` rules separated by commas, e.g.
    ``fast:2:8:6,slow:8:32:2``.
    """
    windows: List[BurnWindow] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"bad burn window {chunk!r}: expected name:short:long:threshold"
            )
        try:
            windows.append(
                BurnWindow(
                    name=parts[0],
                    short_ticks=int(parts[1]),
                    long_ticks=int(parts[2]),
                    threshold=float(parts[3]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad burn window {chunk!r}: {exc}") from exc
    if not windows:
        raise ValueError(f"no burn windows in {spec!r}")
    names = [w.name for w in windows]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate burn-window names in {spec!r}")
    return tuple(windows)


@dataclass(frozen=True)
class SloConfig:
    """Availability target + alert rules for one serve session."""

    target: float = DEFAULT_SLO_TARGET
    windows: Tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"slo target must be in (0, 1), got {self.target}"
            )
        if not self.windows:
            raise ValueError("slo config needs at least one burn window")
        names = [w.name for w in self.windows]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate burn-window names: {names}")
        # Normalize sequences handed in as lists.
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def error_budget(self) -> float:
        """The tolerated bad-request fraction (``1 - target``)."""
        return 1.0 - self.target

    @property
    def max_window_ticks(self) -> int:
        """History depth the engine must retain."""
        return max(w.long_ticks for w in self.windows)

    def to_dict(self) -> dict:
        """JSON form (the ``slo`` key of the ``serve_start`` event)."""
        return {
            "target": self.target,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SloConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            target=float(data["target"]),  # type: ignore[arg-type]
            windows=tuple(
                BurnWindow.from_dict(w)  # type: ignore[arg-type]
                for w in data["windows"]  # type: ignore[union-attr]
            ),
        )


@dataclass
class _RuleState:
    """Live alert state of one (tenant, rule)."""

    firing: bool = False
    since_tick: Optional[int] = None


@dataclass
class _TenantSlo:
    """Per-tenant engine state: tick history + per-rule alert states."""

    history: Deque[Tuple[int, int]]  # (ok, offered) per tick, newest last
    #: Running (ok, offered) totals before every retained tick and after
    #: the newest: one entry more than ``history``, so a window's sums
    #: are one subtraction.
    totals: Deque[Tuple[int, int]]
    rules: Dict[str, _RuleState] = field(default_factory=dict)


class SloEngine:
    """Folds per-tick request counts into burn rates and alert states.

    One instance serves both the live multiplexer and the offline
    replay — determinism between the two is a consequence of this being
    the *only* implementation of the math.
    """

    def __init__(self, config: Optional[SloConfig] = None) -> None:
        self.config = config if config is not None else SloConfig()
        self._tenants: Dict[str, _TenantSlo] = {}
        #: Every transition ever emitted: {"tick", "tenant", **attrs}.
        self.transitions: List[dict] = []

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _tenant(self, tenant: str) -> _TenantSlo:
        state = self._tenants.get(tenant)
        if state is None:
            depth = self.config.max_window_ticks
            state = self._tenants[tenant] = _TenantSlo(
                history=deque(maxlen=depth),
                totals=deque([(0, 0)], maxlen=depth + 1),
            )
        return state

    def observe(
        self, tenant: str, tick: int, counts: Mapping[str, object]
    ) -> List[dict]:
        """Fold one tenant-tick of request dispositions.

        ``counts`` is the ``requests`` ledger payload (disposition →
        count). Returns the alert *transitions* this tick caused, as
        ledger-ready attrs dicts (empty list when nothing changed).
        """
        ok = int(counts.get("ok", 0))  # type: ignore[arg-type]
        offered = sum(int(v) for v in counts.values())  # type: ignore[arg-type]
        state = self._tenant(tenant)
        state.history.append((ok, offered))
        ok_total, offered_total = state.totals[-1]
        state.totals.append((ok_total + ok, offered_total + offered))
        transitions: List[dict] = []
        for window in self.config.windows:
            burn_short = self._burn(state, window.short_ticks)
            burn_long = self._burn(state, window.long_ticks)
            rule = state.rules.setdefault(window.name, _RuleState())
            now_firing = (
                burn_short >= window.threshold and burn_long >= window.threshold
            )
            if now_firing == rule.firing:
                continue
            rule.firing = now_firing
            rule.since_tick = tick
            attrs = {
                "rule": window.name,
                "state": "firing" if now_firing else "resolved",
                "burn_short": burn_short,
                "burn_long": burn_long,
                "threshold": window.threshold,
                "short_ticks": window.short_ticks,
                "long_ticks": window.long_ticks,
                # Exemplar: the deterministic span path of the serve
                # tick that tripped (or cleared) the rule, so an alert
                # can be joined back to trace spans and ledger events.
                "span_path": f"serve/tenant:{tenant}/tick:{tick}",
            }
            transitions.append(attrs)
            self.transitions.append({"tick": tick, "tenant": tenant, **attrs})
        return transitions

    def _burn(self, state: _TenantSlo, window_ticks: int) -> float:
        """Burn rate over the trailing ``window_ticks`` of history."""
        span = min(window_ticks, len(state.history))
        if span == 0:
            return 0.0
        ok_now, offered_now = state.totals[-1]
        ok_then, offered_then = state.totals[-1 - span]
        offered = offered_now - offered_then
        if offered == 0:
            return 0.0
        bad_fraction = (offered - (ok_now - ok_then)) / offered
        return bad_fraction / self.config.error_budget

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        """Tenants observed so far, sorted."""
        return sorted(self._tenants)

    def availability_history(self, tenant: str) -> List[float]:
        """Per-tick availability over the retained window (oldest first)."""
        state = self._tenants.get(tenant)
        if state is None:
            return []
        return [
            ok / offered if offered else 1.0 for ok, offered in state.history
        ]

    def burn_rates(self, tenant: str) -> Dict[str, Tuple[float, float]]:
        """Current (short, long) burn rate per rule for one tenant."""
        state = self._tenants.get(tenant)
        if state is None:
            return {}
        return {
            w.name: (self._burn(state, w.short_ticks), self._burn(state, w.long_ticks))
            for w in self.config.windows
        }

    def firing(self, tenant: str) -> List[str]:
        """Names of rules currently firing for one tenant."""
        state = self._tenants.get(tenant)
        if state is None:
            return []
        return sorted(
            name for name, rule in state.rules.items() if rule.firing
        )

    def to_dict(self) -> dict:
        """The ``/slo`` endpoint payload."""
        tenants = {}
        for name in self.tenants():
            state = self._tenants[name]
            rules = {}
            for window in self.config.windows:
                rule = state.rules.get(window.name, _RuleState())
                burn_short = self._burn(state, window.short_ticks)
                burn_long = self._burn(state, window.long_ticks)
                rules[window.name] = {
                    "state": "firing" if rule.firing else "ok",
                    "since_tick": rule.since_tick,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "threshold": window.threshold,
                }
            tenants[name] = rules
        return {
            "target": self.config.target,
            "error_budget": self.config.error_budget,
            "windows": [w.to_dict() for w in self.config.windows],
            "tenants": tenants,
            "alerts": list(self.transitions),
        }


@dataclass
class SloReplay:
    """Result of re-deriving SLO alerts from a ledger offline."""

    config: SloConfig
    #: Transitions recomputed from the ``requests`` events alone.
    computed: List[dict]
    #: ``slo_alert`` events actually recorded in the ledger.
    recorded: List[dict]
    #: The engine after replay (for burn-rate/state inspection).
    engine: SloEngine

    @property
    def consistent(self) -> bool:
        """Recorded alert history equals the offline recomputation."""
        return self.computed == self.recorded


def slo_from_ledger(
    events: Iterable, config: Optional[SloConfig] = None
) -> SloReplay:
    """Re-derive every SLO alert transition from ledger events alone.

    ``events`` are ledger events (anything with ``kind`` / ``tenant`` /
    ``tick`` / ``attrs``). When ``config`` is omitted it is read from
    the ``serve_start`` event's ``slo`` echo (sessions older than the
    telemetry plane fall back to the defaults).
    """
    events = list(events)
    if config is None:
        if events and events[0].kind == START_KIND:
            echoed = events[0].attrs.get("slo")
            if isinstance(echoed, Mapping):
                config = SloConfig.from_dict(echoed)
    if config is None:
        config = SloConfig()
    engine = SloEngine(config)
    computed: List[dict] = []
    recorded: List[dict] = []
    for event in events:
        if event.kind == REQUESTS_KIND:
            for attrs in engine.observe(event.tenant, event.tick, event.attrs):
                computed.append(
                    {"tick": event.tick, "tenant": event.tenant, **attrs}
                )
        elif event.kind == SLO_KIND:
            recorded.append(
                {"tick": event.tick, "tenant": event.tenant, **dict(event.attrs)}
            )
    return SloReplay(
        config=config, computed=computed, recorded=recorded, engine=engine
    )


def audit_slo(events: Iterable, config: Optional[SloConfig] = None) -> SloReplay:
    """Replay and *assert* recorded == recomputed alert history.

    Raises:
        ValueError: when the ledger's recorded ``slo_alert`` events do
            not match the deterministic recomputation — the audit
            property the acceptance tests and CI enforce.
    """
    replay = slo_from_ledger(events, config=config)
    if not replay.consistent:
        raise ValueError(
            "slo audit failed: ledger records "
            f"{len(replay.recorded)} alert transitions but replay "
            f"computed {len(replay.computed)} (or payloads differ)"
        )
    return replay
