"""The monitoring views of one recorded trace reproduce the hooks they replaced.

``tests/golden/access_views.json`` was written at commit 7ae9a58 by the
software-watchpoint monitor and the per-page write tracker that lived
inside ``AddressSpace`` — on these fixtures, at the fixed addresses it
lists, each analysis from a freshly built workload. Per application it
holds, for every address, the safe and unsafe durations and the load and
store counts of its event stream; the per-page store count and first and
last store time; the ``analyze_recoverability`` rows; and the
``estimate_masking`` fractions. The views must reproduce every number
exactly: event times are clock ticks of the checked path.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.lightweight import estimate_masking
from repro.core.recoverability import analyze_recoverability
from repro.core.safe_ratio import durations_from_events
from repro.monitoring import monitor, page_writes, record_monitored

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "access_views.json").read_text()
)


@pytest.fixture(params=sorted(GOLDEN))
def app(request):
    workload = request.getfixturevalue(f"{request.param}_small")
    workload.reset()
    return workload, GOLDEN[request.param]


def test_safe_ratio_streams(app):
    workload, golden = app
    addresses = [row[0] for row in golden["bytes"]]
    result = monitor(workload, addresses, golden["queries"])
    assert (result.start_time, result.end_time) == (
        golden["start_time"], golden["end_time"],
    )
    rows = []
    for addr in addresses:
        events = result.traces[addr]
        sample = durations_from_events(events, result.start_time)
        rows.append([
            addr,
            result.region_of_addr[addr],
            sample.safe_duration,
            sample.unsafe_duration,
            len(events),
            sum(event.is_store for event in events),
        ])
    assert rows == golden["bytes"]


def test_page_writes(app):
    workload, golden = app
    stats = page_writes(record_monitored(workload, golden["queries"]))
    assert sorted(
        [page, s["count"], s["first_write"], s["last_write"]]
        for page, s in stats.items()
    ) == golden["page_writes"]


def test_recoverability(app):
    workload, golden = app
    reports = analyze_recoverability(workload, queries=golden["queries"])
    assert {
        region: [r.live_bytes, r.implicit_fraction, r.explicit_fraction]
        for region, r in reports.items()
    } == golden["recoverability"]


def test_masking_estimate(app):
    workload, golden = app
    estimates = estimate_masking(
        workload, queries=golden["queries"], samples_per_region=32,
        rng=random.Random(11),
    )
    assert {
        region: [
            e.sampled_addresses,
            e.never_accessed_fraction,
            e.masked_overwrite_fraction,
            e.consumed_fraction,
        ]
        for region, e in estimates.items()
    } == golden["masking"]
