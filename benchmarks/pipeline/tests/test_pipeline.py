"""Self-tests of the pipeline benchmark.

    PYTHONPATH=src python -m pytest benchmarks/pipeline/tests -q

They use none of the fixtures of ``benchmarks/conftest.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PIPELINE_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PIPELINE_DIR.parents[1]
sys.path.insert(0, str(PIPELINE_DIR))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def test_names_match_benchmark_json(contract):
    from workloads import WHY

    assert [w["name"] for w in contract["workloads"]] == list(WHY)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == WHY
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert contract["run_seconds"] == run.DEFAULT_SECONDS
    assert contract["paths"] == ["benchmarks/pipeline"]


def test_names_are_well_formed_and_unique(contract):
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(contract["per_layer"]) <= 128
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "workload": "w", "repeat": 0}


def test_self_time_nested_overlapping_and_zero_length():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),        # child of root
        _span("a.inner", 2.0, 3.0, 1),  # nested: comes off a, not off root twice
        _span("b", 3.0, 6.0, 0),        # overlaps a on [3, 4]: counted once
        _span("empty", 7.0, 7.0, 0),    # zero-length
        _span("late", 9.0, 12.0, 0),    # sticks out: clipped to the parent
    ]
    own = harness.self_times(spans)
    assert own == pytest.approx([10.0 - (5.0 + 1.0), 2.0, 1.0, 3.0, 0.0, 3.0])
    folded = harness.self_time_by_name(spans)
    assert folded["root"] == pytest.approx(4.0)
    # Self times inside the root's interval add up to the root's duration.
    assert own[0] + own[1] + own[2] + (own[3] - 1.0) + (own[5] - 2.0) == pytest.approx(10.0)


def test_tracer_records_parents_and_repeats():
    tracer = harness.Tracer("w")
    tracer.repeat = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert {s["repeat"] for s in tracer.spans} == {3}
    assert tracer.seconds("inner", 3) <= tracer.seconds("outer", 3)
    assert tracer.seconds("inner", 0) == 0


def test_program_span_self_times_subtract_children():
    class Event:
        def __init__(self, name, parent, duration):
            self.name, self.parent, self.duration_seconds = name, parent, duration

    events = [
        Event("injection", "campaign/cell:heap|single-bit soft/trial:0", 1.0),
        Event("consume", "campaign/cell:heap|single-bit soft/trial:0", 5.0),
        Event("trial", "campaign/cell:heap|single-bit soft", 7.0),
        Event("progress", "campaign", None),
    ]
    own = run.program_span_self_times(events)
    assert own["trial"] == pytest.approx(1.0)
    assert own["consume"] == pytest.approx(5.0)
    assert own["cell"] == pytest.approx(-7.0)  # the cell span itself never arrived


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _block(values):
    return harness.summarize(values)


def test_compare_verdicts():
    steady = _block([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.verdict(steady, _block([102, 103, 101, 102, 102.5]), "higher", 0.10) == "unchanged"
    assert compare.verdict(steady, _block([80, 81, 79, 80, 80.5]), "higher", 0.10) == "regressed"
    assert compare.verdict(steady, _block([80, 81, 79, 80, 80.5]), "lower", 0.10) == "improved"
    assert compare.verdict(steady, _block([130, 131, 129, 130, 130.5]), "higher", 0.10) == "improved"


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = _block([60.0, 100.0, 140.0, 80.0, 120.0])
    steady = _block([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.verdict(noisy, steady, "higher", 0.10) == "unresolved"
    assert compare.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # ... unless every repeat of one side beats every repeat of the other.
    assert compare.verdict(noisy, _block([150.0, 151.0, 152.0]), "higher", 0.10) == "improved"
    assert compare.verdict(noisy, _block([50.0, 51.0, 52.0]), "higher", 0.10) == "regressed"


def test_compare_floor_gives_no_verdict():
    old, new = _block([0.010, 0.010, 0.010]), _block([0.030, 0.030, 0.030])
    assert compare.verdict(old, new, "lower", 0.25) == "regressed"
    assert compare.verdict(old, new, "lower", 0.25, floor=0.05) == "unchanged"


def test_compare_rows_and_exit_code(tmp_path):
    def result(rate, digest, failed=0, spin=95.0):
        return {
            "workloads": {
                "w": {
                    "end_to_end": {
                        "ops_per_s": _block([rate, rate * 1.01, rate * 0.99]),
                        "setup_s": _block([1.0, 1.0, 1.0]),
                        "peak_rss_mb": _block([64.0]),
                    },
                    "failed": failed,
                    "attempted": 100,
                    "result_digest": digest,
                    "calibration_spin_ms": [spin, spin + 1.0, spin - 1.0],
                }
            }
        }

    rows = compare.compare(result(100.0, "aa"), result(100.0, "aa"))
    assert [r["metric"] for r in rows] == [
        "ops_per_s", "setup_s", "peak_rss_mb", "failed_share", "result_digest"
    ]
    assert "base: old" in compare.render(rows)
    for name, payload in (
        ("same", result(100.0, "aa")),
        ("slow", result(50.0, "aa")),
        ("digest", result(100.0, "bb")),
        ("failed", result(100.0, "aa", failed=1)),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    base = str(tmp_path / "same.json")
    assert compare.main([base, base]) == 0
    assert compare.main([base, str(tmp_path / "slow.json")]) == 1
    # A slow phase of the host over one whole run carries no verdict.
    slow_host = compare.compare(result(100.0, "aa"), result(50.0, "aa", spin=115.0))
    assert slow_host[0]["verdict"].startswith("unresolved (host speed")
    assert compare.main([base, str(tmp_path / "digest.json")]) == 1
    assert compare.main([base, str(tmp_path / "failed.json")]) == 1


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def test_failing_probe_reports_null_and_reason():
    found = harness.Probes()

    def broken():
        raise ImportError("No module named 'repro.gone'")

    found.run(["layer.a", "layer.b"], broken)
    found.run(["layer.c", "layer.d"], lambda: {"layer.c": 2})
    assert found.values == {"layer.a": None, "layer.b": None, "layer.c": 2.0, "layer.d": None}
    assert "repro.gone" in found.errors["layer.a"]
    assert found.errors["layer.d"] == "probe returned no value"
    assert "layer.c" not in found.errors


# ----------------------------------------------------------------------
# Smoke run
# ----------------------------------------------------------------------
def test_smoke_run_emits_every_name(tmp_path, contract):
    done = subprocess.run(
        [sys.executable, str(PIPELINE_DIR / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert list(result["workloads"]) == [w["name"] for w in contract["workloads"]]
    for key in ("git_revision", "seed", "python", "numpy", "usable_cpus", "backends", "total_wall_s"):
        assert key in result["environment"]
    for name, entry in result["workloads"].items():
        assert entry["correct"], entry["checks"]
        assert entry["repeats"] == 2
        assert set(entry["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
        assert list(entry["per_layer"]) == [m["name"] for m in contract["per_layer"]]
        assert entry["probe_errors"] == {}
        assert entry["result_digest"] == entry["traced_result_digest"]
        assert abs(entry["span_coverage"] - 1.0) < 0.02
        assert (tmp_path / entry["spans_file"]).exists()
        for metric in contract["end_to_end"]:
            assert metric["name"] in done.stdout
    # Each paired workload bypasses the mechanism its twin exercises.
    layers = {name: entry["per_layer"] for name, entry in result["workloads"].items()}
    assert layers["campaign_protected"]["exec.pruned_share"] >= 0.99
    assert layers["campaign_unprotected"]["apps.graphmining.executed_share"] >= 0.3
    assert layers["plan_fleet"]["memory.scalar_access_ns"] == 0.0
    assert layers["serve_clean"]["serve.ok_share"] > layers["serve_faulty"]["serve.ok_share"]
    # No ledger is left outside --out.
    assert not list(REPO_ROOT.glob("*.ledger.jsonl"))
