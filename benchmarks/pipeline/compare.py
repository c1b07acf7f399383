#!/usr/bin/env python3
"""Compare two ``result.json`` files of the pipeline benchmark.

    python3 benchmarks/pipeline/compare.py OLD.json NEW.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio NEW/OLD with OLD named as its base, the bound, and
a verdict:

* ``improved`` / ``regressed`` — the median moved by more than the bound
  (and by more than the metric's floor) in that direction;
* ``unchanged`` — it did not;
* ``unresolved`` — a side's interquartile range is wider than the bound,
  so the medians cannot carry a verdict — unless every repeat of one
  side beats every repeat of the other, which is then reported as
  ``improved`` or ``regressed``. A timing that moved while the two runs'
  median ``calibration_spin_ms`` differ by more than 10 % is also
  ``unresolved``: a slow phase of the host covered one whole run, and
  NumPy-bound work slows more in such a phase than the calibration loop.

A digest row per workload says whether the simulated results changed.
Exits non-zero on any ``regressed`` row, a higher failed share, or a
changed digest.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

PIPELINE_DIR = Path(__file__).resolve().parent
if str(PIPELINE_DIR) not in sys.path:
    sys.path.insert(0, str(PIPELINE_DIR))

from metrics import END_TO_END, FLOORS  # noqa: E402

#: Largest relative difference between two runs' median calibration
#: loops at which their calibrated timings are still compared.
HOST_SPEED_TOLERANCE = 0.10


def verdict(
    old: dict, new: dict, better: str, bound: float, floor: float = 0.0
) -> str:
    """Verdict for one metric from two ``{median, q1, q3, values}`` blocks."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - old["median"])
    if abs(worse_by) < floor:
        return "unchanged"

    def beats(left: Sequence[float], right: Sequence[float]) -> bool:
        """Every value of ``left`` is better than every value of ``right``."""
        if better == "lower":
            return max(left) < min(right)
        return min(left) > max(right)

    noisy = any(
        side["median"] and (side["q3"] - side["q1"]) / abs(side["median"]) > bound
        for side in (old, new)
    )
    if noisy:
        if beats(new["values"], old["values"]):
            return "improved"
        if beats(old["values"], new["values"]):
            return "regressed"
        return "unresolved"
    relative = worse_by / abs(old["median"]) if old["median"] else 0.0
    if relative > bound:
        return "regressed"
    if relative < -bound:
        return "improved"
    return "unchanged"


def compare(old: dict, new: dict) -> List[dict]:
    """Rows for every workload the two results share."""
    rows: List[dict] = []
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None:
            continue
        spins = [statistics.median(side["calibration_spin_ms"]) for side in (before, after)]
        host_moved = abs(spins[1] / spins[0] - 1.0) > HOST_SPEED_TOLERANCE
        for metric, unit, better, bound in END_TO_END:
            left, right = before["end_to_end"][metric], after["end_to_end"][metric]
            found = verdict(left, right, better, bound, FLOORS.get(metric, 0.0))
            timing = unit in ("s", "1/s")
            if host_moved and timing and found in ("improved", "regressed"):
                found = f"unresolved (host speed: spin {spins[0]:.0f} -> {spins[1]:.0f} ms)"
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": unit,
                    "old": left,
                    "new": right,
                    "ratio": right["median"] / left["median"] if left["median"] else float("nan"),
                    "bound": bound,
                    "verdict": found,
                }
            )
        old_share = before["failed"] / before["attempted"]
        new_share = after["failed"] / after["attempted"]
        rows.append(
            {
                "workload": name,
                "metric": "failed_share",
                "old_share": old_share,
                "new_share": new_share,
                "verdict": "regressed" if new_share > old_share else "unchanged",
            }
        )
        same = before["result_digest"] == after["result_digest"]
        rows.append(
            {
                "workload": name,
                "metric": "result_digest",
                "old_digest": before["result_digest"],
                "new_digest": after["result_digest"],
                "verdict": "identical" if same else "simulated results changed",
            }
        )
    return rows


def render(rows: Sequence[dict]) -> str:
    lines = []
    for row in rows:
        head = f"{row['workload']:<22} {row['metric']:<14}"
        if row["metric"] == "result_digest":
            lines.append(f"{head} {row['old_digest'][:12]} -> {row['new_digest'][:12]}  {row['verdict']}")
        elif row["metric"] == "failed_share":
            lines.append(f"{head} {row['old_share']:.6f} -> {row['new_share']:.6f}  {row['verdict']}")
        else:
            old, new = row["old"], row["new"]
            lines.append(
                f"{head} old {old['median']:.4f} [{old['q1']:.4f}, {old['q3']:.4f}] "
                f"new {new['median']:.4f} [{new['q1']:.4f}, {new['q3']:.4f}] {row['unit']}  "
                f"new/old {row['ratio']:.3f} (base: old)  bound {row['bound']:.2f}  {row['verdict']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in arguments)
    rows = compare(old, new)
    print(render(rows))
    bad = [
        row for row in rows
        if row["verdict"] in ("regressed", "simulated results changed")
    ]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
