"""Sort-based Pareto front extraction, O(n log n) instead of O(n²).

The front is over two objectives: server cost savings (maximize) and
availability (maximize). After a stable sort by savings descending, one
sweep over the equal-savings groups suffices:

* within a group, only the members attaining the group maximum
  availability can be non-dominated (anything lower is dominated by a
  group-mate with strictly higher availability);
* the group maximum itself survives iff it strictly exceeds the best
  availability seen among all *strictly higher* savings groups —
  otherwise some cheaper-or-equal design with at-least-equal
  availability dominates it.

Output order is (savings descending, original index ascending) — the
order the quadratic implementation produced via a stable sort, which
the tests keep as the oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pareto_indices"]


def pareto_indices(savings, availability) -> np.ndarray:
    """Indices of the non-dominated ``(savings[i], availability[i])``.

    A point is dominated when another point is >= in both coordinates
    and > in at least one. Duplicated non-dominated points all survive
    (neither dominates the other), matching the quadratic reference.
    """
    savings = np.asarray(savings, dtype=np.float64)
    availability = np.asarray(availability, dtype=np.float64)
    if savings.size == 0:
        return np.empty(0, dtype=np.int64)
    return _front_in_order(
        np.argsort(-savings, kind="stable"), savings, availability
    )


def _front_in_order(order, savings, availability) -> np.ndarray:
    """:func:`pareto_indices` given its sort: ``order`` must be the
    stable savings-descending ``argsort`` of a non-empty ``savings``.

    The fleet optimizer walks its grid in that order already and hands
    it over rather than sorting the grid twice.
    """
    savings = savings[order]
    availability = availability[order]
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    new_group[1:] = savings[1:] != savings[:-1]
    group_max = np.maximum.reduceat(availability, np.flatnonzero(new_group))
    previous_best = np.concatenate(
        ([-np.inf], np.maximum.accumulate(group_max)[:-1])
    )
    group = np.cumsum(new_group) - 1
    keep = (group_max > previous_best)[group] & (
        availability == group_max[group]
    )
    return order[keep]
