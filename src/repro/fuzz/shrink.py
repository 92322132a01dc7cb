"""Delta-debugging shrinker for failing choice lists.

Given a failing fuzz case ``(config, choices)``, the shrinker searches
for a shorter choice list that still reproduces the *same* failure
signature (kind + overlapping rule codes, see
:func:`repro.fuzz.runner.same_failure`).  Every candidate is judged by
actually re-running the case, so the shrinker needs no model of which
decisions mattered -- the replay fallback (decisions past the end of the
list pick the lowest runnable worker) keeps every candidate list
well-defined.

Three passes, in order:

1. **tail truncation** -- binary search for the shortest failing
   prefix (scheduling decisions after the bug manifests are noise);
2. **ddmin** -- Zeller's delta debugging over the remaining list, down
   to granularity 1: on exit no *single* remaining decision can be
   dropped without losing the failure (1-minimality w.r.t. deletion);
3. **value lowering** -- each surviving decision is nudged to the
   smallest worker id that keeps the failure, normalising reproducers.

The shrinker is deterministic and bounded by *max_evaluations* runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.fuzz.runner import (
    FuzzCaseResult,
    FuzzConfig,
    run_case,
    same_failure,
)


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing case."""

    original: FuzzCaseResult
    minimized: FuzzCaseResult
    evaluations: int

    @property
    def removed(self) -> int:
        return len(self.original.choices) - len(
            self.minimized.choices
        )


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _chunks(items: Sequence[int], n: int) -> List[List[int]]:
    """Split *items* into *n* roughly equal contiguous chunks."""
    size, extra = divmod(len(items), n)
    out: List[List[int]] = []
    start = 0
    for index in range(n):
        end = start + size + (1 if index < extra else 0)
        out.append(list(items[start:end]))
        start = end
    return [chunk for chunk in out if chunk]


def shrink_choices(
    config: FuzzConfig,
    failing: FuzzCaseResult,
    max_evaluations: int = 400,
) -> ShrinkResult:
    """Minimise *failing*'s choice list; returns the shrunk case."""
    signature = failing.signature
    budget = _Budget(max_evaluations)
    best = failing

    def try_choices(choices: Sequence[int]):
        """Run the candidate; returns its result if it still fails."""
        if not budget.spend():
            return None
        result = run_case(config, choices=list(choices))
        if same_failure(result, signature):
            return result
        return None

    best = _truncate_tail(best, try_choices)
    best = _ddmin(best, try_choices)
    best = _lower_values(best, try_choices)
    return ShrinkResult(
        original=failing, minimized=best, evaluations=budget.used
    )


def _truncate_tail(
    best: FuzzCaseResult,
    try_choices: Callable,
) -> FuzzCaseResult:
    """Binary-search the shortest failing prefix."""
    choices = best.choices
    low, high = 0, len(choices)  # invariant: prefix of `high` fails
    shortest = best
    while low < high:
        mid = (low + high) // 2
        result = try_choices(choices[:mid])
        if result is not None:
            shortest = result
            high = mid
        else:
            low = mid + 1
    return shortest


def _ddmin(
    best: FuzzCaseResult,
    try_choices: Callable,
) -> FuzzCaseResult:
    """Classic ddmin over the choice list."""
    items = list(best.choices)
    granularity = 2
    while len(items) >= 2:
        chunks = _chunks(items, granularity)
        reduced = False
        for index in range(len(chunks)):
            candidate: List[int] = []
            for other, chunk in enumerate(chunks):
                if other != index:
                    candidate.extend(chunk)
            result = try_choices(candidate)
            if result is not None:
                items = candidate
                best = result
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return best


def _lower_values(
    best: FuzzCaseResult,
    try_choices: Callable,
) -> FuzzCaseResult:
    """Replace each decision with the lowest worker id that still
    reproduces the failure (canonicalises the reproducer)."""
    items = list(best.choices)
    for index in range(len(items)):
        for lower in range(items[index]):
            candidate = list(items)
            candidate[index] = lower
            result = try_choices(candidate)
            if result is not None:
                items = candidate
                best = result
                break
    return best
