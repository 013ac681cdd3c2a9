"""Search budgets: node-count and wall-clock limits for the exact solvers.

A solver that exhausts its budget returns its best incumbent with status
"lower-bound" instead of raising, so callers can always use the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import InputError

EXACT = "exact"
LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class Budget:
    """Limits for a single solver call. ``None`` means unlimited."""

    max_nodes: int | None = None
    max_ms: float | None = None

    def __post_init__(self):
        # a NaN deadline never passes and a negative node limit stops at once,
        # so neither is a budget anyone meant
        if self.max_nodes is not None and self.max_nodes < 0:
            raise InputError(f"max_nodes must be >= 0, got {self.max_nodes}")
        if self.max_ms is not None and math.isnan(self.max_ms):
            raise InputError("max_ms must be a number, got NaN")


class SearchClock:
    """Mutable per-call search state: node counter plus deadline checks.

    The wall clock is only consulted every 256 nodes to keep the per-node
    overhead to a couple of integer operations; work outside the search tree
    checks the deadline itself with :meth:`expired`.
    """

    __slots__ = ("max_nodes", "deadline", "nodes", "started", "exhausted")

    def __init__(self, budget: Budget | None = None):
        budget = budget or Budget()
        self.max_nodes = budget.max_nodes
        self.started = time.monotonic()
        self.deadline = (
            None if budget.max_ms is None else self.started + budget.max_ms / 1000.0
        )
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        """Count one search node; return False once the budget is spent.

        A call rejected by the node limit is not counted, so on exhaustion
        ``nodes == max_nodes`` exactly.
        """
        if self.exhausted:
            return False
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            self.exhausted = True
            return False
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                self.exhausted = True
        return not self.exhausted

    def expired(self) -> bool:
        """Check the deadline without counting a node, for work done before
        the search (such as precompute); True once the budget is spent."""
        if not self.exhausted and self.deadline is not None:
            self.exhausted = time.monotonic() > self.deadline
        return self.exhausted

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0

    @property
    def status(self) -> str:
        return LOWER_BOUND if self.exhausted else EXACT
