"""Search budgets, the per-call search clock, and the one result type.

A solver that exhausts its budget returns its best incumbent with status
"lower-bound" instead of raising, so callers can always use the result.
Every search (gp, ω, α, ρ and η) returns a :class:`GpResult`, built by
:meth:`SearchClock.result` from the clock that ran it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Real

from .errors import InputError
from .graph import VertexSet

EXACT = "exact"
LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class Budget:
    """Limits for a single solver call. ``None`` means unlimited."""

    max_nodes: int | None = None
    max_ms: float | None = None

    def __post_init__(self):
        # a NaN deadline never passes and a negative node limit stops at once,
        # so neither is a budget anyone meant; nor is a bool or fractional limit
        nodes, ms = self.max_nodes, self.max_ms
        if nodes is not None and (isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 0):
            raise InputError(f"max_nodes must be an integer >= 0, got {nodes!r}")
        if ms is not None and (isinstance(ms, bool) or not isinstance(ms, Real) or math.isnan(ms)):
            raise InputError(f"max_ms must be a number, got {ms!r}")


@dataclass(frozen=True, slots=True)
class GpResult:
    """Outcome of a search; witness certifies value."""

    value: int
    witness: VertexSet
    status: str  # "exact" | "lower-bound"
    nodes_explored: int
    elapsed_ms: float
    method: str  # "exact" (gp), "omega", "alpha" or "rho" (also for η)


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

    def result(self, value: int, witness: VertexSet, method: str) -> GpResult:
        """The search's outcome, with this clock's status, nodes and time."""
        return GpResult(value, witness, self.status, self.nodes, self.elapsed_ms(), method)
