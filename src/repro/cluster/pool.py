"""Logical pools of computing (Section 3.3.3).

Each cluster defines pools by use case (upload, live, ...) and priority
(critical, normal, batch); each pool has its own scheduler and workers.
Idle workers can be stopped and reallocated to other pools, maximizing
cluster-wide VCU utilization; :class:`~repro.cluster.autoscale.Autoscaler`
does the moving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.worker import Worker


class UseCase(enum.Enum):
    UPLOAD = "upload"
    LIVE = "live"


class Priority(enum.IntEnum):
    CRITICAL = 0
    NORMAL = 1
    BATCH = 2


@dataclass(frozen=True, order=True)
class PoolKey:
    priority: Priority
    use_case: UseCase

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.use_case.value}/{self.priority.name.lower()}"


@dataclass
class Pool:
    """One pool: its workers plus demand bookkeeping for reallocation."""

    key: PoolKey
    workers: List["Worker"] = field(default_factory=list)
    pending_steps: int = 0

    def idle_workers(self) -> List["Worker"]:
        return [w for w in self.workers if w.is_idle()]

    def demand_pressure(self) -> float:
        """Pending work per worker; the reallocation signal."""
        if not self.workers:
            return float("inf") if self.pending_steps else 0.0
        return self.pending_steps / len(self.workers)
