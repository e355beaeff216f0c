"""Multi-dimensional resources for the event engine.

:class:`MultiResource` is the primitive behind the paper's bin-packing
scheduler (Section 3.3.3): each worker advertises named scalar dimensions
("millidecode", "milliencode", "dram_bytes", "host_cpu", plus synthetic
dimensions), and requests reserve a vector across all of them atomically.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple


class MultiResource:
    """A vector of named scalar dimensions reserved atomically.

    This mirrors the worker-resource model of Section 3.3.3: a request
    either fits in *every* dimension or does not fit at all.  It is
    non-blocking by design -- the cluster scheduler, not the resource,
    decides where unfit requests go.
    """

    __slots__ = {
        "name": "Label used in over-release errors.",
        "capacity": """Each dimension's total, as a read-only mapping.

        Capacity never changes after construction, so resources built
        from one ``MappingProxyType`` share it: a fleet of identical
        devices holds one capacity mapping, not one per device.  Any
        other mapping is copied into a fresh read-only one.""",
        "available": "Each dimension's unreserved amount; this resource's own dict.",
    }

    def __init__(self, capacities: Mapping[str, float], name: str = ""):
        if not capacities:
            raise ValueError("at least one dimension is required")
        for dim, cap in capacities.items():
            if not 0.0 <= cap < math.inf:
                raise ValueError(
                    f"dimension {dim!r} has capacity {cap}; it must be finite and >= 0"
                )
        capacity = (
            capacities if isinstance(capacities, MappingProxyType)
            else MappingProxyType(dict(capacities))
        )
        self.name = name
        self.capacity: Mapping[str, float] = capacity
        self.available: Dict[str, float] = capacity.copy()

    def dimensions(self) -> Tuple[str, ...]:
        return tuple(self.capacity)

    @staticmethod
    def _epsilon(scale: float) -> float:
        """Float-comparison slack, relative to the magnitude involved."""
        return max(1e-9, 1e-9 * abs(scale))

    def fits(self, request: Mapping[str, float]) -> bool:
        """Whether the request fits the *current* availability.

        Dimensions absent from this resource do not fit (a CPU-only worker
        cannot host a request that needs encoder cores).
        """
        for dim, amount in request.items():
            if amount <= 0:
                continue
            if dim not in self.available:
                return False
            if self.available[dim] + self._epsilon(amount) < amount:
                return False
        return True

    def could_ever_fit(self, request: Mapping[str, float]) -> bool:
        """Whether the request fits total capacity (ignoring current use)."""
        for dim, amount in request.items():
            if amount <= 0:
                continue
            if dim not in self.capacity:
                return False
            if self.capacity[dim] + self._epsilon(amount) < amount:
                return False
        return True

    def acquire(self, request: Mapping[str, float]) -> bool:
        """Atomically reserve the vector; returns whether it succeeded."""
        if not self.fits(request):
            return False
        for dim, amount in request.items():
            if amount > 0:
                self.available[dim] -= amount
        return True

    def release(self, request: Mapping[str, float]) -> None:
        for dim, amount in request.items():
            if amount <= 0:
                continue
            self.available[dim] += amount
            cap = self.capacity[dim]
            if self.available[dim] > cap + max(1e-6, 1e-9 * cap):
                raise ValueError(
                    f"{self.name or 'resource'}: dimension {dim!r} released more than acquired"
                )
            # Clamp accumulated float error so long runs stay exact.
            if self.available[dim] > cap:
                self.available[dim] = cap

    def utilization(self, dim: Optional[str] = None) -> float:
        """Utilization of one dimension, or the max across dimensions."""
        if dim is not None:
            cap = self.capacity[dim]
            return 0.0 if cap == 0 else (cap - self.available[dim]) / cap
        fractions = [
            (cap - self.available[d]) / cap
            for d, cap in self.capacity.items()
            if cap > 0
        ]
        return max(fractions) if fractions else 0.0

    def headroom(self) -> Dict[str, float]:
        return dict(self.available)

    def is_idle(self) -> bool:
        return all(
            abs(self.available[d] - cap) < 1e-9 for d, cap in self.capacity.items()
        )
