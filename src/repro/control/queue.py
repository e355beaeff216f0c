"""Durable job bookkeeping: the ledger, class queues, and dead letters.

"Durable" here means *accounted for*: the :class:`JobLedger` records
every job ever submitted and every transition it took, so at any point
the sum over states equals the number of submissions -- the conservation
invariant the flagship scenario's tests enforce.  Jobs that exhaust
their retry budget land in the :class:`DeadLetterLedger` with their full
history attached; nothing is ever dropped without a record saying when,
where, and why.

:class:`ClassQueue` is the strict-priority FIFO used both for the global
parking queue and for each site's dispatch queue: pops serve LIVE before
UPLOAD before BATCH, FIFO within a class; shedding removes from the
*tail* of a class (the newest arrivals -- survivors keep their FIFO
position, and the jobs dropped are the ones that would have waited
longest anyway).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.control.jobs import CLASS_ORDER, Job, JobState, SHED_ORDER, SloClass


@dataclass(frozen=True)
class TransitionRecord:
    """One ledger line: who moved where, when, and why."""

    at: float
    job_id: str
    from_state: Optional[JobState]  # None for the submission record
    to_state: JobState
    site: Optional[str]
    attempt: int
    reason: str


@dataclass(frozen=True)
class DeadLetter:
    """One permanently-failed job, with everything needed to debug it."""

    job_id: str
    slo_class: SloClass
    at: float
    attempts: int
    reason: str
    history: tuple  # ((time, state_value), ...)


class DeadLetterLedger:
    """FAILED jobs never vanish; they land here with their history."""

    def __init__(self) -> None:
        self.entries: List[DeadLetter] = []

    def record(self, job: Job, at: float, reason: str) -> DeadLetter:
        entry = DeadLetter(
            job_id=job.job_id,
            slo_class=job.slo_class,
            at=at,
            attempts=job.attempts,
            reason=reason,
            history=tuple((round(t, 9), s.value) for t, s in job.history),
        )
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)


class JobLedger:
    """Every job ever submitted, plus its append-only transition log."""

    def __init__(self) -> None:
        #: Insertion-ordered: submission order is the canonical job order.
        self.jobs: Dict[str, Job] = {}
        self.records: List[TransitionRecord] = []

    def register(self, job: Job, reason: str = "submit") -> None:
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self.jobs[job.job_id] = job
        self.records.append(TransitionRecord(
            at=job.request.arrival_time, job_id=job.job_id,
            from_state=None, to_state=job.state,
            site=job.site, attempt=job.attempts, reason=reason,
        ))

    def transition(self, job: Job, to: JobState, at: float, reason: str) -> None:
        """Move ``job`` through its state machine and log the hop."""
        from_state = job.state
        job.transition(to, at)
        self.records.append(TransitionRecord(
            at=at, job_id=job.job_id, from_state=from_state, to_state=to,
            site=job.site, attempt=job.attempts, reason=reason,
        ))

    # ------------------------------------------------------------------ #
    # Conservation

    def state_counts(self) -> Dict[str, int]:
        """Jobs per current state (every state present, zero-filled)."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts

    def conservation_report(self) -> Dict[str, Any]:
        """The invariant, checkable: submissions == sum over states.

        ``ok`` additionally requires every job to be terminal -- the
        fully-drained condition the flagship scenario asserts.  A job can
        only be in one state (``Job.state`` is scalar), so "exactly one
        terminal state" reduces to "terminal at drain time" plus the
        count identity.
        """
        counts = self.state_counts()
        submitted = len(self.jobs)
        accounted = sum(counts.values())
        nonterminal = [
            job.job_id for job in self.jobs.values() if not job.terminal
        ]
        return {
            "submitted": submitted,
            "accounted": accounted,
            "counts": counts,
            "nonterminal": nonterminal,
            "ok": submitted == accounted and not nonterminal,
        }

    def __len__(self) -> int:
        return len(self.jobs)


class ClassQueue:
    """Strict-priority FIFO over the SLO classes."""

    def __init__(self) -> None:
        self._queues: Dict[SloClass, Deque[Job]] = {
            cls: deque() for cls in CLASS_ORDER
        }

    def push(self, job: Job) -> None:
        self._queues[job.slo_class].append(job)

    def pop(self) -> Optional[Job]:
        """Highest-priority job, FIFO within a class; ``None`` when empty."""
        for cls in CLASS_ORDER:
            queue = self._queues[cls]
            if queue:
                return queue.popleft()
        return None

    def shed_one(self, at_or_below: SloClass) -> Optional[Job]:
        """Remove the newest job of the *lowest* populated class.

        Only classes at or below ``at_or_below`` priority (numerically
        >=) are eligible, so a sweep targeting BATCH never touches LIVE.
        """
        for cls in SHED_ORDER:
            if cls < at_or_below:
                continue
            queue = self._queues[cls]
            if queue:
                return queue.pop()
        return None

    def drain(self) -> List[Job]:
        """Remove and return everything, priority-then-FIFO ordered."""
        drained: List[Job] = []
        for cls in CLASS_ORDER:
            queue = self._queues[cls]
            drained.extend(queue)
            queue.clear()
        return drained

    def depth(self, cls: SloClass) -> int:
        return len(self._queues[cls])

    def depths(self) -> Dict[SloClass, int]:
        return {cls: len(self._queues[cls]) for cls in CLASS_ORDER}

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def __bool__(self) -> bool:
        return any(self._queues[cls] for cls in CLASS_ORDER)
