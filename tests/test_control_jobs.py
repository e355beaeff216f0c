"""Tests for the job state machine, class queues, and the durable ledger."""

import pytest

from repro.control.jobs import (
    CLASS_ORDER,
    SHED_ORDER,
    TERMINAL_STATES,
    IllegalTransition,
    Job,
    JobRequest,
    JobState,
    RetryPolicy,
    SloClass,
)
from repro.control.queue import ClassQueue, DeadLetterLedger, JobLedger


def make_job(job_id="j1", cls=SloClass.UPLOAD, arrival=0.0, service=10.0):
    return Job(JobRequest(
        job_id=job_id, slo_class=cls, origin=(0.0, 0.0),
        arrival_time=arrival, service_seconds=service,
    ))


class TestStateMachine:
    def test_happy_path(self):
        job = make_job()
        job.transition(JobState.ADMITTED, 1.0)
        job.transition(JobState.RUNNING, 2.0)
        job.transition(JobState.DONE, 12.0)
        assert job.terminal
        assert job.completed_at() == 12.0
        assert [s for _, s in job.history] == [
            JobState.QUEUED, JobState.ADMITTED, JobState.RUNNING, JobState.DONE,
        ]

    def test_illegal_transition_raises(self):
        job = make_job()
        with pytest.raises(IllegalTransition):
            job.transition(JobState.RUNNING, 1.0)  # must be admitted first

    def test_terminal_states_are_final(self):
        for terminal in TERMINAL_STATES:
            job = make_job()
            if terminal is JobState.SHED:
                job.transition(JobState.SHED, 1.0)
            else:
                job.transition(JobState.ADMITTED, 1.0)
                job.transition(JobState.RUNNING, 2.0)
                job.transition(terminal, 3.0)
            for target in JobState:
                with pytest.raises(IllegalTransition):
                    job.transition(target, 4.0)

    def test_retry_loop_is_legal(self):
        job = make_job()
        job.transition(JobState.ADMITTED, 1.0)
        job.transition(JobState.RUNNING, 1.0)
        job.transition(JobState.RETRY_WAIT, 5.0)
        job.transition(JobState.QUEUED, 7.0)
        job.transition(JobState.ADMITTED, 8.0)
        job.transition(JobState.RUNNING, 8.0)
        job.transition(JobState.DONE, 18.0)
        assert job.terminal

    def test_time_accounting_splits_queue_and_backoff(self):
        job = make_job(arrival=10.0)
        job.transition(JobState.ADMITTED, 13.0)   # 3 s queued
        job.transition(JobState.RUNNING, 14.0)    # 1 s admitted
        job.transition(JobState.RETRY_WAIT, 20.0)
        job.transition(JobState.QUEUED, 24.0)     # 4 s backoff
        job.transition(JobState.ADMITTED, 26.0)   # 2 s queued
        job.transition(JobState.RUNNING, 26.0)
        job.transition(JobState.DONE, 30.0)
        assert job.queue_seconds == pytest.approx(6.0)
        assert job.retry_wait_seconds == pytest.approx(4.0)

    def test_time_moving_backwards_rejected(self):
        job = make_job(arrival=5.0)
        with pytest.raises(ValueError):
            job.transition(JobState.ADMITTED, 4.0)

    def test_class_orders_are_inverses(self):
        assert tuple(reversed(CLASS_ORDER)) == SHED_ORDER
        assert SloClass.LIVE < SloClass.UPLOAD < SloClass.BATCH


class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(base_delay_seconds=2.0, multiplier=2.0,
                             max_delay_seconds=120.0, max_attempts=10)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == [2, 4, 8, 16]

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay_seconds=2.0, max_delay_seconds=5.0)
        assert policy.delay_for(8) == 5.0

    def test_exhaustion_boundary(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


class TestClassQueue:
    def test_pop_serves_live_first_fifo_within_class(self):
        queue = ClassQueue()
        batch = make_job("b1", SloClass.BATCH)
        live1 = make_job("l1", SloClass.LIVE)
        live2 = make_job("l2", SloClass.LIVE)
        for job in (batch, live1, live2):
            queue.push(job)
        assert [queue.pop().job_id for _ in range(3)] == ["l1", "l2", "b1"]
        assert queue.pop() is None

    def test_shed_removes_newest_of_lowest_class(self):
        queue = ClassQueue()
        for job_id, cls in (
            ("b1", SloClass.BATCH), ("b2", SloClass.BATCH),
            ("u1", SloClass.UPLOAD), ("l1", SloClass.LIVE),
        ):
            queue.push(make_job(job_id, cls))
        assert queue.shed_one(SloClass.BATCH).job_id == "b2"  # newest batch
        assert queue.shed_one(SloClass.BATCH).job_id == "b1"
        # Sweep limited to BATCH never touches upload or live.
        assert queue.shed_one(SloClass.BATCH) is None
        assert queue.shed_one(SloClass.UPLOAD).job_id == "u1"
        assert queue.shed_one(SloClass.LIVE).job_id == "l1"

    def test_drain_is_priority_then_fifo(self):
        queue = ClassQueue()
        for job_id, cls in (
            ("b1", SloClass.BATCH), ("l1", SloClass.LIVE),
            ("u1", SloClass.UPLOAD), ("l2", SloClass.LIVE),
        ):
            queue.push(make_job(job_id, cls))
        assert [j.job_id for j in queue.drain()] == ["l1", "l2", "u1", "b1"]
        assert len(queue) == 0 and not queue

    def test_depths(self):
        queue = ClassQueue()
        queue.push(make_job("l1", SloClass.LIVE))
        assert queue.depth(SloClass.LIVE) == 1
        assert queue.depths()[SloClass.BATCH] == 0


class TestLedger:
    def test_duplicate_ids_rejected(self):
        ledger = JobLedger()
        ledger.register(make_job("dup"))
        with pytest.raises(ValueError):
            ledger.register(make_job("dup"))

    def test_conservation_flags_nonterminal_jobs(self):
        ledger = JobLedger()
        done, stuck = make_job("done"), make_job("stuck")
        ledger.register(done)
        ledger.register(stuck)
        ledger.transition(done, JobState.ADMITTED, 1.0, "t")
        ledger.transition(done, JobState.RUNNING, 1.0, "t")
        ledger.transition(done, JobState.DONE, 2.0, "t")
        report = ledger.conservation_report()
        assert report["submitted"] == report["accounted"] == 2
        assert report["nonterminal"] == ["stuck"]
        assert not report["ok"]
        ledger.transition(stuck, JobState.SHED, 3.0, "t")
        assert ledger.conservation_report()["ok"]

    def test_transition_records_carry_reasons(self):
        ledger = JobLedger()
        job = make_job()
        ledger.register(job)
        ledger.transition(job, JobState.SHED, 1.0, "overload:arrival")
        assert ledger.records[0].from_state is None
        assert ledger.records[-1].reason == "overload:arrival"
        assert ledger.records[-1].to_state is JobState.SHED

    def test_dead_letters_capture_history(self):
        letters = DeadLetterLedger()
        job = make_job("dead", SloClass.BATCH)
        job.transition(JobState.ADMITTED, 1.0)
        job.transition(JobState.RUNNING, 1.0)
        job.attempts = 4
        job.transition(JobState.FAILED, 9.0)
        entry = letters.record(job, 9.0, "execution_fault")
        assert len(letters) == 1
        assert entry.attempts == 4
        assert entry.history[0] == (0.0, "queued")
        assert entry.history[-1] == (9.0, "failed")
