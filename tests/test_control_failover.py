"""Tests for site runtimes and deterministic failover routing."""

import pytest

from repro.control.failover import FailoverRouter, SiteRuntime
from repro.control.jobs import Job, JobRequest, SloClass


def make_sites():
    return [
        SiteRuntime("west", "us", (0.0, 0.0), slots=2),
        SiteRuntime("east", "us", (10.0, 0.0), slots=2),
        SiteRuntime("eu", "eu", (50.0, 0.0), slots=2),
    ]


def make_job(job_id="j1"):
    return Job(JobRequest(
        job_id=job_id, slo_class=SloClass.UPLOAD, origin=(0.0, 0.0),
        arrival_time=0.0, service_seconds=10.0,
    ))


class TestSiteRuntime:
    def test_defaults_derive_from_capacity(self):
        runtime = SiteRuntime("x", "us", (0, 0), slots=8)
        assert runtime.slots == 8
        assert runtime.max_slots == 32
        assert runtime.headroom() == 8
        assert runtime.load() == 0.0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            SiteRuntime("x", "us", (0, 0), slots=4, min_slots=1, max_slots=2)

    def test_outstanding_counts_queue_and_running(self):
        runtime = SiteRuntime("x", "us", (0, 0), slots=4)
        runtime.queue.push(make_job("q1"))
        runtime.running["r1"] = make_job("r1")
        assert runtime.outstanding() == 2
        assert runtime.load() == pytest.approx(0.5)


class TestRouting:
    def test_prefers_nearest_with_headroom(self):
        router = FailoverRouter(make_sites())
        chosen = router.choose((1.0, 0.0))
        assert chosen.name == "west"
        assert router.spill_routed == router.failover_routed == 0

    def test_spill_counted_when_nearest_full(self):
        router = FailoverRouter(make_sites())
        west = router.site("west")
        west.running["a"] = make_job("a")
        west.running["b"] = make_job("b")
        chosen = router.choose((1.0, 0.0))
        assert chosen.name == "east"
        assert router.spill_routed == 1
        assert router.failover_routed == 0

    def test_failover_counted_when_nearest_down(self):
        router = FailoverRouter(make_sites())
        router.mark_down("west")
        chosen = router.choose((1.0, 0.0))
        assert chosen.name == "east"
        assert router.failover_routed == 1
        assert router.spill_routed == 0

    def test_saturated_fleet_routes_least_loaded(self):
        router = FailoverRouter(make_sites())
        for site in router.sites:
            for i in range(site.slots):
                site.running[f"{site.name}{i}"] = make_job(f"{site.name}{i}")
        router.site("eu").queue.push(make_job("backlog"))
        # Everyone is full; west and east tie on load, west is nearer.
        assert router.choose((1.0, 0.0)).name == "west"

    def test_none_when_every_site_down(self):
        router = FailoverRouter(make_sites())
        for name in ("west", "east", "eu"):
            router.mark_down(name)
        assert router.choose((0.0, 0.0)) is None
        assert router.total_capacity() == 0

    def test_total_capacity_excludes_down_sites(self):
        router = FailoverRouter(make_sites())
        assert router.total_capacity() == 6
        router.mark_down("eu")
        assert router.total_capacity() == 4
        router.mark_up("eu")
        assert router.total_capacity() == 6

    def test_unknown_site_raises_with_known_names(self):
        router = FailoverRouter(make_sites())
        with pytest.raises(KeyError, match="east"):
            router.site("mars")

    def test_duplicate_names_rejected(self):
        sites = make_sites()
        sites[1] = SiteRuntime("west", "us", (1.0, 0.0), slots=2)
        with pytest.raises(ValueError):
            FailoverRouter(sites)


class TestOutageDrain:
    def test_mark_down_detaches_queued_and_running(self):
        router = FailoverRouter(make_sites())
        west = router.site("west")
        running = make_job("r1")
        west.running["r1"] = running
        west.queue.push(make_job("q1"))
        west.queue.push(make_job("q2"))
        queued, in_flight = router.mark_down("west")
        assert [j.job_id for j in queued] == ["q1", "q2"]
        assert [j.job_id for j in in_flight] == ["r1"]
        assert not west.up
        assert len(west.queue) == 0 and not west.running

    def test_recovered_site_accepts_again(self):
        router = FailoverRouter(make_sites())
        router.mark_down("west")
        router.mark_up("west")
        assert router.choose((1.0, 0.0)).name == "west"
