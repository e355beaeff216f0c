"""Integration tests: step graphs executing on the simulated cluster."""

import pytest

from repro import obs
from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.sim import Simulator
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.transcode.ladder import LadderPolicy
from repro.vcu.chip import Vcu
from repro.vcu.spec import DEFAULT_VCU_SPEC
from repro.video.frame import resolution


def make_cluster(sim, vcus=2, cpus=1, **kwargs):
    vcu_workers = [
        VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"c{id(sim)%997}-vcu{i}"))
        for i in range(vcus)
    ]
    cpu_workers = [CpuWorker(cores=16, name=None) for _ in range(cpus)]
    return TranscodeCluster(sim, vcu_workers, cpu_workers, **kwargs)


def upload_graph(video_id="v1", frames=300, source="720p"):
    return build_transcode_graph(
        video_id=video_id, source=resolution(source), total_frames=frames,
        fps=30.0, bucket=PopularityBucket.WARM,
    )


class TestEndToEnd:
    def test_graph_completes(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        graph = upload_graph()
        cluster.submit(graph)
        sim.run()
        assert graph.completed_at is not None
        assert cluster.stats.completed_graphs == 1
        assert cluster.pending_count == 0

    def test_all_resources_released(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        cluster.submit(upload_graph())
        sim.run()
        for worker in cluster.vcu_workers:
            assert worker.vcu.resources.is_idle()
        for worker in cluster.cpu_workers:
            assert worker.resources.is_idle()

    def test_throughput_recorded(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        graph = upload_graph()
        cluster.submit(graph)
        sim.run()
        assert cluster.stats.throughput.total_megapixels == pytest.approx(
            graph.output_megapixels()
        )

    def test_assembly_runs_after_transcodes(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        graph = upload_graph()
        cluster.submit(graph)
        sim.run()
        # Graph latency must be >= the longest transcode; assembly gated.
        assert graph.completed_at > graph.submitted_at

    def test_multiple_graphs_share_cluster(self):
        sim = Simulator()
        cluster = make_cluster(sim, vcus=3)
        graphs = [upload_graph(f"v{i}") for i in range(4)]
        for graph in graphs:
            cluster.submit(graph)
        sim.run()
        assert cluster.stats.completed_graphs == 4
        assert all(g.completed_at is not None for g in graphs)

    def test_processed_by_records_vcu(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        graph = upload_graph()
        cluster.submit(graph)
        sim.run()
        for step in graph.transcode_steps():
            assert step.processed_by is not None
            assert step.processed_by.endswith(tuple("0123456789"))


class TestQueueing:
    def test_work_queues_when_cluster_full(self):
        sim = Simulator()
        cluster = make_cluster(sim, vcus=1)
        for i in range(6):
            cluster.submit(upload_graph(f"v{i}", frames=600, source="1080p"))
        # Before running, some steps must be pending (one VCU can't hold
        # all of them at once).
        assert cluster.pending_count > 0
        sim.run()
        assert cluster.stats.completed_graphs == 6
        assert cluster.pending_count == 0

    def test_more_vcus_finish_sooner(self):
        def run_with(vcus):
            sim = Simulator()
            cluster = make_cluster(sim, vcus=vcus)
            for i in range(6):
                cluster.submit(upload_graph(f"v{i}", frames=600, source="1080p"))
            return sim.run()

        assert run_with(4) < run_with(1)


class TestSoftwareFallback:
    def test_software_only_steps_use_cpu(self):
        sim = Simulator()
        cluster = make_cluster(sim, vcus=1, cpus=1)
        graph = upload_graph(frames=150, source="480p")
        for step in graph.steps:
            step.software_only = True
        cluster.submit(graph)
        sim.run()
        assert graph.completed_at is not None
        assert cluster.stats.software_fallbacks == len(graph.transcode_steps())
        for step in graph.transcode_steps():
            assert step.processed_by.startswith("worker-") or "cpu" in step.processed_by

    def test_software_path_much_slower(self):
        def run(software_only):
            sim = Simulator()
            cluster = make_cluster(sim, vcus=1, cpus=1)
            graph = upload_graph(frames=150, source="480p")
            if software_only:
                for step in graph.steps:
                    step.software_only = True
            cluster.submit(graph)
            sim.run()
            return graph.completed_at

        assert run(True) > 3.0 * run(False)


class TestValidation:
    def test_bad_integrity_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_cluster(sim, integrity_check_rate=1.5)

    def test_reused_obs_hub_fails_at_construction(self):
        with obs.installed() as hub:
            first = Simulator()
            cluster = make_cluster(first)
            cluster.submit(upload_graph())
            first.run()
            assert hub.metrics.time_gauge("cluster.encoder_util").last_time > 0
            with pytest.raises(RuntimeError, match="fresh hub per simulation"):
                make_cluster(Simulator())

    def test_fresh_hub_per_simulation_works(self):
        for _ in range(2):
            with obs.installed():
                sim = Simulator()
                cluster = make_cluster(sim)
                cluster.submit(upload_graph())
                sim.run()
                assert cluster.stats.completed_graphs == 1

    def test_a_graph_is_submitted_once(self):
        # Its steps would complete twice, and a completed graph's second
        # run would never report done.
        sim = Simulator()
        cluster = make_cluster(sim, vcus=1)
        graph = upload_graph("v", frames=60, source="480p")
        cluster.submit(graph)
        with pytest.raises(ValueError, match="'v'"):
            cluster.submit(graph)
        sim.run()
        assert cluster.stats.completed_graphs == 1
        steps = cluster.stats.completed_steps
        with pytest.raises(ValueError, match="'v'"):
            cluster.submit(graph)
        sim.run()
        assert cluster.stats.completed_steps == steps
