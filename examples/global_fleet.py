#!/usr/bin/env python3
"""Fleet pools: idle workers move to the pool whose demand spikes.

Inside a cluster (Section 3.3.3) logical pools trade workers as demand
shifts between upload and live traffic.  Routing across clusters --
nearest site with headroom, spill, and failover under a regional
outage -- runs through the control plane in
``examples/global_platform_day.py``.

Run:  python examples/global_fleet.py
"""

from __future__ import annotations

from repro.cluster.autoscale import AutoscaleConfig, Autoscaler
from repro.cluster.pool import Pool, PoolKey, Priority, UseCase
from repro.cluster.worker import VcuWorker
from repro.vcu.chip import Vcu
from repro.vcu.spec import DEFAULT_VCU_SPEC


def autoscale_demo() -> None:
    upload = Pool(PoolKey(Priority.NORMAL, UseCase.UPLOAD))
    live = Pool(PoolKey(Priority.CRITICAL, UseCase.LIVE))
    upload.workers = [
        VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"gf-u{i}")) for i in range(8)
    ]
    live.workers = [
        VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"gf-l{i}")) for i in range(2)
    ]
    pools = {upload.key: upload, live.key: live}
    scaler = Autoscaler(pools, AutoscaleConfig(workers_per_step=1))

    print("A live event spikes the live pool's backlog:")
    live.pending_steps = 30
    tick = 0
    while live.demand_pressure() > scaler.config.scale_up_pressure and tick < 10:
        tick += 1
        actions = scaler.step()
        # The live pool also drains some backlog each tick.
        live.pending_steps = max(0, live.pending_steps - 4 * len(live.workers))
        moved = sum(a.workers for a in actions)
        print(f"  tick {tick}: moved {moved} worker(s); live pool "
              f"{len(live.workers)} workers, backlog {live.pending_steps}, "
              f"upload pool {len(upload.workers)} workers")
    print(f"fleet conserved: {scaler.total_workers()} workers total; "
          f"{len(scaler.history)} scaling actions recorded")


def main() -> None:
    autoscale_demo()


if __name__ == "__main__":
    main()
