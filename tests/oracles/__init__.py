"""Reference implementations the parity suites and perf floors check against.

Each module here is the plain, pre-optimization form of a hot path that
``src/`` now ships only in its fast form:

* :mod:`tests.oracles.engine` -- the frozen single-heapq event loop the
  calendar engine (:mod:`repro.sim.engine`) must dispatch identically to;
* :mod:`tests.oracles.scheduler` -- the linear fleet scan and the
  whole-fleet fit mask that :class:`~repro.cluster.scheduler.BinPackingScheduler`'s
  indexed placement and per-shape fit bits must agree with;
* :mod:`tests.oracles.codec` -- the scalar intra, motion-search and
  entropy walks, and :class:`~tests.oracles.codec.ReferenceEncoder`, the
  encoder built on them, which must emit the batched encoder's bitstream
  bit for bit.

Only tests and ``benchmarks/perf`` import this package; nothing under
``src/`` does.  Do not optimize these modules: their value is that they
do not change.
"""
