"""Control-plane executor that runs jobs as segment streams.

:class:`StreamingExecutor` plugs the PR 6 job lifecycle into the
segment-level dataflow: a dispatched LIVE job becomes a dripping
:class:`~repro.transcode.segments.StreamSpec` with a per-segment
manifest deadline, while UPLOAD (and BATCH) jobs become whole-arrival
streams whose segments are all released at dispatch.  The job completes
when the stream's final manifest entry is published -- the latency the
control plane's queue-wait histograms see is therefore end-to-end real:
admission + dispatch + encode + alignment.

Like :class:`~repro.control.plane.ClusterExecutor`, streams cannot be
killed mid-flight (there is no per-graph cancel), so :meth:`start`
returns ``None`` and an outage drain lets in-flight streams finish on
the surviving devices.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.control.jobs import Job, SloClass
from repro.control.failover import SiteRuntime
from repro.control.plane import DoneFn
from repro.transcode.segments import StreamKind, StreamSpec
from repro.transcode.streaming import LadderDispatcher, StreamSession
from repro.video.frame import Resolution, resolution


class StreamingExecutor:
    """Executes control-plane jobs as segment streams on one cluster."""

    def __init__(
        self,
        dispatcher: LadderDispatcher,
        segment_seconds: float = 2.0,
        live_source: Optional[Resolution] = None,
        upload_source: Optional[Resolution] = None,
        live_deadline_seconds: Optional[float] = 6.0,
        codecs: Tuple[str, ...] = ("h264",),
    ) -> None:
        if segment_seconds <= 0:
            raise ValueError("segment_seconds must be positive")
        self.dispatcher = dispatcher
        self.segment_seconds = segment_seconds
        self.live_source = live_source or resolution("1080p")
        self.upload_source = upload_source or resolution("720p")
        self.live_deadline_seconds = live_deadline_seconds
        self.codecs = codecs

    def spec_for(self, job: Job) -> StreamSpec:
        """The stream a job's modelled demand maps to.

        ``service_seconds`` is read as seconds of source content; a live
        leg drips that many seconds of capture, an upload has them all
        on disk already.
        """
        live = job.slo_class is SloClass.LIVE
        segments = max(
            1, int(round(job.request.service_seconds / self.segment_seconds))
        )
        return StreamSpec(
            stream_id=job.job_id,
            kind=StreamKind.LIVE if live else StreamKind.UPLOAD,
            source=self.live_source if live else self.upload_source,
            segment_count=segments,
            segment_seconds=self.segment_seconds,
            codecs=self.codecs,
            deadline_seconds=self.live_deadline_seconds if live else None,
        )

    def start(self, job: Job, site: SiteRuntime, on_done: DoneFn) -> None:
        def finished(session: StreamSession, job: Job = job) -> None:
            on_done(job, True)

        self.dispatcher.start_stream(self.spec_for(job), on_final=finished)
        return None
