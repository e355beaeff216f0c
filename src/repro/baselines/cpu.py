"""The software-encoding baseline: a dual-socket Intel Skylake server.

Throughput model: per-logical-core pixel rates at the 1080p reference
point, scaled by a per-codec resolution exponent.  VP9's exponent is
steep -- libvpx at production quality slows superlinearly with pixel
count -- which is what makes 2160p VP9 software encoding "infeasible at
upload time" (Section 4.5: a 150-frame 2160p chunk takes ~15 wall-clock
minutes and over a CPU-hour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.video.frame import Resolution, resolution

#: Machine-level vbench-mix offline two-pass SOT throughput (Table 1).
_VBENCH_THROUGHPUT_MPIX_S: Dict[str, float] = {"h264": 714.0, "vp9": 154.0}

#: Slowdown exponents: rate(res) = rate_1080p * (pixels/1080p)^-alpha.
_RESOLUTION_EXPONENT: Dict[str, float] = {"h264": 0.30, "vp9": 1.08}


@dataclass(frozen=True)
class SkylakeSystem:
    """Dual-socket Skylake, 384 GiB DRAM, ~100 usable logical cores."""

    logical_cores: int = 100
    vbench_throughput_mpix_s: Dict[str, float] = field(
        default_factory=lambda: dict(_VBENCH_THROUGHPUT_MPIX_S)
    )
    resolution_exponent: Dict[str, float] = field(
        default_factory=lambda: dict(_RESOLUTION_EXPONENT)
    )

    def machine_throughput(self, codec: str, res: Resolution = None) -> float:
        """Offline two-pass SOT throughput in Mpix/s at a resolution.

        Without a resolution this returns the vbench-mix figure (Table 1).
        """
        base = self._vbench(codec)
        if res is None:
            return base
        # The slowdown is superlinear only *above* the 1080p reference
        # point (bigger search windows, worse cache behaviour); below it
        # software throughput per pixel is roughly flat.
        ref = resolution("1080p")
        if res.pixels <= ref.pixels:
            return base
        scale = (res.pixels / ref.pixels) ** (-self.resolution_exponent[codec])
        return base * scale

    def per_core_throughput(self, codec: str, res: Resolution = None) -> float:
        return self.machine_throughput(codec, res) / self.logical_cores

    def encode_core_seconds(self, codec: str, res: Resolution, frames: int) -> float:
        """CPU core-seconds to encode ``frames`` frames at ``res``."""
        pixels = res.pixels * frames / 1e6  # Mpix
        return pixels / self.per_core_throughput(codec, res)

    def chunk_wall_seconds(
        self, codec: str, res: Resolution, frames: int, cores: int
    ) -> float:
        """Wall-clock time for one chunk on a bounded core allocation.

        Software encoders do not scale perfectly across cores; a 75%
        parallel efficiency reflects chunk-level threading limits.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        core_seconds = self.encode_core_seconds(codec, res, frames)
        return core_seconds / (cores * 0.75)

    def vp9_h264_cost_ratio(self) -> float:
        """How much more expensive VP9 software encoding is (paper: 6-8x
        at production resolutions; the vbench mix shows 4.6x)."""
        return self._vbench("h264") / self._vbench("vp9")

    def _vbench(self, codec: str) -> float:
        try:
            return self.vbench_throughput_mpix_s[codec]
        except KeyError:
            raise ValueError(f"unknown codec {codec!r}") from None
