"""Speeds & feeds for the VCU and its host (Section 3.3.1 / Appendix A).

Every number here is either stated in the paper or derived from its
anchors; derivations are noted inline.  Tests in
``tests/test_vcu_spec.py`` assert the paper-stated identities (e.g. that
one encoder core sustains 2160p at 60 FPS, and that a 20-VCU system lands
at Table 1's throughput).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

GiB = 1024**3
Gbps = 1e9  # bits per second


class EncodingMode(enum.Enum):
    """The paper's four encoding modes (Section 2.1)."""

    LOW_LATENCY_ONE_PASS = "low_latency_one_pass"
    LOW_LATENCY_TWO_PASS = "low_latency_two_pass"
    LAGGED_TWO_PASS = "lagged_two_pass"
    OFFLINE_TWO_PASS = "offline_two_pass"


#: Encoder time cost multiplier per output pixel, relative to the realtime
#: low-latency point (one encoder core = 2160p60).  Low-latency two-pass
#: piggybacks first-pass statistics on hardware preprocessing (Section 4.3
#: "better use of hardware statistics"), so it keeps the realtime rate --
#: this is what lets Stadia run 4K60 on a single core.  Offline two-pass
#: spends a separate first pass (+0.5) and runs the deepest search/RDO
#: settings; the 6.7x total is derived from Table 1 (747 Mpix/s per VCU /
#: 10 cores vs the 500 Mpix/s realtime core rate).
MODE_COST_FACTOR: Dict[EncodingMode, float] = {
    EncodingMode.LOW_LATENCY_ONE_PASS: 1.0,
    EncodingMode.LOW_LATENCY_TWO_PASS: 1.0,
    EncodingMode.LAGGED_TWO_PASS: 1.2,
    EncodingMode.OFFLINE_TWO_PASS: 6.7,
}

#: In MOT, source analysis (first pass, fade/flash detection, altref
#: selection) is shared across the output ladder instead of repeated per
#: output, which is where MOT's 1.2-1.3x throughput advantage over SOT
#: comes from (Section 4.1).  This is the fraction of per-output encode
#: cost that the shared analysis represents for two-pass modes.
SHARED_ANALYSIS_FRACTION = 0.2


@dataclass(frozen=True)
class VcuSpec:
    """One VCU ASIC's resources and rates."""

    encoder_cores: int = 10
    decoder_cores: int = 3
    #: Realtime encode pixel rate per core (2160p = 3840*2160 at 60 FPS).
    #: VP9 is marginally faster per pixel in silicon (larger superblocks
    #: amortize per-block control); the 2.5% delta is derived from
    #: Table 1's 15,306 vs 14,932 Mpix/s.
    encode_pixel_rate: Dict[str, float] = field(
        default_factory=lambda: {"h264": 500.2e6, "vp9": 512.75e6}
    )
    #: Decode pixel rate per decoder core (hardware decode of any format).
    decode_pixel_rate: float = 525e6
    #: Raw DRAM bandwidth: four 32-bit LPDDR4-3200 channels (~36 GiB/s).
    dram_raw_bandwidth: float = 36 * GiB
    #: Achievable fraction of raw bandwidth (deep prefetch + aligned
    #: full-line writes, Section 3.2 -> high efficiency for a DRAM system).
    dram_efficiency: float = 0.80
    #: Usable device DRAM (six x32 chips; extra capacity is side-band ECC).
    dram_capacity: int = 8 * GiB
    #: Encoder DRAM traffic per processed pixel, bytes.  At 2160p60 the
    #: paper gives 3.5 GiB/s raw (~7 B/px), ~3 GiB/s worst and ~2 GiB/s
    #: typical with reference compression (~4.3 B/px typical).
    encode_bytes_per_pixel_raw: float = 7.0
    encode_bytes_per_pixel_typical: float = 4.3
    encode_bytes_per_pixel_worst: float = 6.5
    #: Decoder core DRAM traffic while active (paper: 2.2 GiB/s).
    decoder_bandwidth: float = 2.2 * GiB
    #: Scheduler-visible resource dimensions (Section 3.3.3).
    millidecode: int = 3000
    milliencode: int = 10000

    @property
    def effective_dram_bandwidth(self) -> float:
        return self.dram_raw_bandwidth * self.dram_efficiency

    def encode_rate(self, codec: str, mode: EncodingMode) -> float:
        """Per-core encode pixel rate for a codec in a given mode."""
        try:
            base = self.encode_pixel_rate[codec]
        except KeyError:
            raise ValueError(f"unknown codec {codec!r}") from None
        return base / MODE_COST_FACTOR[mode]

    @property
    def total_encode_rate_realtime(self) -> float:
        """Aggregate realtime encode pixels/s (H.264) across all cores."""
        return self.encoder_cores * self.encode_pixel_rate["h264"]


@dataclass(frozen=True)
class HostSpec:
    """The accelerator host machine (Appendix A, Figure 11)."""

    vcus_per_card: int = 2
    cards_per_tray: int = 5
    trays_per_host: int = 2
    #: Dual-socket Skylake host: ~100 usable logical cores.
    logical_cores: int = 100
    host_dram_bandwidth: float = 1600 * Gbps / 8  # bytes/s
    host_dram_capacity: int = 350 * GiB
    #: 100 Gbps Ethernet NIC, all control + video data.
    network_bandwidth_bits: float = 100 * Gbps
    #: Each expansion chassis attaches via PCIe Gen3 x16 (~100 Gbps).
    pcie_bandwidth_bits_per_tray: float = 100 * Gbps
    #: Throughput penalty of NUMA-oblivious scheduling; fixing it gained
    #: 16-25% (Section 4.3), i.e. the oblivious baseline runs at ~1/1.2.
    numa_penalty: float = 1.20

    @property
    def vcus_per_host(self) -> int:
        return self.vcus_per_card * self.cards_per_tray * self.trays_per_host


DEFAULT_VCU_SPEC = VcuSpec()
DEFAULT_HOST_SPEC = HostSpec()
