"""Target accelerator configuration (paper Table 4).

A V100-class device: 15.67 TFLOP/s fp32, 6 MB on-chip cache (L2),
898 GB/s HBM bandwidth, 32 GB capacity, 56 GB/s inter-device links.
Achievable fractions (80% of peak compute, 70% of peak bandwidth)
follow §5.2's assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["AcceleratorConfig", "V100_LIKE", "USABLE_FRACTION"]

#: fraction of device memory a framework lets tensors occupy before it
#: swaps them to host RAM (TF's allocator: "80% of 12GB", Fig. 10)
USABLE_FRACTION = 0.8


@dataclass(frozen=True)
class AcceleratorConfig:
    """Analytical accelerator model used by all projections."""

    name: str = "V100-like"
    #: peak fp32 compute throughput, FLOP/s (Table 4: 15.67 TFLOP/s)
    peak_flops: float = 15.67e12
    #: peak off-chip memory bandwidth, B/s (Table 4: 898 GB/s)
    peak_bandwidth: float = 898e9
    #: on-chip cache capacity, bytes (Table 4: 6 MB)
    cache_bytes: int = 6 * 1024 * 1024
    #: off-chip memory capacity, bytes (Table 4: 32 GB)
    memory_bytes: int = 32 * 10**9
    #: inter-device link bandwidth, B/s (Table 4: 56 GB/s)
    interconnect_bandwidth: float = 56e9
    #: achievable fraction of peak compute (§5.2: 80%)
    compute_efficiency: float = 0.80
    #: achievable fraction of peak bandwidth (§5.2: 70%)
    bandwidth_efficiency: float = 0.70

    @property
    def achievable_flops(self) -> float:
        return self.peak_flops * self.compute_efficiency

    @property
    def achievable_bandwidth(self) -> float:
        return self.peak_bandwidth * self.bandwidth_efficiency

    @property
    def ridge_point(self) -> float:
        """Peak-to-peak compute intensity inflection, FLOP/B (17.4)."""
        return self.peak_flops / self.peak_bandwidth

    @property
    def effective_ridge_point(self) -> float:
        """Achievable-throughput ridge point, FLOP/B (19.9)."""
        return self.achievable_flops / self.achievable_bandwidth

    def scaled(self, **overrides) -> "AcceleratorConfig":
        """A modified copy (e.g. larger cache or memory for ablations)."""
        return replace(self, **overrides)


#: The paper's Table 4 configuration.
V100_LIKE = AcceleratorConfig()
