"""Cooperative Thread Array (CTA) work descriptions.

A :class:`CTAWork` is the unit of work handed to the execution engine.  It
abstracts a CTA down to the two quantities that drive the prefill/decode
overlap argument — how many FLOPs it must execute and how many bytes it must
move from DRAM — plus a fixed latency component (scheduling and epilogue
overheads) and optional per-CTA resource caps.

Kernel cost models (``repro.attention``, ``repro.fusion``) are responsible for
translating tile shapes into these quantities; the engine only consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.utils.validation import check_fraction, check_non_negative

PREFILL_TAG = "prefill"
DECODE_TAG = "decode"


@dataclass(frozen=True)
class CTAWork:
    """Work performed by one CTA.

    Attributes:
        flops: Floating point operations executed on the SM's dominant compute
            pipe (tensor cores for attention kernels).  Cost models fold any
            pipeline inefficiency into this number, i.e. it is "effective"
            FLOPs at the spec's peak rate.
        dram_bytes: Bytes moved between DRAM and the SM (after accounting for
            expected L2 reuse).
        tag: Logical operation label (e.g. ``"prefill"`` / ``"decode"``),
            used for co-location accounting and runtime binding.
        fixed_time: Latency component that neither compute nor bandwidth can
            hide (CTA launch/epilogue, barrier costs).
        max_compute_fraction: Largest fraction of a single SM's compute
            throughput this CTA can use (e.g. a one-warp virtual CTA cannot
            drive every tensor core).
        max_mem_fraction: Largest fraction of the per-SM DRAM bandwidth cap
            this CTA can draw.
        meta: Free-form annotations for debugging and tests.
    """

    flops: float
    dram_bytes: float
    tag: str = ""
    fixed_time: float = 0.0
    max_compute_fraction: float = 1.0
    max_mem_fraction: float = 1.0
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_non_negative("flops", self.flops)
        check_non_negative("dram_bytes", self.dram_bytes)
        check_non_negative("fixed_time", self.fixed_time)
        check_fraction("max_compute_fraction", self.max_compute_fraction)
        check_fraction("max_mem_fraction", self.max_mem_fraction)
        if self.max_compute_fraction == 0.0 and self.flops > 0:
            raise ValueError("CTA has compute work but max_compute_fraction is 0")
        if self.max_mem_fraction == 0.0 and self.dram_bytes > 0:
            raise ValueError("CTA has memory work but max_mem_fraction is 0")

    @property
    def is_empty(self) -> bool:
        """True when the CTA performs no work at all."""
        return self.flops == 0 and self.dram_bytes == 0 and self.fixed_time == 0

    def scaled(self, factor: float) -> "CTAWork":
        """Return a copy with flops/bytes/fixed_time scaled by ``factor``."""
        check_non_negative("factor", factor)
        return replace(
            self,
            flops=self.flops * factor,
            dram_bytes=self.dram_bytes * factor,
            fixed_time=self.fixed_time * factor,
        )

    def merged_with(self, other: "CTAWork", tag: str | None = None) -> "CTAWork":
        """Combine two CTAs into one fused CTA (used by warp-parallel fusion).

        The fused CTA carries the sum of both work amounts and holds a single
        residency slot until *both* halves finish — which is exactly the
        straggler behaviour the paper attributes to HFuse-style fusion.
        """
        return CTAWork(
            flops=self.flops + other.flops,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            tag=tag if tag is not None else f"{self.tag}+{other.tag}",
            fixed_time=max(self.fixed_time, other.fixed_time),
            max_compute_fraction=max(self.max_compute_fraction, other.max_compute_fraction),
            max_mem_fraction=max(self.max_mem_fraction, other.max_mem_fraction),
            meta={"fused_from": (dict(self.meta), dict(other.meta))},
        )
