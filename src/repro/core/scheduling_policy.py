"""CTA scheduling policies for SM-aware scheduling (paper §4.1, §5.4.2).

A policy decides, for each SM, in what proportion successive CTAs landing on
that SM bind to prefill versus decode work.  The paper evaluates two:

* **50:50** — CTAs on an SM alternate prefill, decode, prefill, decode, …
  regardless of how much work each operation has.
* **Proportional** — CTAs bind in the ratio of the total prefill and decode
  CTA counts of the batch, spreading the rarer operation evenly across SMs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

#: The longest repeat period (prefill + decode slots) a proportional ratio keeps.
MAX_PERIOD = 4


class SchedulingPolicy(ABC):
    """Decides the per-SM prefill:decode interleaving ratio."""

    name: str = "base"

    @abstractmethod
    def ratio(self, num_prefill_ctas: int, num_decode_ctas: int) -> tuple[int, int]:
        """Return ``(prefill_ratio, decode_ratio)`` as small positive integers."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FiftyFiftyPolicy(SchedulingPolicy):
    """Alternate prefill and decode CTAs on every SM (1:1)."""

    name = "50:50"

    def ratio(self, num_prefill_ctas: int, num_decode_ctas: int) -> tuple[int, int]:
        if num_prefill_ctas == 0:
            return (0, 1)
        if num_decode_ctas == 0:
            return (1, 0)
        return (1, 1)


class ProportionalPolicy(SchedulingPolicy):
    """Bind CTAs in proportion to the batch's prefill and decode CTA counts.

    The ratio is reduced by the greatest common divisor and capped so the
    repeat period stays within :data:`MAX_PERIOD` (e.g. 50 prefill and 100
    decode CTAs → 1:2).  A small period matters: the Figure-9 ticket mapping
    runs the first ``prefill_ratio`` CTAs of each period as prefill, so a
    long period would front-load one operation and delay the other on every
    SM.
    """

    name = "proportional"

    def ratio(self, num_prefill_ctas: int, num_decode_ctas: int) -> tuple[int, int]:
        if num_prefill_ctas == 0:
            return (0, 1)
        if num_decode_ctas == 0:
            return (1, 0)
        divisor = math.gcd(num_prefill_ctas, num_decode_ctas)
        prefill_ratio = num_prefill_ctas // divisor
        decode_ratio = num_decode_ctas // divisor
        period = prefill_ratio + decode_ratio
        if period > MAX_PERIOD:
            # Rescale to a small period while preserving the proportion as
            # closely as possible (each side gets at least one slot).
            scale = MAX_PERIOD / period
            prefill_ratio = max(1, round(prefill_ratio * scale))
            decode_ratio = max(1, MAX_PERIOD - prefill_ratio)
        return (prefill_ratio, decode_ratio)


POLICIES = {
    "50:50": FiftyFiftyPolicy,
    "proportional": ProportionalPolicy,
}


def get_policy(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by name (``"50:50"`` or ``"proportional"``)."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name]()
