"""Per-iteration runtime composition for hybrid batches.

An iteration of hybrid-batching inference executes, per layer: the QKV
projection over all tokens, prefill attention, decode attention, the output
projection, the FFN, and element-wise/collective "others" (Figure 3 of the
paper).  This module composes linear-operator costs (``repro.models.linear_ops``)
with attention costs supplied by the caller (``repro.attention`` /
``repro.core``) into the per-iteration breakdown the paper reports in
Figure 4.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.models.config import Deployment
from repro.models.linear_ops import LinearBreakdown, LinearOpCostModel
from repro.utils.validation import check_non_negative

#: Per-iteration CPU-side overhead (scheduling, sampling, python glue), seconds.
SCHEDULER_OVERHEAD = 1.5e-3

# Order in which the paper reports the Figure 4 breakdown.
OPERATION_ORDER = (
    "pre_projection",
    "prefill_attention",
    "decode_attention",
    "post_projection",
    "ffn",
    "others",
)


class IterationBreakdown(NamedTuple):
    """Wall-clock contribution of each operation to one iteration (seconds).

    All values cover the whole iteration (i.e. they are per-layer costs
    multiplied by the layer count, plus any per-iteration overhead folded into
    ``others``).  The fields are declared in :data:`OPERATION_ORDER`.
    """

    pre_projection: float
    prefill_attention: float
    decode_attention: float
    post_projection: float
    ffn: float
    others: float

    @property
    def total(self) -> float:
        # The fields are declared in OPERATION_ORDER, so this sums them in that order.
        return sum(self)

    def fractions(self) -> dict[str, float]:
        """Fraction of iteration time spent in each operation (Figure 4 rows)."""
        total = self.total
        if total <= 0:
            return {op: 0.0 for op in OPERATION_ORDER}
        return {op: getattr(self, op) / total for op in OPERATION_ORDER}

    def as_dict(self) -> dict[str, float]:
        return {op: getattr(self, op) for op in OPERATION_ORDER}


class IterationCostModel:
    """Builds :class:`IterationBreakdown` objects for a deployment.

    Attention times are supplied by the caller because the whole point of the
    paper is that they depend on *which attention kernel strategy* is used;
    this class only owns the linear-operator side and the composition rules.
    """

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self.linear_model = LinearOpCostModel(deployment)
        # Token count -> whole-iteration (pre-projection, post-projection, FFN,
        # others) times: the linear operators depend on nothing else.
        self._linear_memo: dict[int, tuple[float, float, float, float]] = {}

    def linear_breakdown(self, num_tokens: int) -> LinearBreakdown:
        """Per-layer linear-operator breakdown for ``num_tokens`` batched tokens."""
        return self.linear_model.layer_breakdown(num_tokens)

    def iteration_breakdown(
        self,
        num_tokens: int,
        prefill_attention_per_layer: float,
        decode_attention_per_layer: float,
    ) -> IterationBreakdown:
        """Compose a full-iteration breakdown.

        Args:
            num_tokens: Total tokens in the hybrid batch (prefill chunk + decodes).
            prefill_attention_per_layer: Prefill attention time for one layer, seconds.
            decode_attention_per_layer: Decode attention time for one layer, seconds.
        """
        check_non_negative("prefill_attention_per_layer", prefill_attention_per_layer)
        check_non_negative("decode_attention_per_layer", decode_attention_per_layer)
        layers = self.deployment.model.num_layers
        linear = self._linear_memo.get(num_tokens)
        if linear is None:
            per_layer = self.linear_breakdown(num_tokens)
            linear = self._linear_memo[num_tokens] = (
                per_layer.pre_attention * layers,
                per_layer.post_attention * layers,
                per_layer.ffn * layers,
                per_layer.others * layers + SCHEDULER_OVERHEAD,
            )
        pre_projection, post_projection, ffn, others = linear
        return IterationBreakdown(
            pre_projection,
            prefill_attention_per_layer * layers,
            decode_attention_per_layer * layers,
            post_projection,
            ffn,
            others,
        )
