"""LLM architecture configurations and deployments.

Only the architectural quantities that drive performance are modelled:
layer counts, hidden sizes, attention head geometry (including grouped-query
attention), parameter counts and KV-cache bytes per token.  Weights are never
materialised — the paper's evaluation depends on the *shape* of the
computation, not its values.

The three models evaluated in the paper (Table 4) are provided as presets,
with the same GPU/tensor-parallel deployments the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.gpu.config import GPUSpec, a100_sxm_80gb
from repro.utils.validation import check_in_choices, check_non_negative, check_positive


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a decoder-only transformer LLM."""

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    num_q_heads: int
    num_kv_heads: int
    head_dim: int
    vocab_size: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        check_positive("num_layers", self.num_layers)
        check_positive("hidden_size", self.hidden_size)
        check_positive("intermediate_size", self.intermediate_size)
        check_positive("num_q_heads", self.num_q_heads)
        check_positive("num_kv_heads", self.num_kv_heads)
        check_positive("head_dim", self.head_dim)
        check_positive("vocab_size", self.vocab_size)
        if self.num_q_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"{self.name}: num_q_heads ({self.num_q_heads}) must be a multiple of "
                f"num_kv_heads ({self.num_kv_heads})"
            )

    @property
    def group_size(self) -> int:
        """Query heads per KV head (GQA group size)."""
        return self.num_q_heads // self.num_kv_heads

    @property
    def q_size(self) -> int:
        return self.num_q_heads * self.head_dim

    @property
    def kv_size(self) -> int:
        return self.num_kv_heads * self.head_dim

    @property
    def attention_params_per_layer(self) -> int:
        """Parameters in QKV and output projections of one layer."""
        qkv = self.hidden_size * (self.q_size + 2 * self.kv_size)
        out = self.q_size * self.hidden_size
        return qkv + out

    @property
    def ffn_params_per_layer(self) -> int:
        """Parameters in the (gated) feed-forward network of one layer."""
        return 3 * self.hidden_size * self.intermediate_size

    @property
    def params_per_layer(self) -> int:
        return self.attention_params_per_layer + self.ffn_params_per_layer

    @property
    def total_params(self) -> int:
        """Approximate total parameter count (layers + embeddings)."""
        embeddings = 2 * self.vocab_size * self.hidden_size
        return self.num_layers * self.params_per_layer + embeddings

    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """KV-cache bytes stored per token per layer (K and V)."""
        return 2 * self.kv_size * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes stored per token across all layers."""
        return self.kv_bytes_per_token_per_layer * self.num_layers


def yi_6b() -> ModelConfig:
    """01-ai Yi-6B-200K (4 KV heads), deployed on a single A100 in the paper."""
    return ModelConfig(
        name="Yi-6B",
        num_layers=32,
        hidden_size=4096,
        intermediate_size=11008,
        num_q_heads=32,
        num_kv_heads=4,
        head_dim=128,
        vocab_size=64000,
    )


def llama2_7b() -> ModelConfig:
    """Meta Llama-2-7B (multi-head attention: 32 KV heads)."""
    return ModelConfig(
        name="Llama-2-7B",
        num_layers=32,
        hidden_size=4096,
        intermediate_size=11008,
        num_q_heads=32,
        num_kv_heads=32,
        head_dim=128,
        vocab_size=32000,
    )


def llama3_8b() -> ModelConfig:
    """Meta Llama-3-8B (8 KV heads, larger FFN and vocabulary)."""
    return ModelConfig(
        name="Llama-3-8B",
        num_layers=32,
        hidden_size=4096,
        intermediate_size=14336,
        num_q_heads=32,
        num_kv_heads=8,
        head_dim=128,
        vocab_size=128256,
    )


MODEL_PRESETS = {
    "yi-6b": yi_6b,
    "llama-2-7b": llama2_7b,
    "llama-3-8b": llama3_8b,
}


def get_model(name: str) -> ModelConfig:
    """Look up a model preset by name (case-insensitive)."""
    key = name.lower()
    if key not in MODEL_PRESETS:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_PRESETS)}")
    return MODEL_PRESETS[key]()


@dataclass(frozen=True)
class Deployment:
    """A model served on one or more GPUs with tensor parallelism.

    All per-GPU quantities (heads, parameter shards, KV bytes) refer to a
    single tensor-parallel shard; the simulator models one representative GPU
    and accounts for TP collectives separately.
    """

    model: ModelConfig
    gpu: GPUSpec
    tensor_parallel: int = 1
    interconnect_bandwidth: float = 300e9  # bytes/s per direction (NVLink-ish)
    memory_budget_fraction: float = 0.9

    def __post_init__(self) -> None:
        check_positive("tensor_parallel", self.tensor_parallel)
        if self.model.num_q_heads % self.tensor_parallel != 0:
            raise ValueError(
                f"{self.model.name}: query heads ({self.model.num_q_heads}) not divisible by "
                f"tensor_parallel={self.tensor_parallel}"
            )
        if self.model.num_kv_heads % self.tensor_parallel != 0:
            raise ValueError(
                f"{self.model.name}: KV heads ({self.model.num_kv_heads}) not divisible by "
                f"tensor_parallel={self.tensor_parallel}"
            )

    @property
    def q_heads_per_gpu(self) -> int:
        return self.model.num_q_heads // self.tensor_parallel

    @property
    def kv_heads_per_gpu(self) -> int:
        return self.model.num_kv_heads // self.tensor_parallel

    @property
    def group_size(self) -> int:
        """Query heads per KV head on one shard (unchanged by TP for both head types)."""
        return self.q_heads_per_gpu // self.kv_heads_per_gpu

    @property
    def kv_bytes_per_token_per_layer_per_gpu(self) -> int:
        return 2 * self.kv_heads_per_gpu * self.model.head_dim * self.model.dtype_bytes

    @property
    def kv_bytes_per_token_per_gpu(self) -> int:
        return self.kv_bytes_per_token_per_layer_per_gpu * self.model.num_layers

    def kv_cache_capacity_tokens(self, gpu_memory_bytes: float = 80e9) -> int:
        """Tokens of KV cache that fit in GPU memory after weights and activations."""
        weight_bytes = self.model.total_params * self.model.dtype_bytes / self.tensor_parallel
        usable = gpu_memory_bytes * self.memory_budget_fraction - weight_bytes
        if usable <= 0:
            return 0
        return int(usable // self.kv_bytes_per_token_per_gpu)


CLUSTER_TOPOLOGIES = ("colocated", "disaggregated")


@dataclass(frozen=True)
class KVTransferModel:
    """Cost of moving one request's KV cache between replicas (pools).

    ``bandwidth`` is the sustained link rate (NVLink/IB-class defaults);
    ``latency`` is the fixed per-transfer overhead (rendezvous, layer-wise
    pipelining bubbles).  The volume moved is the full multi-layer KV
    footprint of the request's context at handoff.
    """

    bandwidth: float = 64e9  # bytes/s
    latency: float = 1e-3  # s

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("latency", self.latency)

    def transfer_time(self, deployment: Deployment, context_tokens: int) -> float:
        """Seconds to ship ``context_tokens`` worth of KV cache."""
        bytes_moved = context_tokens * deployment.model.kv_bytes_per_token
        return self.latency + bytes_moved / self.bandwidth


#: Reference hourly prices per *GPU* (USD/GPU-hour), keyed by
#: :attr:`GPUSpec.name`.  A replica's rate is the per-GPU rate times its
#: tensor-parallel degree.  The numbers are representative public-cloud
#: list/spot prices, fixed constants so that dollar accounting stays
#: deterministic; override per replica via :class:`ReplicaSpec` for real
#: quotes.
DEFAULT_HOURLY_RATES: dict[str, dict[str, float]] = {
    "A100-SXM4-80GB": {"on_demand": 4.10, "spot": 1.64},
    "H100-SXM5-80GB": {"on_demand": 8.20, "spot": 3.28},
    "RTX-A6000": {"on_demand": 1.10, "spot": 0.44},
}


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica's hardware deployment plus its serving economics.

    ``on_demand_per_hour`` / ``spot_per_hour`` are *whole-replica* rates in
    USD/hour (all tensor-parallel shards together).  Left at ``None``, the
    rate comes from :data:`DEFAULT_HOURLY_RATES` keyed by the GPU name and
    scaled by the tensor-parallel degree; a GPU with no default rate must be
    given an explicit one.  ``spot`` selects the spot rate (cheaper, used by
    the capacity planner to model preemptible capacity pricing).
    """

    deployment: Deployment
    on_demand_per_hour: float | None = None
    spot_per_hour: float | None = None
    spot: bool = False

    def __post_init__(self) -> None:
        if self.on_demand_per_hour is not None:
            check_positive("on_demand_per_hour", self.on_demand_per_hour)
        if self.spot_per_hour is not None:
            check_positive("spot_per_hour", self.spot_per_hour)

    def _default_rate(self, kind: str) -> float:
        rates = DEFAULT_HOURLY_RATES.get(self.deployment.gpu.name)
        if rates is None:
            raise ValueError(
                f"no default hourly rate for GPU {self.deployment.gpu.name!r}; "
                "pass on_demand_per_hour/spot_per_hour explicitly "
                f"(known GPUs: {sorted(DEFAULT_HOURLY_RATES)})"
            )
        return rates[kind] * self.deployment.tensor_parallel

    @property
    def cost_per_hour(self) -> float:
        """Effective USD/replica-hour under the selected pricing (spot or on-demand)."""
        if self.spot:
            if self.spot_per_hour is not None:
                return self.spot_per_hour
            return self._default_rate("spot")
        if self.on_demand_per_hour is not None:
            return self.on_demand_per_hour
        return self._default_rate("on_demand")

    @property
    def billed_per_hour(self) -> float:
        """What the replica bills per hour: :attr:`cost_per_hour`, or 0.0
        for a GPU with no known rate, which every consumer (routers, the
        autoscaler's spec choice, fleet costs) reads as unpriced."""
        try:
            return self.cost_per_hour
        except ValueError:
            return 0.0


@dataclass(frozen=True)
class ClusterSpec:
    """A fleet of replicas serving one model behind a router.

    Two equivalent construction forms:

    * **Homogeneous (legacy)** — ``ClusterSpec(deployment, num_replicas=N)``:
      pure sugar for ``N`` identical :class:`ReplicaSpec` entries at default
      pricing.  Every pre-existing call site keeps working unchanged.
    * **Heterogeneous** — ``ClusterSpec(replicas=[ReplicaSpec(...), ...])``:
      an explicit per-replica list mixing GPU generations, tensor-parallel
      degrees and spot/on-demand pricing.  ``deployment`` may be omitted; it
      is filled in automatically when all replica deployments are identical
      and stays ``None`` for genuinely mixed fleets.

    ``topology`` selects how prefill and decode work is placed:

    * ``"colocated"`` — every replica runs hybrid batches (the POD-Attention
      serving model); all replicas receive external arrivals.
    * ``"disaggregated"`` — the first ``prefill_replicas`` replicas run
      prompts only and ship the KV cache to the remaining decode replicas
      over the link modelled by ``transfer``.

    Both topologies use the same GPU count for a given fleet, which is what
    makes colocated-vs-disaggregated comparisons at equal hardware
    meaningful.
    """

    deployment: Deployment | None = None
    num_replicas: int = 0
    topology: str = "colocated"
    prefill_replicas: int = 0  # disaggregated only; 0 = auto (half the fleet, >= 1)
    transfer: KVTransferModel = field(default_factory=KVTransferModel)
    replicas: tuple[ReplicaSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.replicas:
            normalized = tuple(self.replicas)
            object.__setattr__(self, "replicas", normalized)
            if self.num_replicas not in (0, len(normalized)):
                raise ValueError(
                    f"num_replicas ({self.num_replicas}) disagrees with the explicit "
                    f"replicas list ({len(normalized)} entries); omit num_replicas or "
                    "make them match"
                )
            object.__setattr__(self, "num_replicas", len(normalized))
            first = normalized[0].deployment
            uniform = all(spec.deployment == first for spec in normalized)
            if self.deployment is None:
                if uniform:
                    object.__setattr__(self, "deployment", first)
            elif not uniform:
                raise ValueError(
                    "deployment= is ambiguous for a heterogeneous replicas list; "
                    "omit it (per-replica deployments come from the list)"
                )
            elif self.deployment != first:
                raise ValueError(
                    "deployment= disagrees with the deployments in the replicas list; "
                    "omit it or make them match"
                )
        else:
            if self.deployment is None:
                raise ValueError(
                    "ClusterSpec needs either deployment= and num_replicas= "
                    "(homogeneous) or an explicit replicas=[...] list"
                )
            check_positive("num_replicas", self.num_replicas)
        check_in_choices("topology", self.topology, CLUSTER_TOPOLOGIES)
        if self.prefill_replicas < 0:
            raise ValueError(f"prefill_replicas must be >= 0, got {self.prefill_replicas}")
        if self.topology == "disaggregated":
            if self.num_replicas < 2:
                raise ValueError("disaggregated topology needs at least 2 replicas")
            if self.prefill_replicas >= self.num_replicas:
                raise ValueError(
                    f"prefill_replicas={self.prefill_replicas} must be smaller than "
                    f"num_replicas={self.num_replicas} so at least one decode replica "
                    "remains; set prefill_replicas=0 for the auto split "
                    "(half the fleet, at least one replica in each pool)"
                )

    @property
    def resolved_replicas(self) -> tuple[ReplicaSpec, ...]:
        """The per-replica spec list; the homogeneous form expands here.

        This is the single source of truth for fleet composition: the legacy
        ``(deployment, num_replicas)`` form expands to ``num_replicas``
        identical :class:`ReplicaSpec` entries at default pricing, so every
        consumer can be written against the per-replica view.
        """
        if self.replicas:
            return self.replicas
        assert self.deployment is not None  # guaranteed by __post_init__
        return tuple(ReplicaSpec(deployment=self.deployment) for _ in range(self.num_replicas))

    def deployment_for(self, index: int) -> Deployment:
        """The deployment of replica ``index`` (0-based fleet order)."""
        return self.resolved_replicas[index].deployment

    @property
    def resolved_prefill_replicas(self) -> int:
        """Prefill-pool size (auto: half the fleet, at least one of each pool)."""
        if self.topology != "disaggregated":
            return 0
        if self.prefill_replicas > 0:
            return self.prefill_replicas
        return max(1, self.num_replicas // 2)

    @property
    def resolved_decode_replicas(self) -> int:
        if self.topology != "disaggregated":
            return 0
        return self.num_replicas - self.resolved_prefill_replicas

    @property
    def total_gpus(self) -> int:
        return sum(spec.deployment.tensor_parallel for spec in self.resolved_replicas)

    @property
    def cost_per_hour(self) -> float:
        """Whole-fleet USD/hour with every replica running."""
        return sum(spec.cost_per_hour for spec in self.resolved_replicas)


def replica_specs_from_mix(
    mix: Sequence[tuple[str, int]] | str,
    *,
    model: str = "llama-3-8b",
    spot: bool = False,
) -> tuple[ReplicaSpec, ...]:
    """Expand a compact GPU-mix description into a :class:`ReplicaSpec` tuple.

    ``mix`` is either a list of ``(gpu_preset, count)`` pairs or the string
    form the planner/CLI accept: ``"a100:2+a6000:2"`` (count defaults to 1,
    a trailing ``~`` on a term marks it spot, e.g. ``"h100+a100:2~"``).
    Each term uses the paper deployment for ``model`` on that GPU.
    """
    from repro.gpu.config import get_gpu

    terms: list[tuple[str, int, bool]] = []
    if isinstance(mix, str):
        for raw_term in mix.split("+"):
            term = raw_term.strip()
            if not term:
                raise ValueError(f"empty term in replica mix {mix!r}")
            term_spot = spot
            if term.endswith("~"):
                term_spot = True
                term = term[:-1]
            name, _, count_text = term.partition(":")
            count = int(count_text) if count_text else 1
            terms.append((name, count, term_spot))
    else:
        terms = [(name, count, spot) for name, count in mix]
    specs: list[ReplicaSpec] = []
    for name, count, term_spot in terms:
        check_positive("count", count)
        deployment = paper_deployment(model, gpu=get_gpu(name))
        specs.extend(ReplicaSpec(deployment=deployment, spot=term_spot) for _ in range(count))
    if not specs:
        raise ValueError(f"replica mix {mix!r} expands to an empty fleet")
    return tuple(specs)


def paper_deployment(model_name: str, gpu: GPUSpec | None = None) -> Deployment:
    """The deployment used in the paper for each model (Table 4).

    Yi-6B runs on one A100; Llama-2-7B and Llama-3-8B run on two A100s with
    tensor parallelism.
    """
    gpu = gpu or a100_sxm_80gb()
    model = get_model(model_name)
    tensor_parallel = 1 if model.name == "Yi-6B" else 2
    return Deployment(model=model, gpu=gpu, tensor_parallel=tensor_parallel)
