"""LLM model substrate: architectures, deployments and linear-operator costs."""

from repro.models.config import (
    CLUSTER_TOPOLOGIES,
    ClusterSpec,
    Deployment,
    KVTransferModel,
    MODEL_PRESETS,
    ModelConfig,
    get_model,
    llama2_7b,
    llama3_8b,
    paper_deployment,
    yi_6b,
)
from repro.models.linear_ops import LinearBreakdown, LinearOpCostModel
from repro.models.transformer import (
    IterationBreakdown,
    IterationCostModel,
    OPERATION_ORDER,
)

__all__ = [
    "CLUSTER_TOPOLOGIES",
    "ClusterSpec",
    "Deployment",
    "KVTransferModel",
    "MODEL_PRESETS",
    "ModelConfig",
    "get_model",
    "llama2_7b",
    "llama3_8b",
    "paper_deployment",
    "yi_6b",
    "LinearBreakdown",
    "LinearOpCostModel",
    "IterationBreakdown",
    "IterationCostModel",
    "OPERATION_ORDER",
]
