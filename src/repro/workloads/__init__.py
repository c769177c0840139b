"""Workload scenario engine: arrival processes × request shapes × tenants.

Turns the paper's two fixed traces into a composable scenario system:

* :mod:`repro.workloads.arrivals` — Poisson, gamma-burst, diurnal, step/ramp
  surge and deterministic replay arrival processes;
* :mod:`repro.workloads.shapes` — request-shape models (the two paper traces
  plus long-context summarization, short chat, RAG and code completion);
* :mod:`repro.workloads.tenants` — multi-tenant composition with per-tenant
  SLO classes;
* :mod:`repro.workloads.trace_io` — Azure-LLM-style CSV trace loader/saver;
* :mod:`repro.workloads.scenario` — the ``SCENARIOS`` registry consumed by
  the simulators, sweep runners and the Figure 17 benchmark.

This package is the one source of traces: the paper's two online traces are
the ``enterprise-internal`` and ``arxiv-summarization`` scenarios (shapes
drawn from ``seed``, Poisson arrivals from ``seed + 1``), and their seeded
traces are pinned by the golden-regression tests.
"""

from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    DiurnalArrivals,
    GammaBurstArrivals,
    PoissonArrivals,
    ReplayArrivals,
    StepSurgeArrivals,
    get_arrival_process,
)
from repro.workloads.scenario import (
    SCENARIOS,
    Scenario,
    build_scenario,
    get_scenario,
    scenario_table,
)
from repro.workloads.shapes import (
    SHAPES,
    ArxivShape,
    CodeCompletionShape,
    InternalShape,
    LongSummarizationShape,
    RAGShape,
    RagCorpusShape,
    ShapeModel,
    SharedPrefixChatShape,
    ShortChatShape,
    WorkloadStats,
    describe_workload,
    get_shape,
    pd_ratio_workload,
    uniform_workload,
)
from repro.workloads.tenants import (
    SLO_CLASSES,
    SLOClass,
    TenantSpec,
    compose_tenants,
    get_slo_class,
    slo_targets,
)
from repro.workloads.trace_io import TRACE_COLUMNS, load_trace, save_trace

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "DiurnalArrivals",
    "GammaBurstArrivals",
    "PoissonArrivals",
    "ReplayArrivals",
    "StepSurgeArrivals",
    "get_arrival_process",
    "SCENARIOS",
    "Scenario",
    "build_scenario",
    "get_scenario",
    "scenario_table",
    "SHAPES",
    "ArxivShape",
    "CodeCompletionShape",
    "InternalShape",
    "LongSummarizationShape",
    "RAGShape",
    "RagCorpusShape",
    "ShapeModel",
    "SharedPrefixChatShape",
    "ShortChatShape",
    "WorkloadStats",
    "describe_workload",
    "get_shape",
    "pd_ratio_workload",
    "uniform_workload",
    "SLO_CLASSES",
    "SLOClass",
    "TenantSpec",
    "compose_tenants",
    "get_slo_class",
    "slo_targets",
    "TRACE_COLUMNS",
    "load_trace",
    "save_trace",
]
