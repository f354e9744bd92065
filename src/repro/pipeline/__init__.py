"""repro.pipeline — the concurrent collection runtime (§8, Table 1).

Turns the analytic daemon capacity model of :mod:`repro.bgp.daemon`
into an executable system: sharded peer ingestion through bounded
queues, a worker pool running validate → forward → filter, a
watermark-ordered batching archive writer, explicit drop accounting,
backpressure, graceful drain, and live metrics — plus a deterministic
chaos harness (:mod:`repro.pipeline.faults`) and the supervision layer
that survives it: session restart with backoff, flap quarantine, a
shard watchdog, and crash-consistent archive recovery.
"""

from .faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedIOError,
    SessionFault,
    SupervisorConfig,
)
from .metrics import (
    LatencyHistogram,
    PipelineMetrics,
    PipelineMetricsSnapshot,
    SessionSnapshot,
    StageSnapshot,
    SupervisionSnapshot,
    render_metrics,
)
from .queues import BoundedQueue, QueueClosed, QueueEmpty, QueueFull
from .runtime import CollectionPipeline, PipelineConfig, PipelineResult
from .stages import (
    PeerSession,
    ServiceCostModel,
    ShardWorker,
    WriterStage,
)

__all__ = [
    "BoundedQueue",
    "CollectionPipeline",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedIOError",
    "LatencyHistogram",
    "PeerSession",
    "PipelineConfig",
    "PipelineMetrics",
    "PipelineMetricsSnapshot",
    "PipelineResult",
    "QueueClosed",
    "QueueEmpty",
    "QueueFull",
    "ServiceCostModel",
    "SessionFault",
    "SessionSnapshot",
    "ShardWorker",
    "StageSnapshot",
    "SupervisionSnapshot",
    "SupervisorConfig",
    "WriterStage",
    "render_metrics",
]
