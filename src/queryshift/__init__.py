"""Test-time adaptation engine for embedding-based retrieval under query shift."""

from .adapt import (
    AdaptationSession,
    AdapterParams,
    DecoupledGradient,
    SessionConfig,
    decouple,
    forward_adapter,
    kl_general,
    sgd_step,
)
from .gallery import CentroidSet, Gallery, build_centroids, knn_table
from .losses import (
    ForwardState,
    LossBreakdown,
    finite_diff_grad,
    forward_state,
    gradient_check,
    total_loss_and_grad,
)
from .refine import (
    CandidateBatch,
    CandidateSet,
    ConstraintEstimates,
    SourceLikeQueue,
    build_candidate_sets,
    estimate_constraints,
    source_likeness,
    update_queue,
)
from .synth import (
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    corrupt_stream,
    generate_benchmark,
    metric_consistency,
    metric_gap,
    metric_uniformity,
    offset_queries,
    recall_at_k,
    scale_queries,
)
from .vectors import shannon_entropy, softmax_temp

__version__ = "0.1.0"
