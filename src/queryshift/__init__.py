"""Test-time adaptation engine for embedding-based retrieval under query shift."""

from .adapt import (
    AdaptationSession,
    AdapterParams,
    DecoupledGradient,
    GeneralDirection,
    SessionConfig,
    decouple,
    forward_adapter,
    kl_general,
    sgd_step,
)
from .gallery import CentroidSet, Gallery, NeighborList, build_centroids, knn
from .losses import (
    ConsistencyPair,
    ForwardState,
    LossBreakdown,
    ParamGradient,
    consistency_pair,
    finite_diff_grad,
    forward_state,
    gradient_check,
    loss_em,
    loss_gap,
    loss_rem,
    loss_rhm,
    loss_uniformity,
    total_loss_and_grad,
)
from .refine import (
    CandidateSet,
    ConstraintEstimates,
    QueueEntry,
    RefinedPrediction,
    SourceLikeQueue,
    build_candidate_set,
    build_candidate_sets,
    estimate_constraints,
    refined_prediction,
    source_likeness,
    update_queue,
)
from .synth import (
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    apply_corruption,
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
