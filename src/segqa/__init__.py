"""Label QA toolkit for multi-organ volumetric segmentation.

Detects probable label errors in model predictions by combining cross-model
inconsistency, per-organ uncertainty and inter-organ overlap into attention
maps, then drives a prioritized human-in-the-loop annotation campaign with
component-wise quality metrics.
"""

from .campaign import (
    CampaignState,
    CaseEntry,
    LoopPolicy,
    WorkloadEstimate,
    estimate_workload,
    mark_case,
    rank_cases,
    run_loop,
    select_for_revision,
    simulate_revision,
    stopping_check,
)
from .detect import (
    AttentionMap,
    DetectionConfig,
    binary_entropy,
    build_attention,
)
from .ensemble import ensemble_label
from .nifti import NiftiFormatError, read_volume, write_volume
from .regions import (
    ConfusionCounts,
    componentwise_metrics,
    connected_components,
    dsc,
    dsc_matrix,
    false_positive_scan,
    organ_error,
)
from .volume import (
    AlignmentError,
    LabelVolume,
    PredictionSet,
    SoftPrediction,
    VolumeGrid,
    labels_from_soft,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AttentionMap",
    "CampaignState",
    "CaseEntry",
    "ConfusionCounts",
    "DetectionConfig",
    "LabelVolume",
    "LoopPolicy",
    "NiftiFormatError",
    "PredictionSet",
    "SoftPrediction",
    "VolumeGrid",
    "WorkloadEstimate",
    "binary_entropy",
    "build_attention",
    "componentwise_metrics",
    "connected_components",
    "dsc",
    "dsc_matrix",
    "ensemble_label",
    "estimate_workload",
    "false_positive_scan",
    "labels_from_soft",
    "mark_case",
    "organ_error",
    "rank_cases",
    "read_volume",
    "run_loop",
    "select_for_revision",
    "simulate_revision",
    "stopping_check",
    "write_volume",
]
