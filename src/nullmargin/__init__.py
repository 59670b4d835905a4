"""Semi-supervised cross-view metric learning.

Learns a discriminative space that collapses each class to a point (null
projecting directions) and separates the points with a kernel maximum margin
criterion, then grows the labeled set by mining mutual cross-view neighbor
pairs from unlabeled data and refitting recursively. Evaluation is CMC rank
accuracy under a probe/gallery protocol.
"""

__version__ = "0.1.0"

from .dataio import (
    ExperimentSplit,
    FeatureTable,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_feature_table,
    make_split,
    save_feature_table,
)
from .evaluation import (
    CmcCurve,
    ProtocolResult,
    SpanModel,
    cmc,
    rank_gallery,
    run_protocol,
    run_protocols,
)
from .kmmc import (
    KernelDiscriminantModel,
    KernelSpec,
    fit_nkmmc,
    gram,
    project_kernel,
)
from .mining import (
    Anchor,
    AnchorContext,
    PseudoClass,
    build_anchor_context,
    find_anchor,
    k_reciprocal,
    mine_pseudo_classes,
)
from .nfst import NullProjector, NullSpaceState, fit_nfst, project_null
from .nk3ml import (
    Nk3mlModel,
    embed,
    fit_nk3ml,
    load_model,
    model_checksum,
    save_model,
)
from .selftrain import LoopConfig, LoopTrace, run_self_training

__all__ = [
    "Anchor",
    "AnchorContext",
    "CmcCurve",
    "ExperimentSplit",
    "FeatureTable",
    "KernelDiscriminantModel",
    "KernelSpec",
    "LoopConfig",
    "LoopTrace",
    "Nk3mlModel",
    "NullProjector",
    "NullSpaceState",
    "ProtocolResult",
    "PseudoClass",
    "SpanModel",
    "SplitSpec",
    "SyntheticSpec",
    "build_anchor_context",
    "cmc",
    "embed",
    "find_anchor",
    "fit_nfst",
    "fit_nk3ml",
    "fit_nkmmc",
    "generate_synthetic",
    "gram",
    "k_reciprocal",
    "load_feature_table",
    "load_model",
    "make_split",
    "mine_pseudo_classes",
    "model_checksum",
    "project_kernel",
    "project_null",
    "rank_gallery",
    "run_protocol",
    "run_protocols",
    "run_self_training",
    "save_feature_table",
    "save_model",
]
