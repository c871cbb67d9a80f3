"""Coarse embeddings of finite metric spaces into lp sequence spaces.

The pipeline: factor a negative-type kernel on the space into unit vectors of
l_2, carry them to S(l_p) with the Mazur map, calibrate one sphere map per
level n (image distances <= 2^-n within radius n, >= delta/2 beyond a
threshold S_n), and stack the base-point-offset levels into a block embedding
whose compression/expansion envelopes are certified pair by pair.
"""

from .lp_core import PExponent
from .mazur import (
    MazurBounds,
    RatioSample,
    mazur_bounds,
    sample_ratio_extremes,
)
from .metric_spaces import (
    FiniteMetricSpace,
    MetricViolation,
    ValidationReport,
    generate,
    load_space,
    save_space,
    validate,
)
from .kernel_sphere_maps import (
    CalibrationError,
    NotNegativeType,
    SphereMapLevel,
    measure_conditions,
)
from .coarse_embedder import (
    CoarseEmbedding,
    build_embedding,
    evaluate,
    load_embedding,
    save_embedding,
    tail_bound,
    theoretical_bounds,
)
from .distortion_report import (
    BoundViolation,
    DistortionProfile,
    empirical_profile,
    export,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "PExponent",
    "MazurBounds",
    "RatioSample",
    "mazur_bounds",
    "sample_ratio_extremes",
    "FiniteMetricSpace",
    "MetricViolation",
    "ValidationReport",
    "generate",
    "validate",
    "save_space",
    "load_space",
    "NotNegativeType",
    "CalibrationError",
    "SphereMapLevel",
    "measure_conditions",
    "CoarseEmbedding",
    "build_embedding",
    "evaluate",
    "theoretical_bounds",
    "tail_bound",
    "save_embedding",
    "load_embedding",
    "BoundViolation",
    "DistortionProfile",
    "empirical_profile",
    "verify_bounds",
    "export",
    "__version__",
]
