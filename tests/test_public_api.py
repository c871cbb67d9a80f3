"""The names `import lpembed` exports: exactly the listed ones, all resolvable."""

import lpembed

PUBLIC_NAMES = [
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
    "SphereMapFamily",
    "build_sphere_map",
    "measure_conditions",
    "calibrate_level",
    "build_level_family",
    "verify_family",
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
    "profile_from_json",
    "__version__",
]

# the scalar l_p path; the array kernels in lp_core and mazur_map_rows replace it
REMOVED_NAMES = [
    "LpVector",
    "BlockVector",
    "norm_p",
    "distance_p",
    "normalize",
    "block_norm_p",
    "block_distance_p",
    "mazur_map",
]


def test_public_names_pinned():
    assert lpembed.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(lpembed, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(lpembed, name), name
