"""The names lpembed and its modules export: exactly the listed ones, all resolvable.

A name is exported when the README, the CLI or the acceptance suite uses it,
or when it is the type of a value that an exported name takes, returns or
raises. Other module attributes are internal.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

MODULE_NAMES = {
    "lp_core": ["PExponent", "abs_power", "row_pnorms", "pairwise_pnorm_all"],
    "mazur": [
        "MAX_SAMPLE_DIM",
        "mazur_map_rows",
        "MazurBounds",
        "mazur_bounds",
        "RatioSample",
        "sample_ratio_extremes",
    ],
    "metric_spaces": [
        "MAX_POINTS",
        "MAX_GAUSSIAN_DIM",
        "GENERATOR_KINDS",
        "FiniteMetricSpace",
        "MetricViolation",
        "ValidationReport",
        "generate",
        "validate",
        "space_to_json",
        "save_space",
        "load_space",
        "load_space_lenient",
    ],
    "kernel_sphere_maps": [
        "NotNegativeType",
        "CalibrationError",
        "SphereMapLevel",
        "measure_conditions",
    ],
    "coarse_embedder": [
        "MAX_LEVELS",
        "CoarseEmbedding",
        "build_embedding",
        "evaluate",
        "theoretical_bounds",
        "tail_bound",
        "pairwise_image_power_sums",
        "pairwise_image_distances",
        "embedding_to_json",
        "save_embedding",
        "load_embedding",
    ],
    "distortion_report": [
        "MAX_BUCKETS",
        "DistortionBucket",
        "BoundViolation",
        "DistortionProfile",
        "empirical_profile",
        "verify_bounds",
        "export",
    ],
}

# the scalar l_p path, which the array kernels in lp_core and mazur_map_rows
# replace; the second verifier, now the test oracle conftest.verify_levels;
# the inverses of export and of the space JSON, which only tests called; the
# kernel chosen from a space's meta label, now chosen from its distances; the
# kernel names, now its exponent beta outside the embedding file; and the
# level family, now the embedding record's schedule
REMOVED_NAMES = [
    "LpVector",
    "BlockVector",
    "norm_p",
    "distance_p",
    "normalize",
    "block_norm_p",
    "block_distance_p",
    "mazur_map",
    "verify_family",
    "profile_from_json",
    "space_from_json",
    "default_kernel_kind",
    "KERNEL_KINDS",
    "_check_kernel_kind",
    "SphereMapFamily",
]


def test_public_names_pinned():
    assert lpembed.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(lpembed, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(lpembed, name), name


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_module_names_pinned(module):
    mod = importlib.import_module(f"lpembed.{module}")
    assert mod.__all__ == MODULE_NAMES[module]
    for name in MODULE_NAMES[module]:
        assert getattr(mod, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(mod, name), name


def test_readme_names_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    missing = [name for name in PUBLIC_NAMES if name != "__version__" and f"{name}`" not in readme]
    assert not missing


def test_benchmark_targets_resolve():
    # bench/tracing.py wraps each (module, attribute) of TARGETS by name, so a
    # rename under src/ would otherwise show only in a benchmark run; the
    # module is loaded by path and its wrappers are not installed
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
    assert tracing.wrapped_targets() == []
