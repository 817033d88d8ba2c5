"""Estimation of the hyperuniformity exponent from a single point pattern.

Multi-taper truncated wavelet transforms at a ladder of scales turn the
low-frequency decay of the structure factor into the slope of a line; the
package provides the estimator, asymptotic confidence intervals, scale
calibration, and benchmark simulators.
"""

__version__ = "0.1.0"

from .covariance import (CovBlockMatrix, sigma_asymptotic, sigma_entry_d2,
                         sigma_transient)
from .errors import (DegenerateScales, DomainError, EmptyInput, EmptyPattern,
                     HyperalphaError, NoConvergence, NotPsd, Overflow,
                     Unmatchable, WindowTooSmall, ZeroTransformSum)
from .estimator import (DIAGNOSTIC_GRID, EstimateReport, ScalePlan,
                        calibrate_jmax, calibrate_jmax_poisson,
                        default_scale_plan, estimate_alpha,
                        least_squares_weights, pooled_estimate, select_jmin)
from .geometry import (NormalizationRecord, PointPattern, Window,
                       estimate_intensity, normalize_intensity)
from .inference import (ConfidenceInterval, ZSample, confidence_interval,
                        pivot_quantiles, quantile, sample_Z)
from .numerics import (PsdFactor, angular_moment, hermite_coeffs, make_rng,
                       psd_factor, quad_radial, trigamma)
from .simulate import (cloaked_lattice, matched_process, one_sided_stable,
                       poisson, rsa)
from .tapers import (TaperSet, build_taper_set, hermite_function_values,
                     numerical_support, taper_eval)
from .transforms import (CurveC, TransformGrid, curve_C, transform_grid,
                         wavelet_transform)

__all__ = [
    "__version__",
    "CovBlockMatrix", "sigma_asymptotic", "sigma_entry_d2", "sigma_transient",
    "DegenerateScales", "DomainError", "EmptyInput", "EmptyPattern",
    "HyperalphaError", "NoConvergence", "NotPsd", "Overflow", "Unmatchable",
    "WindowTooSmall", "ZeroTransformSum",
    "DIAGNOSTIC_GRID", "EstimateReport", "ScalePlan", "calibrate_jmax",
    "calibrate_jmax_poisson", "default_scale_plan", "estimate_alpha",
    "least_squares_weights", "pooled_estimate", "select_jmin",
    "NormalizationRecord", "PointPattern", "Window", "estimate_intensity",
    "normalize_intensity",
    "ConfidenceInterval", "ZSample", "confidence_interval", "pivot_quantiles",
    "quantile", "sample_Z",
    "PsdFactor", "angular_moment", "hermite_coeffs", "make_rng",
    "psd_factor", "quad_radial", "trigamma",
    "cloaked_lattice", "matched_process", "one_sided_stable", "poisson", "rsa",
    "TaperSet", "build_taper_set", "hermite_function_values",
    "numerical_support", "taper_eval",
    "CurveC", "TransformGrid", "curve_C", "transform_grid",
    "wavelet_transform",
]
