"""Multivariate polynomial algebra: Groebner bases, Hilbert polynomials,
dimension and degree, smoothness, and proper intersection numbers."""

from .geometry import (
    HilbertPoly,
    ImproperIntersectionError,
    dimension_degree,
    hilbert_data,
    hilbert_polynomial,
    hilbert_series_data,
    proper_intersection_number,
    smoothness_check,
)
from .groebner import HomIdeal, groebner, ideal_sum, normal_form, order_key, s_polynomial
from .multipoly import MultiPoly, PolyError, poly_from_str, poly_to_str

__all__ = [
    "HilbertPoly",
    "HomIdeal",
    "ImproperIntersectionError",
    "MultiPoly",
    "PolyError",
    "dimension_degree",
    "hilbert_data",
    "groebner",
    "hilbert_polynomial",
    "hilbert_series_data",
    "ideal_sum",
    "normal_form",
    "order_key",
    "poly_from_str",
    "poly_to_str",
    "proper_intersection_number",
    "s_polynomial",
    "smoothness_check",
]
