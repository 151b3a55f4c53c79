"""Multivariate polynomial algebra: Groebner bases, Hilbert series,
dimension and degree, smoothness, and proper intersection numbers."""

from .geometry import (
    ImproperIntersectionError,
    dimension_degree,
    proper_intersection_number,
    smoothness_check,
)
from .groebner import HomIdeal, groebner, ideal_sum, normal_form, s_polynomial
from .multipoly import MultiPoly, PolyError, order_key, poly_from_str, poly_to_str

__all__ = [
    "HomIdeal",
    "ImproperIntersectionError",
    "MultiPoly",
    "PolyError",
    "dimension_degree",
    "groebner",
    "ideal_sum",
    "normal_form",
    "order_key",
    "poly_from_str",
    "poly_to_str",
    "proper_intersection_number",
    "s_polynomial",
    "smoothness_check",
]
