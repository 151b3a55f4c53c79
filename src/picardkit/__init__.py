"""picardkit: exact zeta functions over finite fields and cycle-rank bounds."""

__version__ = "0.1.0"

DEFAULT_BUDGET = 2**34  # work units of a count, a reconstruction or a dovetail run
