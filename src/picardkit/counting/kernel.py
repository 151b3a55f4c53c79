"""Kernel backend selection: compiled extension if importable, else pure.

Set PICARDKIT_PURE=1 to force the pure-Python kernel.  Both backends share
the same function contracts and produce identical counts.
"""

import os
from functools import cache

_impl = None
if not os.environ.get("PICARDKIT_PURE"):
    try:
        from . import _ckernel as _impl
    except ImportError:
        pass
if _impl is None:
    from . import kernel_py as _impl
BACKEND = _impl.BACKEND


def backend_module():
    return _impl


@cache
def field_tables(field):
    """exp/log/Zech tables for a FieldDesc, cached per process."""
    return _impl.build_tables(field.p, field.e, field.modulus)


@cache
def trace_mask(field):
    """Bitmask m with absolute trace(x) = parity(popcount(index(x) & m)).

    Only meaningful in characteristic 2, where digit vectors are bit vectors
    and the trace is F_2-linear; returns 0 for odd characteristic.
    """
    if field.p != 2:
        return 0
    e = field.e
    beta = field.gen() if e > 1 else field.one()
    mask = 0
    power = field.one()
    for i in range(e):
        acc = field.zero()
        frob = power
        for _ in range(e):
            acc = acc + frob
            frob = frob * frob
        assert not any(acc.coeffs[1:])
        if acc.coeffs[0]:
            mask |= 1 << i
        power = power * beta
    return mask
