"""Kernel backend selection: compiled extension if importable, else pure.

Set PICARDKIT_PURE=1 to force the pure-Python kernel.  Both backends share
the same function contracts and produce identical counts.
"""

import os

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


_TABLE_CACHE = {}


def field_tables(field):
    """exp/log/Zech tables for a FieldDesc, cached per process."""
    key = (field.p, field.e, field.modulus)
    hit = _TABLE_CACHE.get(key)
    if hit is None:
        hit = _impl.build_tables(field.p, field.e, field.modulus)
        _TABLE_CACHE[key] = hit
    return hit


_TRACE_CACHE = {}


def trace_mask(field):
    """Bitmask m with absolute trace(x) = parity(popcount(index(x) & m)).

    Only meaningful in characteristic 2, where digit vectors are bit vectors
    and the trace is F_2-linear; returns 0 for odd characteristic.
    """
    if field.p != 2:
        return 0
    key = (field.p, field.e, field.modulus)
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        return hit
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
    _TRACE_CACHE[key] = mask
    return mask
