"""Kernel backend selection: compiled extension if importable, else pure.

Set PICARDKIT_PURE=1 to force the pure-Python kernel.  Both backends share
the same function contracts and produce identical counts.

A level F_Q of the counting tower exists only as its exp/log/Zech tables,
the powers of x on the primitive modulus of `ffield.level_field`: its
elements are table indices, which base-field coefficients reach through
`embedding`.
"""

import os

from ..ffield import level_field

_impl = None
if not os.environ.get("PICARDKIT_PURE"):
    try:
        from . import _ckernel as _impl
    except ImportError:
        pass
if _impl is None:
    from . import kernel_py as _impl
BACKEND = _impl.BACKEND
# a chart term record holds exponents below this bound: _ckernel.c's MAX_DEG
MAX_DEG = 1 << 24


def backend_module():
    return _impl


def field_tables(field):
    """exp/log/Zech tables of the level of order field.q, on the modulus of
    `level_field(field.p, field.e)`: only p and e are read, so any
    FieldDesc of that order gives the same tables.  Not cached: each level
    is counted once, and a cache would hold every level's tables at once."""
    level = level_field(field.p, field.e)
    return _impl.build_tables(level.p, level.e, level.modulus)


def log_add(a, b, zech, Qm1):
    """The log of g^a + g^b, logs -1 standing for zero."""
    if a < 0:
        return b
    if b < 0:
        return a
    z = zech[(b - a) % Qm1]
    return -1 if z < 0 else (a + z) % Qm1


def embedding(base, tables):
    """For each index of the base field F_q, its index in the field F_Q
    that `tables` describe.

    The base generator goes to the root of the base modulus of smallest
    index.  Only a prime base field maps by identity: the level's modulus
    is primitive and a base field's is the first irreducible, so even at
    level 1 (Q == q) the two may differ.  The roots are units of the
    subfield of order q, the powers of g^((Q-1)/(q-1)); the first one found
    there gives the others as its conjugates x^(p^i), whose logs are its
    log times p^i.
    """
    exp, log, zech = tables
    p, q, Q = base.p, base.q, len(log)
    if base.e == 1:
        return range(q)
    Qm1 = Q - 1
    coeffs = [log[c] for c in reversed(base.modulus)]
    for w in range(0, Qm1, Qm1 // (q - 1)):
        acc = -1
        for c in coeffs:  # Horner's rule on logs
            acc = log_add(acc if acc < 0 else (acc + w) % Qm1, c, zech, Qm1)
        if acc < 0:
            break
    r = log[min(exp[w * p**i % Qm1] for i in range(base.e))]
    image = [0] * q
    for idx in range(1, q):
        # idx = c + p * rest: c plus the root times rest's image
        rest, c = divmod(idx, p)
        s = log_add(-1 if rest == 0 else (log[image[rest]] + r) % Qm1, log[c], zech, Qm1)
        image[idx] = exp[s]
    return image


def trace_mask(p, tables):
    """Bitmask m with absolute trace(x) = parity(popcount(index(x) & m)).

    Only meaningful in characteristic 2, where digit vectors are bit vectors
    and addition is XOR on indices: bit i of m is the trace of the element
    of index 2^i, the XOR of its conjugates x^(2^k).  Returns 0 for odd
    characteristic.
    """
    if p != 2:
        return 0
    exp, log, _ = tables
    Qm1 = len(exp)
    E = Qm1.bit_length()  # Q = 2^E
    mask = 0
    for i in range(E):
        x, t = log[1 << i], 0
        for k in range(E):
            t ^= exp[(x << k) % Qm1]
        mask |= t << i
    return mask
