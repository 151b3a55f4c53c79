"""Small exact linear-algebra routines over Q (Fraction) and Z.

Matrices are lists of row lists.  These are helpers for modest sizes (the
systems in this package stay well under 100x100); no pivot-size cleverness
beyond what exactness requires.
"""

from __future__ import annotations

from fractions import Fraction


def mat_copy_frac(m):
    return [[Fraction(x) for x in row] for row in m]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def rref(m):
    """Reduced row echelon form over Q; returns (matrix, pivot columns)."""
    a = mat_copy_frac(m)
    if not a or not a[0]:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    """Rank over Q."""
    return len(rref(m)[1])


def inverse(m):
    """Inverse over Q of a square matrix, or None when it is singular."""
    n = len(m)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve(m, b):
    """One solution of m x = b over Q, or None if inconsistent."""
    if not m:
        return [] if not any(b) else None
    cols = len(m[0])
    aug = [list(row) + [bb] for row, bb in zip(m, b)]
    red, pivots = rref(aug)
    # inconsistent if a pivot lands in the augmented column
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = red[r][-1]
    return x


def det_frac(m):
    """Determinant over Q by Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = mat_copy_frac(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def det_bareiss(m):
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly(m):
    """Characteristic polynomial det(xI - m) of a square Fraction matrix.

    Returned as a coefficient list (index = degree) of Fractions, monic.
    Computed by exact evaluation at x = 0..n and Lagrange interpolation.
    """
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [
            [Fraction(x) - Fraction(m[i][j]) if i == j else -Fraction(m[i][j]) for j in range(n)]
            for i in range(n)
        ]
        ys.append(det_frac(shifted))
    # Lagrange interpolation on n+1 points
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        f = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += f * c
    return coeffs
