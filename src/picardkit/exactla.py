"""Small exact linear-algebra routines over Z and Q.

Matrices are lists of row lists.  These are helpers for modest sizes (the
systems in this package stay well under 100x100); no pivot-size cleverness
beyond what exactness requires.  Ranks and independent minors come from a
fraction-free integer echelon; only `rref` and `solve` (the Pade route)
work over Q, so only they import `fractions`.
"""


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
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns (matrix, pivot columns, pivot rows): pivot rows[k] is the index
    in m of the row that became row k, so those rows of m are independent.
    """
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in m]
    if not a or not a[0]:
        return a, [], []
    rows, cols = len(a), len(a[0])
    row_ids = list(range(rows))
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_ids[r], row_ids[piv] = row_ids[piv], row_ids[r]
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
    return a, pivots, row_ids[:r]


def echelon(m):
    """(pivot columns, pivot rows) of an integer matrix, as `rref` returns
    them: the same pivot choice (the first nonzero entry at or below the
    current row) by fraction-free elimination below each pivot, dividing
    by the previous pivot as Bareiss does.  Every entry stays an integer
    minor of m, so it is zero exactly where Gauss-Jordan's is."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    row_ids = list(range(rows))
    pivots = []
    prev = 1
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_ids[r], row_ids[piv] = row_ids[piv], row_ids[r]
        top, lead = a[r], a[r][col]
        for i in range(r + 1, rows):
            f = a[i][col]
            a[i] = [(x * lead - f * y) // prev for x, y in zip(a[i], top)]
        prev = lead
        pivots.append(col)
        if len(pivots) == rows:
            break
    return pivots, row_ids[: len(pivots)]


def rank(m):
    """Rank over Q of an integer matrix."""
    return len(echelon(m)[0])


def solve(m, b):
    """One solution of m x = b over Q, or None if inconsistent."""
    from fractions import Fraction

    if not m:
        return [] if not any(b) else None
    cols = len(m[0])
    aug = [list(row) + [bb] for row, bb in zip(m, b)]
    red, pivots, _ = rref(aug)
    # inconsistent if a pivot lands in the augmented column
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = red[r][-1]
    return x


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
