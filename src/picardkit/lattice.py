"""Integer lattice algorithms: one Hermite elimination behind Hermite bases,
integer kernels, saturation and unimodular inverses; independence
certificates, fixed ranks under a finite group, and the checkpoint that
carries a `rank` request's best lower bound to the next request.

All arithmetic is arbitrary-precision integer; Hermite pivoting is
deterministic (smallest nonzero absolute value, ties by lowest row) and the
Hermite form of a lattice is canonical, so outputs are reproducible.
"""

import json
import os
import tempfile

from .exactla import det_bareiss, echelon, identity, mat_mul, rank as q_rank


class LatticeError(ValueError):
    pass


class RankMismatchError(LatticeError):
    pass


class RelationViolationError(LatticeError):
    pass


# ---------------------------------------------------------------------------
# Hermite elimination


def _hermite_rows_inplace(a, u=None):
    """Bring a to row Hermite form in place, zero rows last, applying the
    same row operations to u when given (so u*a_before = a_after for
    u = identity)."""
    if u is None:
        u = [[] for _ in a]  # zero-width rows: no transform to track
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for col in range(cols):
        if r >= rows:
            break
        live = [i for i in range(r, rows) if a[i][col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: (abs(a[i][col]), i))
            base = live[0]
            for i in live[1:]:
                q = a[i][col] // a[base][col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[base])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[base])]
            live = [i for i in live if a[i][col]]
        piv = live[0]
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            u[r], u[piv] = u[piv], u[r]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1


def hnf_rows(mat):
    """Row Hermite normal form: canonical basis of the row lattice with
    positive pivots and entries above each pivot reduced modulo it."""
    work = [list(r) for r in mat]
    _hermite_rows_inplace(work)
    return [row for row in work if any(row)]


def coords_in_hnf(basis, vector):
    """Integer coordinates of vector in an echelon basis (nonzero rows whose
    pivot columns strictly increase, such as a Hermite form), or None when
    the vector is off the row lattice."""
    residual = list(vector)
    coords = []
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x)
        c, rem = divmod(residual[piv], row[piv])
        if rem:
            return None
        coords.append(c)
        if c:
            residual = [x - c * y for x, y in zip(residual, row)]
    return None if any(residual) else coords


def integer_kernel(m):
    """Basis (list of integer vectors) of {x : m x = 0}, automatically a
    saturated sublattice of Z^cols; returned in Hermite normal form.

    The unimodular transform u of the Hermite pass u m^T = h spans Z^cols,
    and its rows that h sends to zero rows span the kernel.
    """
    h = [list(col) for col in zip(*m)]
    u = identity(len(h))
    _hermite_rows_inplace(h, u)
    return hnf_rows([ui for hi, ui in zip(h, u) if not any(hi)])


def saturate(span_rows, ambient_rank):
    """Basis of the saturation of the row span inside Z^ambient_rank.

    Computed as the double integer kernel: kernels are saturated, and the
    kernel of the kernel recovers exactly the division-closed hull.
    """
    rows = [list(r) for r in span_rows if any(r)]
    if not rows:
        return []
    for r in rows:
        if len(r) != ambient_rank:
            raise LatticeError("span vector has wrong length")
    perp = integer_kernel(rows)
    if not perp:
        return [[1 if i == j else 0 for j in range(ambient_rank)] for i in range(ambient_rank)]
    return integer_kernel(perp)


def independence_certificate(m):
    """(rank over Q, row indices, column indices, minor determinant).

    The returned index sets give one maximal nonsingular square minor; its
    determinant is computed fraction-free from the minor itself, and a zero
    one is refused.
    """
    cols, rows = echelon(m)
    rows = sorted(rows)
    minor = [[m[i][j] for j in cols] for i in rows]
    det = det_bareiss(minor) if minor else 1
    if rows and det == 0:
        raise LatticeError("internal: singular certified minor")
    return len(rows), rows, cols, det


# ---------------------------------------------------------------------------
# G-lattices


def mat_inverse_int(m):
    """Exact inverse of a unimodular integer matrix.

    The Hermite form of m is the identity exactly when m is square and
    unimodular, and the row operations that reach it then multiply to m^-1.
    """
    n = len(m)
    a = [list(row) for row in m]
    u = identity(n)
    _hermite_rows_inplace(a, u)
    if a != identity(n):
        raise LatticeError("matrix is not unimodular")
    return u


class GLattice:
    """Finite-rank free Z-module with a finite-group action.

    `action` holds one integer matrix per group generator (det +-1 checked);
    `relations` are words in the generators (1-based signed indices) that
    must multiply to the identity and are verified at construction.
    """

    __slots__ = ("rank", "action", "relations")

    def __init__(self, rank, action, relations=None):
        self.rank = rank
        self.action = action
        self.relations = [] if relations is None else relations
        for g in self.action:
            if len(g) != self.rank or any(len(row) != self.rank for row in g):
                raise LatticeError("action matrix has wrong shape")
            if det_bareiss(g) not in (1, -1):
                raise LatticeError("action matrix is not invertible over Z")
        for word in self.relations:
            prod = identity(self.rank)
            for idx in word:
                g = self.action[abs(idx) - 1]
                if idx < 0:
                    g = mat_inverse_int(g)
                prod = mat_mul(prod, g)
            if prod != identity(self.rank):
                raise RelationViolationError(f"relation {word} fails")


def fixed_rank(lat):
    """Rank of the fixed sublattice: corank of the stacked (g - 1) maps."""
    if not lat.action:
        return lat.rank
    stacked = []
    for g in lat.action:
        for i in range(lat.rank):
            stacked.append([g[i][j] - (1 if i == j else 0) for j in range(lat.rank)])
    return lat.rank - q_rank(stacked)


def build_n(pairings, action_on_y, rho, relations=None):
    """Saturated model N of the cycle classes, with its induced action.

    pairings: rows are the pairing vectors of candidate cycles against the
    basis cycle set Y; action_on_y: matrices of the group on Y.  Requires
    rank(pairings) == rho (the caller-asserted true rank).  Returns
    (GLattice, class_map) where class_map sends any further pairing vector
    to its integer coordinates in N.
    """
    k = len(pairings[0])
    r = q_rank(pairings)
    if r != rho:
        raise RankMismatchError(f"pairing rank {r} != asserted rank {rho}")
    basis = saturate(pairings, k)
    induced = []
    for g in action_on_y:
        ginv = mat_inverse_int(g)
        mat = []
        for b in basis:
            moved = [sum(b[a] * ginv[a][j] for a in range(k)) for j in range(k)]
            coords = coords_in_hnf(basis, moved)
            if coords is None:
                raise LatticeError("action does not stabilize the lattice")
            mat.append(coords)
        induced.append(mat)
    lat = GLattice(rank=len(basis), action=induced, relations=relations or [])

    def class_map(vector):
        coords = coords_in_hnf(basis, vector)
        if coords is None:
            raise LatticeError("cycle class does not lie in the lattice model")
        return coords

    return lat, class_map


# ---------------------------------------------------------------------------
# the rank checkpoint


def read_checkpoint(path, inputs_digest):
    """The best lower bound saved at `path` for inputs with this digest, 0
    when there is no such file.

    Raises LatticeError when the file is unreadable or malformed, holds a
    negative bound, or was written for inputs with another digest.
    """
    if not path or not os.path.exists(path):
        return 0
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
        digest, best, cert = state.get("inputsDigest"), state["best"], state.get("bestCertificate")
        for key in ("kind", "value", "witness") if cert else ():
            cert[key]  # a saved certificate holds all three
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise LatticeError(f"unreadable checkpoint {path}: {exc}") from None
    if digest != inputs_digest:
        raise LatticeError("checkpoint belongs to different inputs")
    if type(best) is not int:
        raise LatticeError(f"unreadable checkpoint {path}: best is not an integer")
    if best < 0:
        raise LatticeError(f"checkpoint bound {best} is negative")
    return best


def write_checkpoint(path, inputs_digest, v_mu, p, best, witness):
    """Save lower bound `best` with its witness minor for the inputs with
    this digest, against upper bound v_mu in codimension p.

    The state goes to a temporary file in the same directory, which then
    replaces `path` in one step: a write that fails part-way leaves the
    previous checkpoint as it was."""
    state = {
        "vMu": v_mu,
        "p": p,
        "inputsDigest": inputs_digest,
        "best": best,
        "bestCertificate": {"kind": "lower", "value": best, "witness": witness},
    }
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
