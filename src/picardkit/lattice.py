"""Integer lattice algorithms: Smith normal form, saturation, independence
certificates, invariant ranks under a finite group, and the upper-meets-lower
rank loop with checkpointing.

All arithmetic is arbitrary-precision integer; SNF pivoting is
deterministic (smallest nonzero absolute value, ties by lowest row then
column) so outputs are reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .exactla import det_bareiss, identity, mat_mul, rank as q_rank, rref


class LatticeError(ValueError):
    pass


class RankMismatchError(LatticeError):
    pass


class RelationViolationError(LatticeError):
    pass


class CertificateInvalidError(LatticeError):
    pass


# ---------------------------------------------------------------------------
# Smith normal form


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


def _transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def _is_diagonal(a):
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if i != j and x:
                return False
    return True


def snf(m):
    """(U, D, V) with U*m*V = D diagonal, U and V unimodular, d_1 | d_2 | ...

    Diagonalization alternates row and column Hermite passes with entry
    reduction (naive smallest-pivot elimination suffers exponential entry
    swell already at 8x8); the divisor chain is then enforced by local 2x2
    gcd transforms.  Fully deterministic, hence reproducible.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = identity(rows)
    v = identity(cols)
    if rows == 0 or cols == 0:
        return u, a, v

    passes = 0
    while not _is_diagonal(a):
        _hermite_rows_inplace(a, u)
        if _is_diagonal(a):
            break
        at = _transpose(a)
        vt = _transpose(v)
        _hermite_rows_inplace(at, vt)
        a = _transpose(at)
        v = _transpose(vt)
        passes += 1
        if passes > 200:
            raise LatticeError("Smith reduction did not converge")

    def col_op(i, j, c):  # col_i += c * col_j
        for r in range(rows):
            a[r][i] += c * a[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]

    def row_op(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def swap_diag(i, j):  # swap rows i,j and columns i,j
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    n = min(rows, cols)
    # move zero diagonal entries behind the nonzero ones
    for target in range(n):
        if a[target][target] == 0:
            src = next((k for k in range(target + 1, n) if a[k][k]), None)
            if src is not None:
                swap_diag(target, src)

    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # enforce d_i | d_{i+1} by local gcd transforms on diagonal pairs
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10000:
            raise LatticeError("divisor chain normalization did not converge")
        for i in range(n - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y == 0 or (x and y % x == 0):
                continue
            changed = True
            if x == 0:  # zero before nonzero
                swap_diag(i, i + 1)
                continue
            # [[x,0],[0,y]] -> [[gcd,0],[0,lcm]]
            row_op(i, i + 1, 1)  # row i becomes (x, y)
            while a[i][i + 1]:
                q = a[i][i] // a[i][i + 1]
                if q:
                    col_op(i, i + 1, -q)
                swap_cols(i, i + 1)
            # gcd divides the whole 2x2 block, so this clears exactly
            if a[i + 1][i]:
                q = a[i + 1][i] // a[i][i]
                row_op(i + 1, i, -q)
            for k in (i, i + 1):
                if a[k][k] < 0:
                    a[k] = [-z for z in a[k]]
                    u[k] = [-z for z in u[k]]
            if a[i][i + 1] or a[i + 1][i]:
                raise LatticeError("internal: chain fix left off-diagonal entries")
    return u, a, v


def diagonal_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def hnf_rows(mat):
    """Row Hermite normal form: canonical basis of the row lattice with
    positive pivots and entries above each pivot reduced modulo it.  Keeps
    coefficient growth in check after SNF-derived bases."""
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
    saturated sublattice of Z^cols; returned in Hermite normal form."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    _, d, v = snf(m)
    r = sum(1 for x in diagonal_of(d) if x)
    raw = [[v[i][j] for i in range(cols)] for j in range(r, cols)]
    return hnf_rows(raw)


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

    The returned index sets give one maximal nonsingular square minor; the
    determinant is recomputed fraction-free as a recheck.
    """
    _, cols, rows = rref(m)
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

    The Hermite form of a square m is the identity exactly when m is
    unimodular, and the row operations that reach it then multiply to m^-1.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("matrix is not square")
    a = [list(row) for row in m]
    u = identity(n)
    _hermite_rows_inplace(a, u)
    if a != identity(n):
        raise LatticeError("matrix is not unimodular")
    return u


@dataclass
class GLattice:
    """Finite-rank free Z-module with a finite-group action.

    `action` holds one integer matrix per group generator (det +-1 checked);
    `relations` are words in the generators (1-based signed indices) that
    must multiply to the identity and are verified at construction.
    """

    rank: int
    action: list
    relations: list = field(default_factory=list)
    markers: list | None = None

    def __post_init__(self):
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


def invariants_rank(lat):
    """Rank of the fixed sublattice: corank of the stacked (g - 1) maps."""
    if not lat.action:
        return lat.rank
    stacked = []
    for g in lat.action:
        for i in range(lat.rank):
            stacked.append([g[i][j] - (1 if i == j else 0) for j in range(lat.rank)])
    return lat.rank - q_rank(stacked)


def generate_group(mats, bound=20000):
    """All elements of the group generated by unimodular matrices (BFS)."""
    if not mats:
        return [identity(1)]
    n = len(mats[0])
    seen = {}
    ident = identity(n)
    frontier = [ident]
    seen[_key(ident)] = ident
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                prod = mat_mul(m, g)
                k = _key(prod)
                if k not in seen:
                    seen[k] = prod
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise LatticeError("group generation exceeded bound")
        frontier = nxt
    return list(seen.values())


def _key(m):
    return tuple(tuple(row) for row in m)


def build_n(pairings, action_on_y, rho, relations=None, labels=None):
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
    lat = GLattice(rank=len(basis), action=induced, relations=relations or [], markers=labels)

    def class_map(vector):
        coords = coords_in_hnf(basis, vector)
        if coords is None:
            raise LatticeError("cycle class does not lie in the lattice model")
        return coords

    return lat, class_map


# ---------------------------------------------------------------------------
# certificates and the bounded search loop


@dataclass
class RankCertificate:
    """A lower or upper bound on a cycle-class rank, with its witness."""

    kind: str  # "lower" | "upper"
    value: int
    witness: dict = field(default_factory=dict)

    def recheck(self):
        """Re-verify a lower bound: the witness minor must be nonsingular
        and of the claimed size."""
        if self.kind != "lower":
            return True
        minor = self.witness.get("minor")
        if minor is None:
            return False
        if len(minor) != self.value or any(len(r) != self.value for r in minor):
            return False
        return det_bareiss(minor) != 0

    def to_json(self):
        return {"kind": self.kind, "value": self.value, "witness": self.witness}


class AlgorithmB:
    """Maintains the best certified lower bound until it meets the upper one.

    Termination is equivalent to the truth of the underlying conjecture for
    the input, so the loop supports checkpoint/resume instead of promising
    to halt.  Feeding a certificate above the upper bound, or one whose
    witness fails recheck, raises CertificateInvalidError.
    """

    def __init__(self, v_mu, p=1, inputs_digest="", checkpoint_path=None):
        self.v_mu = v_mu
        self.p = p
        self.inputs_digest = inputs_digest
        self.checkpoint_path = checkpoint_path
        self.best = 0
        self.best_certificate = None
        self.halted = v_mu == 0
        if checkpoint_path and os.path.exists(checkpoint_path):
            self._load()

    def offer(self, cert):
        """Consume one certificate; returns the current status string."""
        if cert.kind != "lower":
            raise CertificateInvalidError("only lower-bound certificates are consumed")
        if not cert.recheck():
            raise CertificateInvalidError("witness minor failed recheck")
        if cert.value > self.v_mu:
            raise CertificateInvalidError(
                f"lower bound {cert.value} exceeds the upper bound {self.v_mu}"
            )
        if cert.value > self.best:
            self.best = cert.value
            self.best_certificate = cert
            self._save()
        if self.best == self.v_mu:
            self.halted = True
        return self.status()

    def run(self, certificates):
        """Drive from an iterable; stops early when the bounds meet."""
        for cert in certificates:
            self.offer(cert)
            if self.halted:
                break
        return self.status()

    def status(self):
        return "halted" if self.halted else "running"

    def result(self):
        return self.v_mu if self.halted else None

    def _save(self):
        if not self.checkpoint_path:
            return
        state = {
            "vMu": self.v_mu,
            "p": self.p,
            "inputsDigest": self.inputs_digest,
            "best": self.best,
            "bestCertificate": self.best_certificate.to_json() if self.best_certificate else None,
        }
        with open(self.checkpoint_path, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)

    def _load(self):
        with open(self.checkpoint_path, encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("inputsDigest") != self.inputs_digest:
            raise LatticeError("checkpoint belongs to different inputs")
        self.best = state["best"]
        if state.get("bestCertificate"):
            c = state["bestCertificate"]
            self.best_certificate = RankCertificate(c["kind"], c["value"], c["witness"])
        if self.best == self.v_mu:
            self.halted = True
