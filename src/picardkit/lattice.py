"""Integer lattice algorithms: one Hermite elimination behind Hermite bases,
integer kernels, saturation and unimodular inverses; independence
certificates, fixed ranks under a finite group, and the upper-meets-lower
rank bound with checkpointing (one certificate offered per `rank` request).

All arithmetic is arbitrary-precision integer; Hermite pivoting is
deterministic (smallest nonzero absolute value, ties by lowest row) and the
Hermite form of a lattice is canonical, so outputs are reproducible.
"""

import json
import os

from .exactla import det_bareiss, echelon, identity, mat_mul, rank as q_rank


class LatticeError(ValueError):
    pass


class RankMismatchError(LatticeError):
    pass


class RelationViolationError(LatticeError):
    pass


class CertificateInvalidError(LatticeError):
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

    The returned index sets give one maximal nonsingular square minor; the
    determinant is recomputed fraction-free as a recheck.
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
# certificates and the bounded search loop


class RankCertificate:
    """A lower or upper bound on a cycle-class rank, with its witness."""

    __slots__ = ("kind", "value", "witness")

    def __init__(self, kind, value, witness=None):
        self.kind = kind  # "lower" | "upper"
        self.value = value
        self.witness = {} if witness is None else witness

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

    def __init__(self, v_mu, p, inputs_digest, checkpoint_path):
        self.v_mu = v_mu
        self.p = p
        self.inputs_digest = inputs_digest
        self.checkpoint_path = checkpoint_path
        self.best, self.best_certificate = read_checkpoint(checkpoint_path, inputs_digest) or (0, None)
        if not 0 <= self.best <= v_mu:
            raise LatticeError(f"checkpoint bound {self.best} is outside 0..{v_mu}")
        self.halted = self.best == v_mu

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


def read_checkpoint(path, inputs_digest):
    """(best, best certificate or None) from the AlgorithmB state saved at
    `path`, or None when there is no such file.

    Raises LatticeError when the file is unreadable or malformed, or was
    written for inputs with another digest.
    """
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
        digest, best, c = state.get("inputsDigest"), state["best"], state.get("bestCertificate")
        cert = RankCertificate(c["kind"], c["value"], c["witness"]) if c else None
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise LatticeError(f"unreadable checkpoint {path}: {exc}") from None
    if digest != inputs_digest:
        raise LatticeError("checkpoint belongs to different inputs")
    if type(best) is not int:
        raise LatticeError(f"unreadable checkpoint {path}: best is not an integer")
    return best, cert
