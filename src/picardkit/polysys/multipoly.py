"""Multivariate polynomials over a finite field, with a text grammar.

Variables are x0..xN.  A polynomial is a map from exponent vectors to nonzero
coefficients in its domain, a FieldDesc; a coefficient is its index there
(`ffield`), a nonzero int below q.  The plain-text grammar
(EBNF in the README) covers terms like ``3*x0^2*x1 - x2^3`` and, over
non-prime fields, generator powers ``g^2*x0``.
"""

import re


class PolyError(ValueError):
    pass


def _coerce(domain, c):
    if type(c) is not int or not 0 <= c < domain.q:
        raise PolyError(f"bad field coefficient {c!r}")
    return c


class MultiPoly:
    """Immutable-by-convention multivariate polynomial."""

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars, domain, terms=None):
        self.nvars = nvars
        self.domain = domain
        t = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise PolyError("exponent vector has wrong length")
                c = _coerce(domain, c)
                if c:
                    t[exps] = c
        self.terms = t

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars, domain):
        return MultiPoly(nvars, domain)

    # -- structure ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _compat(self, other):
        if self.nvars != other.nvars or self.domain != other.domain:
            raise PolyError("polynomials over different rings")

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        add = self.domain.add
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = add(t.get(e, 0), c)
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.domain, out.terms = self.nvars, self.domain, t
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.domain = self.nvars, self.domain
        out.terms = {e: self.domain.neg(c) for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        self._compat(other)
        add, mul = self.domain.add, self.domain.mul
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = add(t.get(e, 0), mul(c1, c2))
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.domain, out.terms = self.nvars, self.domain, t
        return out

    def scaled(self, c):
        c = _coerce(self.domain, c)
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.domain = self.nvars, self.domain
        mul = self.domain.mul
        out.terms = {e: mul(x, c) for e, x in self.terms.items()} if c else {}
        return out

    def partial(self, i):
        """Partial derivative with respect to x_i (exact, char-aware)."""
        dom = self.domain
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                t[tuple(ne)] = dom.mul(c, dom.from_int(e[i]))
        return MultiPoly(self.nvars, dom, t)  # drops the terms that became 0

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self)})"


# ---------------------------------------------------------------------------
# text grammar


_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z]\w*|\^|\*|\+|-)")


def _tokenize(s):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise PolyError(f"bad character at {s[pos:pos + 8]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def poly_from_str(s, nvars, domain):
    """Parse the plain-text grammar into a MultiPoly."""
    toks = _tokenize(s)
    if not toks:
        raise PolyError("empty polynomial string")
    pos = 0
    acc = MultiPoly.zero(nvars, domain)

    def peek():
        return toks[pos] if pos < len(toks) else None

    def exponent():
        """The exponent after a '^', else 1."""
        nonlocal pos
        if peek() != "^":
            return 1
        pos += 2
        if pos > len(toks) or not toks[pos - 1].isdigit():
            raise PolyError("bad exponent")
        return int(toks[pos - 1])

    while pos < len(toks):
        sign = 1
        while peek() in ("+", "-"):
            if toks[pos] == "-":
                sign = -sign
            pos += 1
        if peek() is None:
            raise PolyError("dangling sign")
        # one term: product of factors separated by '*'
        coeff = 1
        exps = [0] * nvars
        while True:
            tok = peek()
            if tok is None:
                raise PolyError("truncated term")
            pos += 1
            if tok.isdigit():
                coeff = domain.mul(coeff, domain.from_int(int(tok)))
            elif tok == "g":
                if domain.e == 1:
                    raise PolyError("'g' needs a non-prime field domain")
                coeff = domain.mul(coeff, domain.pow(domain.p, exponent()))
            elif tok.startswith("x") and tok[1:].isdigit():
                i = int(tok[1:])
                if i >= nvars:
                    raise PolyError(f"variable x{i} out of range (nvars={nvars})")
                exps[i] += exponent()
            else:
                raise PolyError(f"unexpected token {tok!r}")
            if peek() != "*":
                break
            pos += 1
        if sign < 0:
            coeff = domain.neg(coeff)
        acc = acc + MultiPoly(nvars, domain, {tuple(exps): coeff})
    return acc


def order_key(exps):
    """Sort key of the degrevlex term order, the only one used."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _coeff_pieces(digits):
    """Break a coefficient, by its digits, into printable (string, is_one)
    atoms per term."""
    out = []
    for j, cj in enumerate(digits):
        if not cj:
            continue
        if j == 0:
            out.append((str(cj), cj == 1))
        else:
            gpart = "g" if j == 1 else f"g^{j}"
            out.append((f"{cj}*{gpart}" if cj != 1 else gpart, False))
    return out


def poly_to_str(p):
    """Deterministic printer; inverse of poly_from_str up to normalization.
    Coefficients print as their power-basis digits, 0..p-1, so every term
    is added."""
    pieces = []
    for exps in sorted(p.terms, key=order_key, reverse=True):
        mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)
        for cs, is_one in _coeff_pieces(p.domain.digits(p.terms[exps])):
            pieces.append(mono if mono and is_one else f"{cs}*{mono}" if mono else cs)
    return " + ".join(pieces) or "0"
