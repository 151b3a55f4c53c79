"""Multivariate polynomials over Q or a finite field, with a text grammar.

Variables are x0..xN.  A polynomial is a map from exponent vectors to nonzero
coefficients; coefficients are Fraction (domain None) or FieldElement (domain
a FieldDesc).  The plain-text grammar (EBNF in the README) covers terms like
``3*x0^2*x1 - x2^3`` and, over non-prime fields, generator powers ``g^2*x0``.
"""

import re

from ..ffield import FieldDesc, FieldElement


class PolyError(ValueError):
    pass


def _rational(c):
    """c as a coefficient over Q; `fractions` is imported only when one is made."""
    from fractions import Fraction

    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise PolyError(f"bad rational coefficient {c!r}")


def dom_zero(domain):
    return _rational(0) if domain is None else domain.zero()


def dom_one(domain):
    return _rational(1) if domain is None else domain.one()


def dom_from_int(domain, k):
    return _rational(k) if domain is None else domain.from_int(k)


def _coerce(domain, c):
    if domain is None:
        return _rational(c)
    if isinstance(c, FieldElement):
        if c.field != domain:
            raise PolyError("coefficient from a different field")
        return c
    if isinstance(c, int):
        return domain.from_int(c)
    raise PolyError(f"bad field coefficient {c!r}")


class MultiPoly:
    """Immutable-by-convention multivariate polynomial."""

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars, domain=None, terms=None):
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
    def zero(nvars, domain=None):
        return MultiPoly(nvars, domain)

    @staticmethod
    def monomial(nvars, exps, c=1, domain=None):
        return MultiPoly(nvars, domain, {tuple(exps): c})

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

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
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, None)
            s = c if s is None else s + c
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
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scaled(other)
        self._compat(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = t.get(e, None)
                s = c if s is None else s + c
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
        out.terms = {e: x * c for e, x in self.terms.items()} if c else {}
        return out

    def partial(self, i):
        """Partial derivative with respect to x_i (exact, char-aware)."""
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            k = dom_from_int(self.domain, e[i])
            nc = c * k
            if not nc:
                continue
            ne = list(e)
            ne[i] -= 1
            t[tuple(ne)] = t.get(tuple(ne), dom_zero(self.domain)) + nc
        return MultiPoly(self.nvars, self.domain, t)

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self)})"


# ---------------------------------------------------------------------------
# text grammar


_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z]\w*|\^|\*|/|\+|-)")


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


def poly_from_str(s, nvars, domain=None):
    """Parse the plain-text grammar into a MultiPoly."""
    toks = _tokenize(s)
    if not toks:
        raise PolyError("empty polynomial string")
    pos = 0
    acc = MultiPoly.zero(nvars, domain)

    def peek():
        return toks[pos] if pos < len(toks) else None

    while pos < len(toks):
        sign = 1
        while peek() in ("+", "-"):
            if toks[pos] == "-":
                sign = -sign
            pos += 1
        if peek() is None:
            raise PolyError("dangling sign")
        # one term: product of factors separated by '*'
        coeff = dom_one(domain)
        exps = [0] * nvars
        expect_factor = True
        while expect_factor:
            tok = peek()
            if tok is None:
                raise PolyError("truncated term")
            pos += 1
            if tok.isdigit():
                val = int(tok)
                if peek() == "/":
                    pos += 1
                    den = toks[pos] if pos < len(toks) else None
                    if den is None or not den.isdigit():
                        raise PolyError("bad rational coefficient")
                    pos += 1
                    if domain is not None:
                        raise PolyError("rational coefficients need domain Q")
                    coeff = coeff * _rational(val) / int(den)
                else:
                    coeff = coeff * dom_from_int(domain, val)
            elif tok == "g":
                if domain is None or domain.e == 1:
                    raise PolyError("'g' needs a non-prime field domain")
                k = 1
                if peek() == "^":
                    pos += 1
                    if pos >= len(toks) or not toks[pos].isdigit():
                        raise PolyError("bad exponent")
                    k = int(toks[pos])
                    pos += 1
                coeff = coeff * domain.gen() ** k
            elif tok.startswith("x") and tok[1:].isdigit():
                i = int(tok[1:])
                if i >= nvars:
                    raise PolyError(f"variable x{i} out of range (nvars={nvars})")
                k = 1
                if peek() == "^":
                    pos += 1
                    if pos >= len(toks) or not toks[pos].isdigit():
                        raise PolyError("bad exponent")
                    k = int(toks[pos])
                    pos += 1
                exps[i] += k
            else:
                raise PolyError(f"unexpected token {tok!r}")
            if peek() == "*":
                pos += 1
                expect_factor = True
            else:
                expect_factor = False
        if sign < 0:
            coeff = -coeff
        acc = acc + MultiPoly.monomial(nvars, exps, coeff, domain)
    return acc


def order_key(exps):
    """Sort key of the degrevlex term order, the only one used."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _coeff_pieces(domain, c):
    """Break a coefficient into printable (string, is_one) atoms per term."""
    if domain is None:
        return [(str(c), c == 1)]
    out = []
    for j, cj in enumerate(c.coeffs):
        if not cj:
            continue
        if j == 0:
            out.append((str(cj), cj == 1))
        else:
            gpart = "g" if j == 1 else f"g^{j}"
            out.append((f"{cj}*{gpart}" if cj != 1 else gpart, False))
    return out


def poly_to_str(p):
    """Deterministic printer; inverse of poly_from_str up to normalization."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=order_key, reverse=True):
        c = p.terms[exps]
        mono = "*".join(
            (f"x{i}" if e == 1 else f"x{i}^{e}") for i, e in enumerate(exps) if e
        )
        for cs, is_one in _coeff_pieces(p.domain, c):
            neg = cs.startswith("-")
            body = cs[1:] if neg else cs
            if mono and (is_one or body == "1"):
                text = mono
            elif mono:
                text = f"{body}*{mono}"
            else:
                text = body
            pieces.append(("-" if neg else "+", text))
    sign0, text0 = pieces[0]
    s = ("-" if sign0 == "-" else "") + text0
    for sign, text in pieces[1:]:
        s += f" {sign} {text}"
    return s
