"""Exact scalar arithmetic: F_p, F_{p^e}, cyclotomic integers, polynomials.

Every finite field is an `FqField(p, e)` built from a deterministic
(lexicographically smallest) irreducible modulus; the prime field F_p is
`GF(p) = FqField(p, 1)`.  A field element is an integer index in [0, q) (for
e = 1, its value); its arithmetic is lookups in O(q) log, Zech-log, negation
and trace tables (`FqTables`), built once per (p, e).  Values of the additive
character live in Z[zeta_p] with exact integer coordinates.
Floats appear only in `CyclotomicValue.embed`, which is used for analytic
bound checks, never for equality.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from . import VerificationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomials over F_p (coefficient lists, low degree first) and F_{p^e}.

def _poly_mod(a, m, p):
    a = [x % p for x in a]
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return a + [0] * (dm - len(a))


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_powmod(a, k, m, p):
    res = _poly_mod([1], m, p)
    base = _poly_mod(list(a), m, p)
    while k:
        if k & 1:
            res = _poly_mulmod(res, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        k >>= 1
    return res


def _poly_gcd(a, b, p):
    a, b = [x % p for x in a], [x % p for x in b]

    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        c = (a[da] * inv) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        a, b = b, a[: deg(a) + 1] or [0]
    return a[: deg(a) + 1] or [0]


def _is_irreducible(m, p):
    """Rabin test for a monic modulus over F_p."""
    e = len(m) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p ** e, m, p)
    diff = [(a - b) % p for a, b in zip(xq + [0] * 2, x + [0] * len(m))][: len(m) - 1]
    if any(diff):
        return False
    for r in {d for d in range(2, e + 1) if is_prime(d) and e % d == 0}:
        xr = _poly_powmod(x, p ** (e // r), m, p)
        diff = [(a - b) % p for a, b in zip(xr + [0] * 2, x + [0] * len(m))][: len(m) - 1]
        g = _poly_gcd(m, diff + [0], p)
        if len(g) - 1 != 0:
            return False
    return True


def _digits(i: int, p: int, e: int):
    """The e base-p digits of i, lowest first."""
    out = []
    for _ in range(e):
        i, c = divmod(i, p)
        out.append(c)
    return out


@lru_cache(maxsize=None)
def lex_least_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over F_p."""
    if e == 1:
        return (0, 1)
    # lex order on (c_0, c_1, ..., c_{e-1}) of x^e + c_{e-1}x^{e-1} + ... + c_0
    total = p ** e
    for idx in range(total):
        m = _digits(idx, p, e) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise VerificationError(f"no irreducible polynomial of degree {e} over F_{p}")


def _digit_sums(p: int, lo: int, hi: int, base: int):
    """For each s in [0, (2p-1)^(hi-lo)): sum_k (d_k mod p) base^(lo+k) over
    the base-(2p-1) digits d_k of s."""
    out = [0]
    for k in range(lo, hi):
        w = base ** k
        out = [t + d % p * w for d in range(2 * p - 1) for t in out]
    return out


class _IndexProduct:
    """Multiplication by a fixed element on the indices of F_p[x]/(m).

    For e = 1 an index is its value.  For e > 1 the digits of an element are
    also written in base b = 2p-1, where the sum of two elements carries no
    digit; `to_index` and `to_spread` take such a sum back to a base-p index
    and to base b, each by one lookup on its low h digits and one on the
    rest."""

    def __init__(self, p: int, m):
        self.p, self.m, self.e = p, list(m), len(m) - 1
        if self.e > 1:
            e, b = self.e, 2 * p - 1
            self.h = (e + 1) // 2
            self.B = b ** self.h
            self.to_index = _digit_sums(p, 0, self.h, p), _digit_sums(p, self.h, e, p)
            self.to_spread = _digit_sums(p, 0, self.h, b), _digit_sums(p, self.h, e, b)

    def by(self, g):
        """v -> the index of g v, for g a coefficient list.  With v split as
        hi p^h + lo, `low[lo]` and `high[hi]` are g lo and g hi p^h in base
        b, spanned digit by digit from the products c g x^k; their sum is
        reduced to an index."""
        p, m, e = self.p, self.m, self.e
        if e == 1:
            c = g[0]
            return lambda v: v * c % p
        b, h, B = 2 * p - 1, self.h, self.B
        slo, shi = self.to_spread
        parts, gx = [], list(g)  # parts[k][c]: c g x^k in base b
        for _ in range(e):
            parts.append([sum(c * y % p * b ** i for i, y in enumerate(gx)) for c in range(p)])
            gx = _poly_mulmod(gx, [0, 1], m, p)
        low, high = [0], [0]
        for part in parts[:h]:
            low = [slo[t % B] + shi[t // B] for w in part for t in (u + w for u in low)]
        for part in parts[h:]:
            high = [slo[t % B] + shi[t // B] for w in part for t in (u + w for u in high)]
        (ilo, ihi), P = self.to_index, p ** h

        def times_g(v):
            s = low[v % P] + high[v // P]
            return ilo[s % B] + ihi[s // B]

        return times_g


def _power_walk(times_g, q: int):
    """The indices of g^0, g^1, ... for the g that `times_g` multiplies by,
    up to the first power that is 1 again, so that their number is the
    order of g; None if no power within q - 1 steps is 1 (the modulus is
    reducible and g no unit)."""
    out, v = [], 1
    for _ in range(q - 1):
        out.append(v)
        v = times_g(v)
        if v == 1:
            return out
    return None


class FqTables:
    """Index tables of F_p[x]/(modulus), shared by every FqField(p, e).

    An element is its index in [0, q): the base-p digits of its coefficient
    vector, lowest degree first.  With g a primitive element:

    - `exp[k]` is the index of g^k, listed twice (length 2(q-1)), so that
      `exp[log[a] + log[b]]` needs no reduction mod q-1;
    - `log[i]` is the discrete log of element i, and -1 for zero;
    - `zech[k]` is log(1 + g^k), or -1 where 1 + g^k = 0 (Zech logarithms):
      for nonzero a, b, a + b = g^(log a + zech[log b - log a]);
    - `neg[i]` is the index of -i, `trace[i]` its trace down to F_p.

    Every table has O(q) entries, none is q x q.
    """

    __slots__ = ("p", "e", "q", "modulus", "exp", "log", "zech", "neg", "trace")

    def __init__(self, p: int, modulus):
        m = list(modulus)
        e = len(m) - 1
        q = p ** e
        self.p, self.e, self.q, self.modulus = p, e, q, tuple(m)

        # the first g, in index order, whose powers walk through all of F_q*;
        # for e > 1 that is past the indices below p, the constants of F_p,
        # whose order divides p - 1 < q - 1
        order, times = q - 1, _IndexProduct(p, m)
        for gidx in range(p if e > 1 else 1, q):
            exp = _power_walk(times.by(_digits(gidx, p, e)), q)
            if exp is not None and len(exp) == order:
                break
        else:
            raise VerificationError(f"no primitive element modulo {tuple(m)} over F_{p}")
        log = [-1] * q
        for k, i in enumerate(exp):
            log[i] = k
        # 1 + x changes only the lowest digit of x
        self.zech = [log[i + 1 if i % p != p - 1 else i + 1 - p] for i in exp]
        self.exp = exp + exp
        self.log = log

        # Tr(x^k) for each basis monomial, as the Frobenius-orbit sum
        basis_trace = []
        for k in range(e):
            acc = [0] * e
            y = _poly_mod([0] * k + [1], m, p)
            for _ in range(e):
                acc = [(a + b) % p for a, b in zip(acc, y)]
                y = _poly_powmod(y, p, m, p)
            if any(acc[1:]):
                raise VerificationError("trace not in the prime field")
            basis_trace.append(acc[0])

        neg, trace = [0], [0]
        for k in range(e):
            pk, tk = p ** k, basis_trace[k]
            neg = [x + (-c % p) * pk for c in range(p) for x in neg]
            trace = [(t + c * tk) % p for c in range(p) for t in trace]
        self.neg, self.trace = neg, trace


@lru_cache(maxsize=None)
def fq_tables(p: int, e: int) -> FqTables:
    """The tables of F_{p^e} with its lex-least modulus, built once."""
    return FqTables(p, lex_least_irreducible(p, e))


def _fq(field, v: int) -> "FqElement":
    el = object.__new__(FqElement)
    el.field = field
    el.v = v
    return el


class FqField:
    """The field F_{p^e} with a deterministic modulus."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = lex_least_irreducible(p, e)
        self._tables = fq_tables(p, e)

    def __call__(self, v) -> "FqElement":
        if v.__class__ is int:
            return _fq(self, v % self.p)
        if isinstance(v, FqElement):
            if v.field._tables is not self._tables:
                raise ValueError("element from a different field")
            return _fq(self, v.v)
        if isinstance(v, Fraction):
            return self(v.numerator) / self(v.denominator)
        return _fq(self, v % self.p)

    def from_index(self, idx: int) -> "FqElement":
        return _fq(self, idx % self.q)

    def elements(self):
        return [_fq(self, i) for i in range(self.q)]

    def __eq__(self, other):
        return isinstance(other, FqField) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __reduce__(self):
        # a copy or an unpickled field shares the tables of (p, e), which
        # element equality requires
        return FqField, (self.p, self.e)

    def __repr__(self):
        return f"FqField({self.p}, {self.e})"


def GF(p: int) -> FqField:
    """The prime field F_p."""
    return FqField(p, 1)


class FqElement:
    """Element of F_{p^e}.

    `v` is its index in [0, q), the base-p digits of its coefficient vector
    (so for e = 1 it is the value); the operators are lookups in the field's
    FqTables.
    """

    __slots__ = ("field", "v")

    @property
    def coeffs(self):
        return tuple(_digits(self.v, self.field.p, self.field.e))

    def _index_of(self, other):
        """Index of `other` in this field, or None for a non-scalar."""
        if other.__class__ is FqElement:
            if other.field._tables is not self.field._tables:
                raise ValueError("mixed fields")
            return other.v
        if other.__class__ is int:  # n is the constant n mod p in every F_{p^e}
            return other % self.field.p
        if isinstance(other, (int, Fraction)):
            return self.field(other).v
        return None

    def __add__(self, other):
        # inline fast path for the common operand, an element of this field
        if other.__class__ is FqElement and other.field._tables is self.field._tables:
            b = other.v
        else:
            b = self._index_of(other)
            if b is None:
                return NotImplemented
        return _fq(self.field, _add(self.field._tables, self.v, b))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is FqElement and other.field._tables is self.field._tables:
            b = other.v
        else:
            b = self._index_of(other)
            if b is None:
                return NotImplemented
        t = self.field._tables
        return _fq(self.field, _add(t, self.v, t.neg[b]))

    def __rsub__(self, other):
        b = self._index_of(other)
        if b is None:
            return NotImplemented
        t = self.field._tables
        return _fq(self.field, _add(t, b, t.neg[self.v]))

    def __mul__(self, other):
        if other.__class__ is FqElement and other.field._tables is self.field._tables:
            b = other.v
        else:
            b = self._index_of(other)
            if b is None:
                return NotImplemented
        a = self.v
        if not (a and b):
            return _fq(self.field, 0)
        t = self.field._tables
        return _fq(self.field, t.exp[t.log[a] + t.log[b]])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        f = self.field
        if not self.v:
            if k < 0:
                raise ZeroDivisionError("division by zero in F_q")
            return f(1) if k == 0 else self
        t = f._tables
        return _fq(f, t.exp[t.log[self.v] * k % (f.q - 1)])

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError("division by zero in F_q")
        f = self.field
        t = f._tables
        return _fq(f, t.exp[-t.log[self.v] % (f.q - 1)])

    def __truediv__(self, other):
        b = self._index_of(other)
        return NotImplemented if b is None else self * _fq(self.field, b).inverse()

    def __rtruediv__(self, other):
        b = self._index_of(other)
        return NotImplemented if b is None else _fq(self.field, b) * self.inverse()

    def __neg__(self):
        return _fq(self.field, self.field._tables.neg[self.v])

    def __eq__(self, other):
        if other.__class__ is FqElement:
            return other.v == self.v and other.field._tables is self.field._tables
        if isinstance(other, int):
            return self.v == other % self.field.p
        return False

    def __hash__(self):
        return self.v

    def __bool__(self):
        return self.v != 0

    def trace(self) -> int:
        """Field trace down to F_p, returned as an integer in [0, p)."""
        return self.field._tables.trace[self.v]

    def __repr__(self):
        f = self.field
        if f.e == 1:
            return f"{self.v} (mod {f.p})"
        return f"Fq({f.p}^{f.e}){list(self.coeffs)}"


def _add(t: FqTables, a: int, b: int) -> int:
    """Index of a + b, by Zech logarithms."""
    if not a:
        return b
    if not b:
        return a
    la = t.log[a]
    z = t.zech[t.log[b] - la]  # a negative difference wraps round mod q-1
    return t.exp[la + z] if z >= 0 else 0


def _mul(t: FqTables, a: int, b: int) -> int:
    """Index of a * b: g^(log a + log b), read from the doubled exp table."""
    return t.exp[t.log[a] + t.log[b]] if a and b else 0


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[zeta_p].

class CyclotomicValue:
    """Exact element of Z[zeta_p] in the basis 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=None):
        self.p = p
        if coeffs is None:
            coeffs = (0,) * (p - 1)
        c = list(coeffs)
        if len(c) != p - 1:
            raise ValueError("coefficient vector must have length p-1")
        self.coeffs = tuple(c)

    @classmethod
    def zeta_pow(cls, p: int, k: int):
        k %= p
        if k < p - 1:
            c = [0] * (p - 1)
            c[k] = 1
            return cls(p, c)
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        return cls(p, [-1] * (p - 1))

    def _check(self, other):
        if not isinstance(other, CyclotomicValue):
            raise TypeError("expected a CyclotomicValue")
        if other.p != self.p:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other):
        self._check(other)
        return CyclotomicValue(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicValue(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicValue(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicValue(self.p, [a * other for a in self.coeffs])
        self._check(other)
        p = self.p
        raw = [0] * (2 * p - 3)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        out = [0] * (p - 1)
        for k, c in enumerate(raw):
            if not c:
                continue
            k %= p
            if k < p - 1:
                out[k] += c
            else:
                for i in range(p - 1):
                    out[i] -= c
        return CyclotomicValue(p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CyclotomicValue)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def galois(self, k: int) -> "CyclotomicValue":
        """Apply the automorphism zeta -> zeta^k, gcd(k, p) = 1."""
        out = CyclotomicValue(self.p)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + CyclotomicValue.zeta_pow(self.p, i * k) * a
        return out

    def embed(self) -> complex:
        """Complex embedding zeta -> exp(2*pi*i/p), double precision."""
        z = cmath.exp(2j * cmath.pi / self.p)
        return sum(a * z ** i for i, a in enumerate(self.coeffs) if a) + 0j

    def __repr__(self):
        return f"Cyc({self.p}){list(self.coeffs)}"


def psi(p: int, x) -> CyclotomicValue:
    """Additive character of F_p valued in Z[zeta_p]: x -> zeta_p^x, composed
    with the field trace for field-element arguments."""
    if isinstance(x, FqElement):
        x = x.trace()
    return CyclotomicValue.zeta_pow(p, x)


# ---------------------------------------------------------------------------
# Multivariate polynomials with exact coefficients.

class MultiPoly:
    """Sparse multivariate polynomial over an exact scalar ring.

    Terms map exponent tuples (aligned with `variables`) to nonzero
    coefficients. Coefficients are whatever the caller supplies (Fraction,
    FqElement); mixing works as long as the scalars interoperate.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        if terms:
            for expo, c in terms.items():
                if c:
                    self.terms[tuple(expo)] = c

    @classmethod
    def const(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, variables, name, one=Fraction(1)):
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): one})

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable lists differ")
            return other
        return MultiPoly.const(self.variables, other)

    def __add__(self, other):
        o = self._coerce(other)
        t = dict(self.terms)
        for e, c in o.terms.items():
            s = t.get(e)
            t[e] = c if s is None else s + c
        return MultiPoly(self.variables, t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = t.get(e)
                t[e] = c if s is None else s + c
        return MultiPoly(self.variables, t)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return MultiPoly(self.variables, {e: c / scalar for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, name):
        """Coefficient of the degree-1 monomial in `name` (other vars absent)."""
        i = self.variables.index(name)
        e = [0] * len(self.variables)
        e[i] = 1
        return self.terms.get(tuple(e), 0)

    def evaluate(self, values: dict):
        """Full evaluation; every variable must be assigned a scalar."""
        acc = None
        for e, c in self.terms.items():
            term = c
            for name, k in zip(self.variables, e):
                for _ in range(k):
                    term = term * values[name]
            acc = term if acc is None else acc + term
        return 0 if acc is None else acc

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Substitute MultiPolys (or scalars) for some of the variables."""
        out = MultiPoly(self.variables)
        for e, c in self.terms.items():
            term = MultiPoly.const(self.variables, c)
            for name, k in zip(self.variables, e):
                if k == 0:
                    continue
                rep = mapping.get(name)
                if rep is None:
                    rep = MultiPoly.var(self.variables, name, Fraction(1))
                elif not isinstance(rep, MultiPoly):
                    rep = MultiPoly.const(self.variables, rep)
                for _ in range(k):
                    term = term * rep
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e)
                if k
            )
            parts.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(parts)
