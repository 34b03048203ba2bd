"""Explicit GL_n (n even) machinery: Z_r, the section, the character chi.

The abelianization S(1)/S(2+n) is modelled by vectors x = (x_1, ..., x_{1+n})
standing for Id + sum x_r Z_r, where Z_r is the loop-group incarnation of the
cyclic shift power E_1^r and Z_i Z_j = Z_{i+j} (zero past n+1).  All scalars
live in a caller-supplied field context, an FqField(p, e) (GF(p) for e = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import VerificationError
from .arith import _add, _mul, fq_tables
from .loopmodel import GLnModel, phi_eval


def _require_even(n: int):
    if n < 2 or n % 2 != 0:
        raise ValueError(
            "only even n is supported: the odd case changes signs that "
            "are not pinned down here"
        )


def _require_char(field, n: int):
    p = field.p
    if p <= n + 1:
        raise ValueError(f"need p > n + 1 = {n + 1}, got p = {p}")


@dataclass(frozen=True)
class CharacterParams:
    n: int
    field: object
    lam: tuple  # (lambda_1, ..., lambda_{n/2})

    def __post_init__(self):
        _require_even(self.n)
        _require_char(self.field, self.n)
        if len(self.lam) != self.n // 2:
            raise ValueError("lambda vector must have length n/2")
        object.__setattr__(self, "_chi_geo_coeffs", _chi_geo_coeffs(self))


def make_params(n: int, field, lam) -> CharacterParams:
    return CharacterParams(n, field, tuple(field(x) for x in lam))


# ---------------------------------------------------------------------------
# The Z_r in the loop model.

def z_element(model: GLnModel, r: int):
    """Z_r as a truncated series: the cyclic shift power E_1^r, whose entry
    (i, (i+r) mod n) sits at t^((i+r) // n)."""
    n = model.n
    if not 1 <= r <= n + 1:
        raise ValueError("r out of range")
    out = model.zero_series()
    for i in range(n):
        lvl, j = divmod(i + r, n)
        out[lvl][i][j] = 1
    return out


def phi_z_values(model: GLnModel):
    """phi(Z_r) for r = 1..n+1; only r = n+1 pairs nontrivially (value n)."""
    alg = model.alg
    vals = []
    for r in range(1, model.n + 2):
        series = z_element(model, r)
        Y = [alg.from_matrix(series[i]) for i in range(model.N)]
        vals.append(phi_eval(alg, Y))
    return vals


# ---------------------------------------------------------------------------
# The section algebra F[Z]/(Z^{n+2}).

def _trunc_mul(n, field, a, b):
    """Multiply two x-vectors of Z-coefficients (index r-1 <-> Z_r)."""
    out = [field(0)] * (n + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j + 2 <= n + 1 and y:
                out[i + j + 1] = out[i + j + 1] + x * y
    return out


def section_mul(n, field, a, b):
    """Group law on Id + sum x_r Z_r vectors."""
    out = [x + y for x, y in zip(a, b)]
    prod = _trunc_mul(n, field, a, b)
    return [x + y for x, y in zip(out, prod)]


def exp_section(n, field, y):
    """Id + sum_{r=1}^{1+n} X^r / r! for X = sum y_r Z_r."""
    _require_char(field, n)
    out = [field(0)] * (n + 1)
    power = list(y)
    fact = field(1)
    for r in range(1, n + 2):
        fact = fact * r if r > 1 else fact
        inv = field(1) / fact
        for i, c in enumerate(power):
            out[i] = out[i] + inv * c
        power = _trunc_mul(n, field, power, y)
    return out


def log_section(n, field, x):
    """sum_{r=1}^{1+n} (-1)^{r+1} X^r / r for X = H - Id."""
    _require_char(field, n)
    out = [field(0)] * (n + 1)
    power = list(x)
    for r in range(1, n + 2):
        coeff = field(1) / field(r) if r % 2 == 1 else -(field(1) / field(r))
        for i, c in enumerate(power):
            out[i] = out[i] + coeff * c
        power = _trunc_mul(n, field, power, x)
    return out


# ---------------------------------------------------------------------------
# The character chi and the Hecke-kernel maps.

def chi_eval(params: CharacterParams, x):
    """chi(Id + sum x_r Z_r) = sum_{r<=n/2} lambda_r y_r + n y_{1+n}."""
    n, field = params.n, params.field
    y = log_section(n, field, x)
    acc = field(0)
    for r in range(1, n // 2 + 1):
        acc = acc + params.lam[r - 1] * y[r - 1]
    return acc + field(n) * y[n]


def _chi_geo_coeffs(params: CharacterParams):
    """Coefficient vector of sum (lambda_r/r) m^r + (n/(1+n)) m^{1+n}."""
    n, field = params.n, params.field
    coeffs = [field(0)] * (n + 2)
    for r in range(1, n // 2 + 1):
        coeffs[r] = params.lam[r - 1] / field(r)
    coeffs[n + 1] = field(n) / field(n + 1)
    return coeffs


def chi_geometric(params: CharacterParams, m1):
    """Closed form sum (lambda_r/r) m1^r + (n/(1+n)) m1^{1+n}."""
    field = params.field
    m1 = field(m1) if isinstance(m1, int) else m1
    return poly_eval(field, params._chi_geo_coeffs, m1)


def geometric_section(params: CharacterParams, m1):
    """Id + sum_{r=1}^{n/2} m1^r Z_r, the element chi_geometric evaluates."""
    n, field = params.n, params.field
    m1 = field(m1) if isinstance(m1, int) else m1
    x = [field(0)] * (n + 1)
    for r in range(1, n // 2 + 1):
        x[r - 1] = m1 ** r
    return x


def hecke_forms(n: int, field, m1: int):
    """p_1 and p_2 at first coordinate m1, as affine forms in the tail
    (m_2, ..., m_{1+n/2}), on element indices (`FqElement.v`):

        p_2(m) = -sum_{r=2}^{1+n/2} m_r m1^{n/2-r+1}
        p_1(m) = chi_geometric(m1) - m1^{n+1} - sum_{r=2}^{1+n/2} m_r m1^{n/2-r+2}

    Returns (c, w1, w2): c is the index of -m1^{n+1}, and w1[r-2], w2[r-2]
    are those of the coefficients of m_r in p_1 and p_2.  chi_geometric(m1),
    the only term that depends on lambda, is added by the caller.
    """
    _require_even(n)
    tab = fq_tables(field.p, field.e)
    if m1:
        step = tab.log[m1]
        powers = [tab.exp[step * k % (tab.q - 1)] for k in range(n + 2)]
    else:
        powers = [1] + [0] * (n + 1)
    neg, half = tab.neg, n // 2
    w1 = [neg[powers[half - i]] for i in range(half)]
    w2 = [neg[powers[half - 1 - i]] for i in range(half)]
    return neg[powers[n + 1]], w1, w2


def _eval_form(field, c: int, w, m):
    """The element c + sum_r w[r-2] m_r, with m = (m_1, ..., m_{1+n/2})."""
    tab = fq_tables(field.p, field.e)
    for x, y in zip(m[1:], w):
        c = _add(tab, c, _mul(tab, field(x).v, y))
    return field.from_index(c)


def hecke_p2(n: int, field, m):
    """p_2(m_1, ..., m_{1+n/2}), the affine form w2 of `hecke_forms`."""
    _require_even(n)
    if len(m) != 1 + n // 2:
        raise ValueError("m must have length 1 + n/2")
    _, _, w2 = hecke_forms(n, field, field(m[0]).v)
    return _eval_form(field, 0, w2, m)


def hecke_p1(params: CharacterParams, m):
    """p_1(m), chi_geometric(m_1) plus the affine form (c, w1) of
    `hecke_forms`."""
    n, field = params.n, params.field
    if len(m) != 1 + n // 2:
        raise ValueError("m must have length 1 + n/2")
    m1 = field(m[0])
    c, w1, _ = hecke_forms(n, field, m1.v)
    return chi_geometric(params, m1) + _eval_form(field, c, w1, m)


def f_poly(params: CharacterParams):
    """Coefficients of f(m) = -m^{n+1}/(n+1) + sum (lambda_r/r) m^r,
    index i <-> m^i; degree exactly n+1."""
    n, field = params.n, params.field
    coeffs = [field(0)] * (n + 2)
    for r in range(1, n // 2 + 1):
        coeffs[r] = params.lam[r - 1] / field(r)
    coeffs[n + 1] = -(field(1) / field(n + 1))
    if not coeffs[n + 1]:
        raise VerificationError("f has degree below n + 1")
    return coeffs


def poly_eval(field, coeffs, x):
    acc = field(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
