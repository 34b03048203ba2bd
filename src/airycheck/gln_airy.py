"""Explicit GL_n (n even) machinery: Z_r, the section, the character chi.

The abelianization S(1)/S(2+n) is modelled by vectors x = (x_1, ..., x_{1+n})
standing for Id + sum x_r Z_r, where Z_r is the loop-group incarnation of the
cyclic shift power E_1^r and Z_i Z_j = Z_{i+j} (zero past n+1).  All scalars
live in a caller-supplied field context, an FqField(p, e) (GF(p) for e = 1).

The arithmetic runs on element indices (`FqElement.v`) with the field's
tables (`arith._mul`, `arith._add`): the section algebra and chi take field
elements, compute on their indices and build field elements only for the
result, and the Hecke maps are affine forms with index coefficients.
"""

from __future__ import annotations

from . import Frozen, VerificationError
from .arith import FqElement, _add, _mul, fq_tables
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


class CharacterParams(Frozen):
    _fields = ("n", "field", "lam")

    def __init__(self, n: int, field, lam: tuple):
        _require_even(n)
        _require_char(field, n)
        if len(lam) != n // 2:
            raise ValueError("lambda vector must have length n/2")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lam", lam)  # (lambda_1, ..., lambda_{n/2})
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
# The section algebra F[Z]/(Z^{n+2}), on element indices.
#
# A section vector enters as field elements and leaves as field elements;
# in between every coefficient is its index in F_q (`FqElement.v`) and the
# arithmetic is `_mul`/`_add` on the field's tables.  exp and log are the
# O(n^2) recurrences that follow from E' = X' E and (1 + X) L' = X' for
# E = exp(X) and L = log(1 + X) (Knuth, TAOCP vol. 2, 4.7); they divide by
# k <= n+1 only, which `_require_char` makes a unit.

def _indices(field, xs):
    """The indices of the elements xs of `field` (ints are read as field(x))."""
    t = field._tables
    return [x.v if x.__class__ is FqElement and x.field._tables is t else field(x).v for x in xs]


def _elements(field, vs):
    return [field.from_index(v) for v in vs]


def _trunc_mul(tab, n, a, b):
    """X Y for index vectors of Z-coefficients (index r-1 <-> Z_r); the
    terms past Z_{n+1} are dropped."""
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j + 1] = _add(tab, out[i + j + 1], _mul(tab, x, y))
    return out


def _exp_series(tab, n, x):
    """The Z-coefficients e_1..e_{n+1} of exp(X) for X = sum x_r Z^r, on
    indices, by k e_k = sum_{j=1..k} (j x_j) e_{k-j} with e_0 = 1.  An
    integer j < p is its own index; 1 <= k <= n+1 < p is invertible."""
    jx = [_mul(tab, j, v) for j, v in enumerate(x, start=1)]
    e = [1]
    for k in range(1, n + 2):
        acc = 0
        for j in range(k):
            acc = _add(tab, acc, _mul(tab, jx[j], e[k - 1 - j]))
        e.append(_mul(tab, pow(k, -1, tab.p), acc))
    return e[1:]


def _log_series(tab, n, x):
    """The Z-coefficients l_1..l_{n+1} of log(1 + X) for X = sum x_r Z^r,
    on indices, by k l_k = k x_k - sum_{j<k} (j l_j) x_{k-j}."""
    neg, jl = tab.neg, []  # jl[j-1] is the index of j l_j
    for k in range(1, n + 2):
        acc = 0
        for j in range(k - 1):
            acc = _add(tab, acc, _mul(tab, jl[j], x[k - 2 - j]))
        jl.append(_add(tab, _mul(tab, k, x[k - 1]), neg[acc]))
    return [_mul(tab, pow(k, -1, tab.p), v) for k, v in enumerate(jl, start=1)]


def section_mul(n, field, a, b):
    """Group law on Id + sum x_r Z_r vectors."""
    tab = field._tables
    a, b = _indices(field, a), _indices(field, b)
    prod = _trunc_mul(tab, n, a, b)
    return _elements(field, [_add(tab, _add(tab, x, y), z) for x, y, z in zip(a, b, prod)])


def exp_section(n, field, y):
    """Id + sum_{r=1}^{1+n} X^r / r! for X = sum y_r Z_r."""
    _require_char(field, n)
    return _elements(field, _exp_series(field._tables, n, _indices(field, y)))


def log_section(n, field, x):
    """sum_{r=1}^{1+n} (-1)^{r+1} X^r / r for X = H - Id."""
    _require_char(field, n)
    return _elements(field, _log_series(field._tables, n, _indices(field, x)))


# ---------------------------------------------------------------------------
# The character chi and the Hecke-kernel maps.

def chi_eval(params: CharacterParams, x):
    """chi(Id + sum x_r Z_r) = sum_{r<=n/2} lambda_r y_r + n y_{1+n}, with
    y = log of the section, run on indices."""
    n, field = params.n, params.field
    tab = field._tables
    y = _log_series(tab, n, _indices(field, x))
    acc = _mul(tab, n % field.p, y[n])
    for lam, v in zip(_indices(field, params.lam), y):
        acc = _add(tab, acc, _mul(tab, lam, v))
    return field.from_index(acc)


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
    """sum coeffs[i] x^i, by Horner's rule on element indices."""
    tab = field._tables
    (v,) = _indices(field, (x,))
    acc = 0
    for c in reversed(_indices(field, coeffs)):
        acc = _add(tab, _mul(tab, acc, v), c)
    return field.from_index(acc)
