"""Explicit GL_n (n even) machinery: the section, the character chi, the
Hecke maps; a scalar layer on `arith` alone, loading no Lie stack.

The abelianization S(1)/S(2+n) is modelled by vectors x = (x_1, ..., x_{1+n})
standing for Id + sum x_r Z_r, where Z_r (`loopmodel.z_element`) is the
loop-group incarnation of the cyclic shift power E_1^r and Z_i Z_j = Z_{i+j}
(zero past n+1).  All scalars live in a caller-supplied field context, an
FqField(p, e) (GF(p) for e = 1).

The arithmetic runs on element indices (`FqElement.v`) with the field's
tables.  The truncated product, the exp and log recurrences and chi's
lambda-sum are dot products, each one call of `arith._dot`; the rest calls
`arith._mul` and `arith._add`.  The section algebra and chi take field
elements, compute on their indices and build field elements only for the
result, and the Hecke maps are affine forms with index coefficients over
the tables.  Horner's rule has its own kernel, `_horner`, on index lists in
and out with the table lookups inline, and one loop over the coefficients
per point, so that `chi_geometric` (Horner) and `chi_eval` (log and dot)
share no code: `poly_eval` is its one-point read, `chi_geometric`
evaluates at one m1 through it, and `chi_geometric_row` reads chi at every
m1 of F_q in one call, for the brute fiber sum.  `CharacterParams` stores
the indices of lambda, of chi_geometric's and of f's coefficients, computed
once per params on indices from one list of lambda_r/r (each 1/k read from
`_inverses`), so no coefficient is read per call and `f_poly` divides
nothing.
"""

from __future__ import annotations

from functools import lru_cache

from . import Frozen
from .arith import FqElement, _add, _dot, _mul


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
        lam_indices = tuple(_indices(field, lam))
        chi, f = _airy_indices(field._tables, n, lam_indices)
        object.__setattr__(self, "_lam_indices", lam_indices)
        object.__setattr__(self, "_chi_geo_indices", chi)
        object.__setattr__(self, "_f_indices", f)


def make_params(n: int, field, lam) -> CharacterParams:
    return CharacterParams(n, field, tuple(field(x) for x in lam))


# ---------------------------------------------------------------------------
# The section algebra F[Z]/(Z^{n+2}), on element indices.
#
# A section vector enters as field elements and leaves as field elements;
# in between every coefficient is its index in F_q (`FqElement.v`) and the
# arithmetic is on the field's tables.  exp and log are the O(n^2)
# recurrences that follow from E' = X' E and (1 + X) L' = X' for E = exp(X)
# and L = log(1 + X) (Knuth, TAOCP vol. 2, 4.7); each step is one
# `_dot`.  They divide by k <= n+1 only, which `_require_char` makes a
# unit, and read each 1/k from one cached tuple per (p, n).

def _indices(field, xs):
    """The indices of the elements xs of `field` (ints are read as field(x))."""
    t = field._tables
    return [x.v if x.__class__ is FqElement and x.field._tables is t else field(x).v for x in xs]


def _elements(field, vs):
    return [field.from_index(v) for v in vs]


def _trunc_mul(tab, n, a, b):
    """X Y for index vectors of Z-coefficients (index r-1 <-> Z_r); the
    terms past Z_{n+1} are dropped.  The coefficient of Z_{m+1} is the dot
    product of a with b[:m] reversed, which zip stops after m pairs."""
    return [_dot(tab, a, reversed(b[:m])) for m in range(n + 1)]


@lru_cache(maxsize=None)
def _inverses(p, n):
    """(1/1, 1/2, ..., 1/(n+1)) mod p: for k < p, 1/k lies in F_p, so these
    are also its indices in every F_{p^e}."""
    return tuple(pow(k, -1, p) for k in range(1, n + 2))


def _airy_indices(tab, n, lam):
    """The indices of the coefficients of chi_geometric(m) = sum (lambda_r/r)
    m^r + (n/(n+1)) m^{n+1} and of f(m) = sum (lambda_r/r) m^r -
    m^{n+1}/(n+1), constant term first, from one list of lambda_r/r for
    lambda's indices `lam` (each 1/k from `_inverses`; n < p is its index)."""
    exp, log = tab.exp, tab.log
    inv = _inverses(tab.p, n)
    low = [0] * (n + 1)
    for r, v in enumerate(lam, start=1):
        low[r] = exp[log[v] + log[inv[r - 1]]] if v else 0
    return low + [exp[log[n] + log[inv[n]]]], low + [tab.neg[inv[n]]]


def _exp_series(tab, n, x):
    """The Z-coefficients e_1..e_{n+1} of exp(X) for X = sum x_r Z^r, on
    indices, by k e_k = sum_{j=1..k} (j x_j) e_{k-j} with e_0 = 1.  An
    integer j < p is its own index; 1 <= k <= n+1 < p is invertible."""
    jx = [_mul(tab, j, v) for j, v in enumerate(x, start=1)]
    e = [1]
    for inv in _inverses(tab.p, n):
        e.append(_mul(tab, inv, _dot(tab, jx, reversed(e))))  # (j x_j) e_{k-j}, j = 1..k
    return e[1:]


def _log_series(tab, n, x):
    """The Z-coefficients l_1..l_{n+1} of log(1 + X) for X = sum x_r Z^r,
    on indices, by k l_k = k x_k + sum_{j<k} (j l_j) (-x_{k-j})."""
    minus_x = [tab.neg[v] for v in x]
    jl = []  # jl[j-1] is the index of j l_j
    for k in range(1, n + 2):
        jl.append(_dot(tab, jl, reversed(minus_x[:k - 1]), _mul(tab, k, x[k - 1])))
    return [_mul(tab, inv, v) for inv, v in zip(_inverses(tab.p, n), jl)]


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
    y = log of the section, on indices: one dot product of lambda with y,
    started at n y_{1+n} (n < p is its own index)."""
    n, field = params.n, params.field
    tab = field._tables
    y = _log_series(tab, n, _indices(field, x))
    return field.from_index(_dot(tab, params._lam_indices, y, _mul(tab, n, y[n])))


def chi_geometric(params: CharacterParams, m1):
    """Closed form sum (lambda_r/r) m1^r + (n/(1+n)) m1^{1+n}."""
    return poly_eval(params.field, params._chi_geo_indices, m1)


def chi_geometric_row(params: CharacterParams) -> list:
    """The indices of chi_geometric(params, m1) for every m1 of the field,
    in index order: one `_horner` row over all of F_q."""
    tab = params.field._tables
    return _horner(tab, params._chi_geo_indices, range(tab.q))


def geometric_section(params: CharacterParams, m1):
    """Id + sum_{r=1}^{n/2} m1^r Z_r, the element chi_geometric evaluates."""
    n, field = params.n, params.field
    m1 = field(m1) if isinstance(m1, int) else m1
    x = [field(0)] * (n + 1)
    for r in range(1, n // 2 + 1):
        x[r - 1] = m1 ** r
    return x


def hecke_forms(n: int, tab, m1: int):
    """p_1 and p_2 at first coordinate m1, as affine forms in the tail
    (m_2, ..., m_{1+n/2}), on element indices over the tables `tab`:

        p_2(m) = -sum_{r=2}^{1+n/2} m_r m1^{n/2-r+1}
        p_1(m) = chi_geometric(m1) - m1^{n+1} - sum_{r=2}^{1+n/2} m_r m1^{n/2-r+2}

    Returns (c, w1, w2): c is the index of -m1^{n+1}, and w1[r-2], w2[r-2]
    are those of the coefficients of m_r in p_1 and p_2.  chi_geometric(m1),
    the only term that depends on lambda, is added by the caller.
    """
    _require_even(n)
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
    index i <-> m^i, as field elements built from `params._f_indices`;
    degree exactly n+1, as `_require_char` makes -1/(n+1) a unit."""
    return _elements(params.field, params._f_indices)


def _horner(tab, coeffs, xs) -> list:
    """[sum c_i x^i for x in xs], by Horner's rule on element indices: coeffs
    are the indices of c_0, c_1, ... and xs a row of indices.  Each point
    runs its own loop over the coefficients, so a row of one costs what one
    point does; products and sums read the log, antilog and Zech tables
    inline, as `arith._dot` does."""
    exp, log, zech = tab.exp, tab.log, tab.zech
    down = coeffs[::-1]
    at_zero = coeffs[0] if coeffs else 0
    out = []
    for x in xs:
        if not x:
            out.append(at_zero)
            continue
        lx, acc = log[x], 0
        for c in down:  # acc <- acc x + c
            if acc:
                acc = exp[log[acc] + lx]
                if c:
                    la = log[acc]
                    z = zech[log[c] - la]
                    acc = exp[la + z] if z >= 0 else 0
            else:
                acc = c
        out.append(acc)
    return out


def poly_eval(field, coeffs, x):
    """sum c_i x^i, the one-point read of `_horner`: coeffs are the indices
    (`FqElement.v`) of c_0, c_1, ..., and x is a field element or an int."""
    (v,) = _indices(field, (x,))
    return field.from_index(_horner(field._tables, coeffs, (v,))[0])
