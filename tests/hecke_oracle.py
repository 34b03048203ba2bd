"""The Hecke-kernel maps p_1 and p_2 restated with field operators, and the
field trace and additive character psi.

A test oracle for `gln_airy.hecke_forms` and for the brute trace table that
evaluates those forms on element indices: it shares no code with either,
and writes chi_geometric out too.  m = (m_1, ..., m_{1+n/2}) are elements
of params.field.  The per-fiber oracle sums psi(Tr p_1) one point at a
time, where the library bins points by trace.
"""

from airycheck.arith import CyclotomicValue, FqElement


def trace(x):
    """Field trace of an F_q element down to F_p, as an integer in [0, p):
    read from the field's trace table."""
    return x.field._tables.trace[x.v]


def psi(p, x):
    """Additive character of F_p valued in Z[zeta_p]: x -> zeta_p^x, composed
    with the field trace for field-element arguments."""
    if isinstance(x, FqElement):
        x = trace(x)
    return CyclotomicValue.zeta_pow(p, x)


def p2(n, field, m):
    """p_2(m) = -sum_{r=2}^{1+n/2} m_r m_1^{n/2-r+1}."""
    m1 = m[0]
    return -sum((m[r - 1] * m1 ** (n // 2 - r + 1) for r in range(2, n // 2 + 2)), field(0))


def p1(params, m):
    """p_1(m) = chi_geometric(m_1) - m_1^{n+1} - sum_{r=2}^{1+n/2} m_r m_1^{n/2-r+2},
    with chi_geometric(m_1) = sum_{r<=n/2} (lambda_r/r) m_1^r + (n/(n+1)) m_1^{n+1}."""
    n, field = params.n, params.field
    m1 = m[0]
    chi = sum((lam / field(r) * m1 ** r for r, lam in enumerate(params.lam, start=1)),
              field(n) / field(n + 1) * m1 ** (n + 1))
    tail = sum((m[r - 1] * m1 ** (n // 2 - r + 2) for r in range(2, n // 2 + 2)), field(0))
    return chi - m1 ** (n + 1) - tail
