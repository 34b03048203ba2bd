"""The w_P lift as the library once built it, the reference its tests check
`chevalley.wP_representative` against: the product of the simple-reflection
lifts along `weyl_wP(rd, mu).word`, the unreduced concatenation
w_{P,0} w_0, then corrected by the torus element t with alpha_i(t) the
coefficient of M X_{-1} at -alpha_i, on field elements (1/x, not a sign).
It shares with the library only its inputs: the simple-reflection lifts,
X_{-1} and the word of w_P."""

from airycheck import VerificationError
from airycheck.chevalley import _simple_reflection_ad, x_minus1
from airycheck.rootdata import weyl_wP


def _apply(cols, v, zero):
    out = [zero] * len(cols)
    for j, vj in enumerate(v):
        if vj:
            for k, c in cols[j]:
                out[k] = out[k] + c * vj
    return out


def wp_lift(alg, mu):
    """The torus-corrected lift as sparse columns ((row, entry), ...) with
    entries in the field, each column's rows in the order the product
    reaches them."""
    rd = alg.rd
    one, zero = alg.field(1), alg.field(0)
    M = tuple(((j, 1),) for j in range(alg.dim))
    for i in weyl_wP(rd, mu).word:
        out = []
        for col in _simple_reflection_ad(alg, i):
            acc = {}
            for k, c in col:
                for r, m in M[k]:
                    acc[r] = acc.get(r, 0) + m * c
            out.append(tuple((r, x) for r, x in acc.items() if x))
        M = tuple(out)
    x = x_minus1(alg)
    v = _apply(M, x, zero)
    support = {i: c for i, c in enumerate(v) if c}
    if any(i >= 2 * alg.npos for i in support):
        raise VerificationError("w_P lift moves X_{-1} into the Cartan")
    minus_simples = [rd.neg[rd.root_index[a]] for a in rd.simple_roots]
    theta = rd.root_index[rd.theta]
    if set(support) != {*minus_simples, theta}:
        raise VerificationError("w_P lift does not map X_{-1} onto -Delta and theta")
    xs = [support[a] for a in minus_simples]
    theta_t = one
    for xi, ci in zip(xs, rd.theta):
        for _ in range(ci):
            theta_t = theta_t * xi
    if theta_t * support[theta] != one:
        raise VerificationError("torus correction infeasible")
    diag = []
    for i in range(alg.dim):
        b = one
        if i < 2 * alg.npos:
            for xi, ci in zip(xs, rd.roots[i]):
                for _ in range(abs(ci)):
                    b = b * xi if ci > 0 else b / xi
        diag.append(b)
    M = tuple(tuple((r, y) for r, c in col if (y := diag[r] * c)) for col in M)
    if tuple(_apply(M, x, zero)) != x:
        raise VerificationError("Ad of the w_P lift does not fix X_{-1}")
    return M
