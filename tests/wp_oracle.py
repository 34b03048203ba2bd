"""The w_P lift as the library once built it, the reference its tests check
`chevalley.wP_representative` against: the product of the simple-reflection
lifts along `weyl_wP(rd, mu).word`, the unreduced concatenation
w_{P,0} w_0, then corrected by the torus element t with alpha_i(t) the
coefficient of M X_{-1} at -alpha_i, on field elements (1/x, not a sign).
The simple-reflection lifts are built here too, as the library once built
them, by exp(ad) series on the bracket table.  So the oracle shares with the
library only its inputs: the bracket table, X_{-1} and the word of w_P."""

from functools import lru_cache

from airycheck import VerificationError
from airycheck.chevalley import x_minus1
from airycheck.rootdata import weyl_wP


def _exp_ad_basis(alg, i, t, v):
    """exp(t ad b_i) v for t = +-1 and an integral sparse vector v
    ({index: int}), over the integers.

    The series sum_k t^k ad_{b_i}^k(v)/k! is finite since b_i is a root
    vector, and each term is integral on the Chevalley lattice (Kostant's
    Z-form); each ad_{b_i} step reads the table entries [b_i, b_j].
    """
    ad_i = alg.table[i]
    out = dict(v)
    term = v
    k = 0
    while term:
        k += 1
        if k > alg.dim:
            raise ValueError("ad of a root vector is not nilpotent")
        nxt = {}
        for j, c in term.items():
            for l, d in ad_i.get(j, {}).items():
                nxt[l] = nxt.get(l, 0) + c * d
        term = {}
        for l, c in nxt.items():
            q, rem = divmod(t * c, k)
            if rem:
                raise VerificationError("ad_e^k/k! is not integral")
            if q:
                term[l] = q
                out[l] = out.get(l, 0) + q
    return {l: c for l, c in out.items() if c}


@lru_cache(maxsize=None)
def series_reflection(alg, i):
    """Ad lift exp(ad e) exp(-ad f) exp(ad e) of s_i, e = e_{alpha_i} and
    f = e_{-alpha_i}, as sparse integer columns ((row, entry), ...) in row
    order: column j is the image of b_j, built from brackets."""
    rd = alg.rd
    e = rd.root_index[rd.simple_roots[i]]
    f = rd.neg[e]
    cols = []
    for j in range(alg.dim):
        v = {j: 1}
        for idx, t in ((e, 1), (f, -1), (e, 1)):
            v = _exp_ad_basis(alg, idx, t, v)
        cols.append(tuple(sorted(v.items())))
    return tuple(cols)


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
        for col in series_reflection(alg, i):
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
