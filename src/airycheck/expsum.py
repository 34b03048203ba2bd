"""Exact exponential sums: Airy trace tables and Hecke eigenvalue traces.

There are two table builders, and every trace check compares them:
`airy_trace_table`, Katz's Airy sum in closed form over F_q, and
`hecke_trace_table`, the Hecke eigenvalue trace as the brute fiber sum
over the maps p_1, p_2, an oracle independent of the Airy sum.

All character sums are computed in Z[zeta_p]; equality of tables is exact.
Floats only enter through the Weil-bound checks.  The sums are loops over
element indices (`FqElement.v`) that bin counts by trace, read from the
field's `FqTables`.  The brute fiber sum visits every point of
F_q^{1+n/2}: per m_1 it takes p_1 and p_2 as the affine forms of
`gln_airy.hecke_forms` and evaluates them on each tail with the index-level
`arith._mul` and `arith._add`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import CyclotomicValue, FqField, _add, _mul, fq_tables
from .gln_airy import CharacterParams, chi_geometric, f_poly, hecke_forms, make_params, poly_eval

BRUTE_BUDGET = 10 ** 7


def _counts_to_cyclo(p: int, counts) -> CyclotomicValue:
    """sum_c counts[c] * zeta^c with the zeta^{p-1} relation applied."""
    k = counts[p - 1]
    return CyclotomicValue(p, [counts[c] - k for c in range(p - 1)])


def _trace_sums(field, f_coeffs) -> dict:
    """{t: -sum_{x in F_q} psi(Tr(f(x) + t x))} for every t.

    Tr(f(x) + t x) = Tr(f(x)) + Tr(t x) mod p, and for x = g^k, t = g^l the
    second term is Tr(g^(k+l)); so each t is one pass that adds two traces
    read from tables, with no field arithmetic.
    """
    p = field.p
    tab = fq_tables(p, field.e)
    q, exp, log, trace = tab.q, tab.exp, tab.log, tab.trace
    els = field.elements()
    tr_f = [trace[poly_eval(field, f_coeffs, x).v] for x in els]
    tr_f_by_log = [tr_f[i] for i in exp[: q - 1]]  # Tr(f(g^k)), k < q-1
    tr_exp = [trace[i] for i in exp]  # Tr(g^k), k < 2(q-1)
    zero_row = [0] * (q - 1)
    entries = {}
    for t in els:
        row = tr_exp[log[t.v]: log[t.v] + q - 1] if t.v else zero_row
        counts = [0] * (2 * p)
        counts[tr_f[0]] += 1  # x = 0
        for a, b in zip(tr_f_by_log, row):
            counts[a + b] += 1
        folded = [counts[c] + counts[c + p] for c in range(p)]
        entries[t] = -_counts_to_cyclo(p, folded)
    return entries


@dataclass
class TraceTable:
    q: int
    n: int
    lam: tuple
    f_coeffs: tuple
    entries: dict  # field element -> CyclotomicValue
    provenance: str

    def scaled(self, factor: CyclotomicValue, provenance: str) -> "TraceTable":
        return TraceTable(
            self.q,
            self.n,
            self.lam,
            self.f_coeffs,
            {a: factor * v for a, v in self.entries.items()},
            provenance,
        )

    def __eq__(self, other):
        return (
            isinstance(other, TraceTable)
            and self.q == other.q
            and self.entries == other.entries
        )


def airy_trace_table(f_coeffs, p: int, e: int, lam=()) -> TraceTable:
    """Entry at t is -sum_{x in F_q} psi(Tr(f(x) + t x))."""
    n = len(f_coeffs) - 2
    if n < 1 or not f_coeffs[-1]:
        raise ValueError("f must have degree n + 1 >= 2")
    if (n + 1) % p == 0:
        raise ValueError("p must not divide deg f")
    entries = _trace_sums(FqField(p, e), f_coeffs)
    return TraceTable(p ** e, n, tuple(lam), tuple(f_coeffs), entries, "airy")


def _brute_table_entries(params: CharacterParams):
    """(-1)^{n-1} sum over the fiber p_2(m) = a of psi(Tr(p_1(m))), for
    every a at once: one pass over all of F_q^{1+n/2}, binning the trace of
    p_1 by the index of p_2.

    Per m_1 the Hecke maps are the affine forms of `hecke_forms` in the
    tail (m_2, ..., m_{1+n/2}); every point is evaluated on element indices,
    with `_mul` and `_add` reading the field's tables.
    """
    field, n = params.field, params.n
    q = field.q
    if q ** (1 + n // 2) > BRUTE_BUDGET:
        raise ValueError("brute-force fiber enumeration exceeds budget")
    p = field.p
    tab = fq_tables(p, field.e)
    trace = tab.trace
    tails = list(itertools.product(range(q), repeat=n // 2))
    counts = [[0] * p for _ in range(q)]
    for m1 in field.elements():
        c, w1, w2 = hecke_forms(n, field, m1.v)
        c = _add(tab, chi_geometric(params, m1).v, c)
        for tail in tails:
            a1, a2 = c, 0
            for x, y1, y2 in zip(tail, w1, w2):
                a1 = _add(tab, a1, _mul(tab, x, y1))
                a2 = _add(tab, a2, _mul(tab, x, y2))
            counts[a2][trace[a1]] += 1
    entries = {a: _counts_to_cyclo(p, c) for a, c in zip(field.elements(), counts)}
    return entries if n % 2 == 1 else {a: -v for a, v in entries.items()}


def _require_brute(brute):
    # The closed form of the Hecke trace would be the twisted Airy table
    # itself, so the brute fiber sum is the only Hecke table; the keyword
    # stays for callers that pass brute=True (perfbench/workloads.py).
    if brute is not True:
        raise ValueError("the Hecke trace table is the brute fiber sum; brute must be True")


def hecke_trace_table(params: CharacterParams, brute: bool = True) -> TraceTable:
    """The Hecke eigenvalue trace at every a, as the brute fiber sum."""
    _require_brute(brute)
    return TraceTable(
        params.field.q,
        params.n,
        params.lam,
        tuple(f_poly(params)),
        _brute_table_entries(params),
        "hecke-brute",
    )


@dataclass
class Verdict:
    ok: bool
    detail: dict


def compare_traces(n: int, p: int, e: int, lam, brute: bool = True) -> Verdict:
    """Exact cyclotomic comparison of the Hecke eigenvalue trace, as the
    brute fiber sum, with the Airy trace twisted by q^{n/2-1}."""
    _require_brute(brute)
    field = FqField(p, e)
    params = make_params(n, field, lam)
    q = p ** e
    hecke = hecke_trace_table(params)
    airy = airy_trace_table(f_poly(params), p, e, lam=params.lam)
    twist = CyclotomicValue(p, [q ** (n // 2 - 1)] + [0] * (p - 2))
    twisted = airy.scaled(twist, "airy-twisted")
    mismatches = [a for a in field.elements() if hecke.entries[a] != twisted.entries[a]]
    detail = {
        "n": n,
        "p": p,
        "e": e,
        "lambda": [str(x) for x in params.lam],
        "brute_mismatches": len(mismatches),
    }
    return Verdict(not mismatches, detail)


def weil_check(table: TraceTable, slack: float = 1e-6) -> Verdict:
    """|entry| <= n sqrt(q) for every entry of an Airy table (up to float
    slack); scaled tables are checked against the scaled bound."""
    bound = table.n * math.sqrt(table.q)
    if table.provenance in ("hecke-brute", "airy-twisted"):
        bound *= table.q ** (table.n // 2 - 1)
    worst = 0.0
    for v in table.entries.values():
        worst = max(worst, abs(v.embed()))
    return Verdict(worst <= bound + slack, {"worst": worst, "bound": bound})
