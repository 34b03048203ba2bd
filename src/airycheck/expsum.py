"""Exact exponential sums: Airy trace tables and Hecke eigenvalue traces.

There are two table builders, and every trace check compares them:
`airy_trace_table`, Katz's Airy sum in closed form over F_q, and
`hecke_trace_table`, the Hecke eigenvalue trace as the brute fiber sum
over the maps p_1, p_2, an oracle independent of the Airy sum.

All character sums are computed in Z[zeta_p]; equality of tables is exact.
Floats only enter through the Weil-bound checks.  Both sums are row
kernels on element indices (`FqElement.v`): each step handles all of F_q
at once with list comprehensions over the field's `FqTables`, and the
points are binned by trace with `collections.Counter`.

- The Airy sum reads Tr f(g^k) for every k as a sum of monomial rows
  Tr(c_i g^(ik)), each a strided walk round the antilog table, and counts
  Tr f(x) + Tr(t x) for each t with one `Counter`.
- The brute fiber sum visits every point of F_q^{1+n/2}: per m_1 it takes
  p_1 and p_2 as the affine forms of `gln_airy.hecke_forms` and extends
  their partial sums one tail coordinate at a time, adding the row
  x -> x w of that coordinate's coefficient w by Zech logarithms
  (`_mul_row`, `_add_rows`).  Each point's p_1 and p_2 are field-element
  indices, binned once by (p_2, Tr p_1).
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add

from . import Record
from .arith import CyclotomicValue, FqField, _add, fq_tables
from .gln_airy import CharacterParams, chi_geometric, f_poly, hecke_forms, make_params

BRUTE_BUDGET = 10 ** 7


def _counts_to_cyclo(p: int, counts) -> CyclotomicValue:
    """sum_c counts[c] * zeta^c with the zeta^{p-1} relation applied."""
    k = counts[p - 1]
    return CyclotomicValue(p, [counts[c] - k for c in range(p - 1)])


def _trace_sums(field, f_coeffs) -> dict:
    """{t: -sum_{x in F_q} psi(Tr(f(x) + t x))} for every t.

    For x = g^k, Tr f(x) = sum_i Tr(c_i g^(ik)): the row k -> Tr(c_i g^k)
    is the traces of the antilog table from log c_i on, and reading it with
    stride i (mod q-1) gives the monomial's row.  Tr(t x) = Tr(g^(k + log t))
    is a slice of the same traces.  The sums stay unreduced ints until the
    counts are folded mod p.
    """
    p = field.p
    tab = fq_tables(p, field.e)
    m, log = tab.q - 1, tab.log
    tr_exp = [tab.trace[i] for i in tab.exp]  # Tr(g^k), k < 2(q-1)
    c = [field(x).v for x in f_coeffs]
    tr_f = [0] * m  # Tr(f(g^k) - f(0)), k < q-1
    for i in range(1, len(c)):
        if c[i]:
            row = tr_exp[log[c[i]]: log[c[i]] + m]
            tr_f = list(map(add, tr_f, (row * i)[::i]))
    tr_f0 = tab.trace[c[0]]
    entries = {}
    for t in field.elements():
        counts = Counter(map(add, tr_f, tr_exp[log[t.v]: log[t.v] + m]) if t.v else tr_f)
        folded = [0] * p
        for s, k in counts.items():
            folded[(s + tr_f0) % p] += k
        folded[tr_f0] += 1  # x = 0
        entries[t] = -_counts_to_cyclo(p, folded)
    return entries


class TraceTable(Record):
    _fields = ("q", "n", "lam", "f_coeffs", "entries", "provenance")

    def __init__(self, q: int, n: int, lam: tuple, f_coeffs: tuple, entries: dict,
                 provenance: str):
        self.q = q
        self.n = n
        self.lam = lam
        self.f_coeffs = f_coeffs
        self.entries = entries  # field element -> CyclotomicValue
        self.provenance = provenance

    def scaled(self, factor, provenance: str) -> "TraceTable":
        """Every entry times `factor`, an int or a CyclotomicValue."""
        return TraceTable(
            self.q,
            self.n,
            self.lam,
            self.f_coeffs,
            {a: v * factor for a, v in self.entries.items()},
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


def _mul_row(tab, w: int) -> list:
    """[x w for x in F_q], x in index order: the row x -> x w, read off the
    log and antilog tables."""
    if not w:
        return [0] * tab.q
    exp, lw = tab.exp, tab.log[w]
    return [0] + [exp[lx + lw] for lx in tab.log[1:]]


def _add_rows(tab, sums: list, row: list) -> list:
    """[a + b for a in sums for b in row]: every partial sum extended by the
    whole row, each sum by Zech logarithms (a + b = g^(log a +
    zech[log b - log a]), zero where the Zech entry is -1)."""
    exp, log, zech = tab.exp, tab.log, tab.zech
    return [
        b if not a else a if not b else exp[la + z] if (z := zech[log[b] - la]) >= 0 else 0
        for a in sums
        for la in (log[a],)
        for b in row
    ]


def _brute_table_entries(params: CharacterParams):
    """(-1)^{n-1} sum over the fiber p_2(m) = a of psi(Tr(p_1(m))), for
    every a at once: one pass over all of F_q^{1+n/2}, binning the trace of
    p_1 by the index of p_2.

    Per m_1 the Hecke maps are the affine forms of `hecke_forms` in the
    tail (m_2, ..., m_{1+n/2}).  Their values at every tail are built one
    coordinate at a time: the partial sums of p_1 and of p_2 are each
    extended by the row x -> x w of that coordinate's coefficient, in the
    same order, so the two lists stay aligned point by point.
    """
    field, n = params.field, params.n
    q = field.q
    if q ** (1 + n // 2) > BRUTE_BUDGET:
        raise ValueError("brute-force fiber enumeration exceeds budget")
    p = field.p
    tab = fq_tables(p, field.e)
    bins = Counter()  # (index of p_2, Tr p_1) -> points
    for m1 in field.elements():
        c, w1, w2 = hecke_forms(n, field, m1.v)
        p1, p2 = [_add(tab, chi_geometric(params, m1).v, c)], [0]
        for y1, y2 in zip(w1, w2):
            p1 = _add_rows(tab, p1, _mul_row(tab, y1))
            p2 = _add_rows(tab, p2, _mul_row(tab, y2))
        bins.update(zip(p2, map(tab.trace.__getitem__, p1)))
    counts = [[0] * p for _ in range(q)]
    for (a, tr), k in bins.items():
        counts[a][tr] += k
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


class Verdict(Record):
    _fields = ("ok", "detail")

    def __init__(self, ok: bool, detail: dict):
        self.ok = ok
        self.detail = detail


def compare_traces(n: int, p: int, e: int, lam, brute: bool = True) -> Verdict:
    """Exact cyclotomic comparison of the Hecke eigenvalue trace, as the
    brute fiber sum, with the Airy trace twisted by q^{n/2-1}."""
    _require_brute(brute)
    field = FqField(p, e)
    params = make_params(n, field, lam)
    q = p ** e
    hecke = hecke_trace_table(params)
    airy = airy_trace_table(f_poly(params), p, e, lam=params.lam)
    twisted = airy.scaled(q ** (n // 2 - 1), "airy-twisted")
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
