"""Exact exponential sums: Airy trace tables and Hecke eigenvalue traces.

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
import json
import math
import os
from dataclasses import dataclass

from .arith import CyclotomicValue, FqField, _add, _mul, fq_tables
from .gln_airy import CharacterParams, chi_geometric, f_poly, hecke_forms, make_params, poly_eval

BRUTE_BUDGET = 10 ** 7


def _counts_to_cyclo(p: int, counts) -> CyclotomicValue:
    """sum_c counts[c] * zeta^c with the zeta^{p-1} relation applied."""
    k = counts[p - 1]
    return CyclotomicValue(p, [counts[c] - k for c in range(p - 1)])


def _trace_sums(field, f_coeffs, scale: int = 1) -> dict:
    """{t: -scale * sum_{x in F_q} psi(Tr(f(x) + t x))} for every t.

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
        folded = [scale * (counts[c] + counts[c + p]) for c in range(p)]
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


def _read_cached_entries(path: str, key: str, q: int, p: int):
    """The entry rows stored at `path`, or None unless the file is readable
    JSON with this key, exactly q entries and p-1 integers in each."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):  # missing, unreadable, or not JSON
        return None
    if not isinstance(data, dict) or data.get("key") != key:
        return None
    rows = data.get("entries")
    if not isinstance(rows, list) or len(rows) != q:
        return None
    for row in rows:
        if not (isinstance(row, list) and len(row) == p - 1
                and all(type(c) is int for c in row)):
            return None
    return rows


def cached_airy_table(f_coeffs, p: int, e: int, lam=()) -> TraceTable:
    """airy_trace_table, consulting the AIRY_CACHE_DIR directory if set.

    A cache file that does not hold exactly this table's shape (key, q
    entries of length p-1) is rebuilt and rewritten, never trusted.
    """
    cache_dir = os.environ.get("AIRY_CACHE_DIR")
    if not cache_dir:
        return airy_trace_table(f_coeffs, p, e, lam=lam)
    key = json.dumps([p, e, [list(c.coeffs) for c in f_coeffs]])
    import hashlib  # here, not at the top: loading it costs every process ~3 MB

    name = "airy-" + hashlib.sha256(key.encode()).hexdigest()[:24] + ".json"
    path = os.path.join(cache_dir, name)
    els = FqField(p, e).elements()
    rows = _read_cached_entries(path, key, len(els), p)
    if rows is not None:
        entries = {t: CyclotomicValue(p, coeffs) for t, coeffs in zip(els, rows)}
        n = len(f_coeffs) - 2
        return TraceTable(p ** e, n, tuple(lam), tuple(f_coeffs), entries, "airy")
    table = airy_trace_table(f_coeffs, p, e, lam=lam)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {"key": key, "entries": [list(table.entries[t].coeffs) for t in els]}, fh
        )
    return table


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


def hecke_trace_table(params: CharacterParams, brute: bool = False) -> TraceTable:
    q = params.field.q
    f = f_poly(params)
    if brute:
        entries = _brute_table_entries(params)
    else:
        entries = _trace_sums(params.field, f, scale=q ** (params.n // 2 - 1))
    return TraceTable(
        q,
        params.n,
        params.lam,
        tuple(f),
        entries,
        "hecke-brute" if brute else "hecke-closed",
    )


@dataclass
class Verdict:
    ok: bool
    detail: dict


def compare_traces(n: int, p: int, e: int, lam, brute: bool = True) -> Verdict:
    """Exact cyclotomic comparison of the Hecke eigenvalue trace with the
    Tate-twisted Airy trace, and (optionally) with the brute-force fiber sum.
    """
    field = FqField(p, e)
    params = make_params(n, field, lam)
    q = p ** e
    closed = hecke_trace_table(params)
    airy = airy_trace_table(f_poly(params), p, e, lam=params.lam)
    twist = CyclotomicValue(p, [q ** (n // 2 - 1)] + [0] * (p - 2))
    twisted = airy.scaled(twist, "airy-twisted")
    mismatches = [a for a in field.elements() if closed.entries[a] != twisted.entries[a]]
    detail = {
        "n": n,
        "p": p,
        "e": e,
        "lambda": [str(x) for x in params.lam],
        "tate_mismatches": len(mismatches),
    }
    ok = not mismatches
    if brute:
        brute_tab = hecke_trace_table(params, brute=True)
        bm = [a for a in field.elements() if closed.entries[a] != brute_tab.entries[a]]
        detail["brute_mismatches"] = len(bm)
        ok = ok and not bm
    return Verdict(ok, detail)


def weil_check(table: TraceTable, slack: float = 1e-6) -> Verdict:
    """|entry| <= n sqrt(q) for every entry of an Airy table (up to float
    slack); scaled tables are checked against the scaled bound."""
    bound = table.n * math.sqrt(table.q)
    if table.provenance in ("hecke-closed", "hecke-brute", "airy-twisted"):
        bound *= table.q ** (table.n // 2 - 1)
    worst = 0.0
    for v in table.entries.values():
        worst = max(worst, abs(v.embed()))
    return Verdict(worst <= bound + slack, {"worst": worst, "bound": bound})
