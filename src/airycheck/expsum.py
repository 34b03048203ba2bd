"""Exact exponential sums: Airy trace tables and Hecke eigenvalue traces.

There are two table builders, and every trace check compares them:
`airy_trace_table`, Katz's Airy sum in closed form over F_q, and
`hecke_trace_table`, the Hecke eigenvalue trace as the brute fiber sum
over the maps p_1, p_2, an oracle independent of the Airy sum.  The
verdict, `compare_traces`, reads both off its `CharacterParams`: the Airy
entries by `_airy_entries` at `params._f_indices`, the Hecke entries by
`_brute_table_entries`; the public builders front the same readers, each
public entry refuses its budget once, and a `TraceTable` holds no f.

All character sums are computed in Z[zeta_p]; equality of tables is exact.
Floats only enter through the Weil-bound checks.  A table's entries are a
tuple in index order, entry i the value at `field.from_index(i)`: readers
zip or iterate it, and only the CLI names the elements.  Both sums are row
kernels on the element indices of `fq_tables(p, e)`, from the coefficient
indices in to the entries out, and build no field element per entry or
point: each step handles all of F_q at once with list comprehensions over
the tables, and the points are counted on residues mod p.  Both builders
end in one `_fold` of one packed int: 2p slots of unfolded counts per
entry, each slot an `array` item wide enough for twice an entry's total
(`_slot_typecode`), so that every count and every sum of a window's two
halves stays below the slot's top bit.  `_fold` adds the halves, applies
the zeta^(p-1) relation under a bias of 2^(w-1) per slot by mask, shift and
repunit product on the int, and reads the coefficients back as one signed
array; a count that reaches a top bit raises VerificationError.
`_add_rows` is one of the five readers of the Zech table, with
`arith._add`, `arith._dot`, `arith._eval_log_terms` and `gln_airy._horner`.

- The Airy sum (`_trace_sums`) counts Tr f(x) + Tr(t x) for every t, with
  Tr f(g^k) a sum of strided walks round the antilog table.  The linear
  coefficient c_1 of f only moves the Fourier variable, S_f(t) =
  S_{f - c_1 x}(t + c_1), so the Airy table of f is a cached base table
  (`_airy_base`, keyed on the coefficient indices with c_1 set to 0) read
  along the row t + c_1, or the base itself when c_1 = 0: every lambda of
  GL_2 at one (p, e) shares a base.  A refused input (degree, p | deg f,
  budget) is refused before the cache is read, so it is never cached.
- The brute fiber sum visits every point of F_q^{1+n/2}, extending the
  affine forms p_1, p_2 of `gln_airy.hecke_forms` one tail coordinate at a
  time by rows (`_mul_row`, `_add_rows`).  lambda enters only through
  chi(m_1), a constant for each m_1, and Tr is additive, so the points are
  enumerated once per (n, p, e), without chi, into packed histograms per
  m_1 (`_fiber_histograms`); each lambda shifts and adds them
  (`_brute_table_entries`).  The budget refusal comes before the cache is
  read.  `hecke_forms` writes p_1 - chi(m_1) = -m_1^{n+1} + m_1 p_2
  coefficient by coefficient (w1 = m_1 w2), and the enumeration checks that
  identity point by point: every point of the fiber p_2 = a over m_1 has
  Tr(p_1 - chi(m_1)) = Tr(a m_1 - m_1^{n+1}).  Nothing here derives p_1 and
  p_2 from the Hecke correspondence.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from operator import add, itemgetter

from . import Record, VerificationError
from .arith import CyclotomicValue, FqField, _cyclo, fq_tables
from .gln_airy import CharacterParams, _indices, chi_geometric_row, hecke_forms, make_params

BRUTE_BUDGET = 10 ** 7
WEIL_SLACK = 1e-6  # float error allowed in the Weil bound


@lru_cache(maxsize=None)
def _fold_masks(p: int, q: int, w: int) -> tuple:
    """The masks `_fold` reads on q windows of 2p slots of w bits: the low p
    slots of every window, slot 0 of every window, the repunit of p - 1
    slots, slots 0 to p - 2 of every window, the bias 2^(w-1) in each of
    those, and the top bit of every slot; built once per (p, q, w)."""
    windows = ((1 << 2 * p * q * w) - 1) // ((1 << 2 * p * w) - 1)  # 1 in slot 0 of each window
    rep = ((1 << (p - 1) * w) - 1) // ((1 << w) - 1)
    body = rep * windows
    every = ((1 << 2 * p * q * w) - 1) // ((1 << w) - 1)  # 1 in every slot
    return (((1 << p * w) - 1) * windows, ((1 << w) - 1) * windows, rep,
            body * ((1 << w) - 1), body << w - 1, every << w - 1)


def _fold(p: int, q: int, tc: str, acc: int) -> tuple:
    """The q entries of the unfolded counts packed in `acc`: window i, slots
    [2p i, 2p (i + 1)) of the `array` item width of typecode `tc`, holds the
    number of points of entry i at each unfolded sum in [0, 2p - 2].

    The two halves of every window are added by one mask and shift, giving
    the counts f_c of the sums c mod p; slot p - 1 of each window, times the
    repunit of p - 1 slots, puts k = f_{p-1} in slots 0 to p - 2 (the
    relation zeta^(p-1) = -(1 + ... + zeta^(p-2))); and k - f_c, the
    negated folded coefficient, is formed under a bias of 2^(w-1) per slot,
    so no slot borrows, and the bias is XORed away.  The int is read back
    as one signed array whose strided slices give each entry its p - 1
    coefficients.  This needs every unfolded and every folded count below
    2^(w-1), which a top-bit mask checks; otherwise VerificationError is
    raised, so a fold carry never goes through as a table.
    """
    w = 8 * array(tc).itemsize
    low, first, rep, body, bias, top = _fold_masks(p, q, w)
    if acc & top or acc >> 2 * p * q * w:
        raise VerificationError(f"an unfolded count reached the top bit of its {w}-bit slot")
    folded = (acc & low) + (acc >> p * w & low)
    if folded & top:
        raise VerificationError(f"a folded count reached the top bit of its {w}-bit slot")
    k = (folded >> (p - 1) * w & first) * rep
    vals = array(tc.lower(), (((k | bias) - (folded & body)) ^ bias).to_bytes(2 * p * q * w // 8, "little"))
    return tuple([_cyclo(p, v) for v in zip(*[vals[c:: 2 * p] for c in range(p - 1)])])


def _trace_sums(tab, c) -> tuple:
    """-sum_{x in F_q} psi(Tr(f(x) + t x)) for every t, in index order, for
    the f whose coefficients have the indices c over the tables `tab`.

    For x = g^k, Tr f(x) = Tr f(0) + sum_i Tr(c_i g^(ik)): the row
    k -> Tr(c_i g^k) is the traces of the antilog table from log c_i on, and
    reading it with stride i (mod q-1) gives the monomial's row.  The sum of
    the rows is reduced mod p once, so with Tr(t x) = Tr(g^(k + log t)), a
    slice of the same traces, each t's sums lie in [0, 2p - 2]: one
    increment loop counts them in a list of 2p ints, and the lists of every
    t, packed into one int in slots wide enough for twice the q points of a
    t, are folded and negated by `_fold`.
    """
    p, m, log = tab.p, tab.q - 1, tab.log
    tr_exp = [tab.trace[i] for i in tab.exp]  # Tr(g^k), k < 2(q-1)
    tr_f0 = tab.trace[c[0]]
    tr_f = [tr_f0] * m  # Tr f(g^k), k < q-1
    for i in range(1, len(c)):
        if c[i]:
            row = tr_exp[log[c[i]]: log[c[i]] + m]
            tr_f = list(map(add, tr_f, (row * i)[::i]))
    tr_f = [s % p for s in tr_f]
    flat = []
    for t in range(tab.q):
        counts = [0] * (2 * p)  # the number of x at each unfolded sum
        counts[tr_f0] = 1  # x = 0
        for s in map(add, tr_f, tr_exp[log[t]: log[t] + m]) if t else tr_f:
            counts[s] += 1
        flat += counts
    tc = _slot_typecode(tab.q)
    return _fold(p, tab.q, tc, int.from_bytes(array(tc, flat), "little"))


class TraceTable(Record):
    _fields = ("q", "n", "lam", "entries", "provenance")

    def __init__(self, q: int, n: int, lam: tuple, entries: tuple, provenance: str):
        self.q = q
        self.n = n
        self.lam = lam
        self.entries = entries  # CyclotomicValues, entry i at field.from_index(i)
        self.provenance = provenance

    def scaled(self, factor, provenance: str) -> "TraceTable":
        """Every entry times `factor`, an int or a CyclotomicValue."""
        return TraceTable(self.q, self.n, self.lam, tuple([v * factor for v in self.entries]), provenance)


def _exceeds_budget(p: int, e: int, k: int) -> bool:
    """(p^e)^k > BRUTE_BUDGET, from the numbers alone.  For p >= 2,
    2^(e k) <= p^(e k), so a large e k is refused before a power is formed;
    a p below 2 passes, for FqField to refuse."""
    if p < 2 or k < 1:
        return False
    return e * k >= BRUTE_BUDGET.bit_length() or p ** (e * k) > BRUTE_BUDGET


def require_airy_budget(p: int, e: int):
    """Refuse an Airy table over F_{p^e} past the budget before any field
    is built: it sums over q points for each of q entries."""
    if _exceeds_budget(p, e, 2):
        raise ValueError("Airy trace table exceeds budget")


def require_brute_budget(p: int, e: int, n: int):
    """Refuse the brute fiber sum of GL_n over F_{p^e} past the budget
    before any field is built: it visits every point of F_q^{1+n/2}."""
    if _exceeds_budget(p, e, 1 + n // 2):
        raise ValueError("brute-force fiber enumeration exceeds budget")


@lru_cache(maxsize=None)
def _airy_base(p: int, e: int, c: tuple) -> tuple:
    """The Airy table of the f with coefficient indices `c`, which has no
    linear term (c[1] = 0), as its entries in t-index order: `_trace_sums`
    runs once per (p, e, c)."""
    return _trace_sums(fq_tables(p, e), c)


def _airy_entries(field, c) -> tuple:
    """The Airy table of the f with coefficient indices `c` over `field`,
    as its entries in t-index order: with c_1 the linear coefficient, the
    entry at t is S_{f - c_1 x}(t + c_1), so the cached base of f - c_1 x
    (`_airy_base`, keyed on (p, e, c with c_1 set to 0)) is read along the
    row `_add_rows(tab, [c_1], range(q))` of the indices of t + c_1, or is
    the table itself when c_1 = 0.  It refuses nothing: its callers have."""
    entries = _airy_base(field.p, field.e, (c[0], 0, *c[2:]))
    if c[1]:
        entries = tuple([entries[i] for i in _add_rows(field._tables, [c[1]], range(field.q))])
    return entries


def airy_trace_table(f_coeffs, p: int, e: int, lam=()) -> TraceTable:
    """Entry at t is -sum_{x in F_q} psi(Tr(f(x) + t x)), read by
    `_airy_entries` off the indices of f's coefficients.  The degree,
    p | deg f and budget refusals come first, so a refused input is never
    cached."""
    n = len(f_coeffs) - 2
    if n < 1 or not f_coeffs[-1]:
        raise ValueError("f must have degree n + 1 >= 2")
    if (n + 1) % p == 0:
        raise ValueError("p must not divide deg f")
    require_airy_budget(p, e)
    field = FqField(p, e)
    return TraceTable(field.q, n, tuple(lam), _airy_entries(field, _indices(field, f_coeffs)), "airy")


@lru_cache(maxsize=None)
def _by_log(tab):
    """itemgetter(log 1, ..., log (q-1)) of the field of `tab`, q > 2:
    applied to a list indexed by discrete logs, it returns the entries in
    index order, built once per field."""
    return itemgetter(*tab.log[1:])


def _mul_row(tab, w: int) -> list:
    """[x w for x in F_q], x in index order: the row x -> x w.  The slice of
    the doubled antilog table from log w on holds g^k w at k, and `_by_log`
    puts it in index order."""
    if not w:
        return [0] * tab.q
    lw = tab.log[w]
    return [0, *_by_log(tab)(tab.exp[lw: lw + tab.q - 1])]


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


def _slot_typecode(total: int) -> str:
    """The smallest unsigned `array` typecode whose items hold twice
    `total`, the number of points of one entry: the headroom `_fold` needs,
    every count and every sum of two below the item's top bit.  Past the
    widest item, 64 bits, it raises ValueError."""
    for tc in "BHILQ":
        if 2 * total < 1 << 8 * array(tc).itemsize:
            return tc
    raise ValueError(f"twice an entry's {total} points reach the 64-bit slot limit")


@lru_cache(maxsize=None)
def _fiber_histograms(n: int, p: int, e: int) -> tuple:
    """The lambda-free half of the brute fiber sum of GL_n over F_{p^e}: per
    m_1, in index order, one int packing the histogram of the keys 2p (index
    of p_2) + Tr(p_1 - chi(m_1)) over the points (m_1, m_2, ..., m_{1+n/2})
    of F_q^{1+n/2}: key k is counted in slot k, the bits [k w, (k + 1) w)
    for w the item width in bits of `_slot_typecode(q^{n/2})`, which holds
    twice a fiber's size.

    Per m_1 the Hecke maps are the affine forms of `hecke_forms` in the
    tail (m_2, ..., m_{1+n/2}), without chi(m_1), the only term that depends
    on lambda.  Their values at every tail are built one coordinate at a
    time: the partial sums of p_1 and of p_2 are each extended by the row
    x -> x w of that coordinate's coefficient, in the same order, so the
    two lists stay aligned point by point; p_2 has no constant term, so its
    partial sums start as the first row.  Each m_1's keys are counted, point
    by point as the two lists are zipped, in an array of 2pq slots, read as
    one little-endian int.  The points must number q^{1+n/2}, and every slot
    must hold its count (an array item raises OverflowError past its range)
    below its top bit (`_fold_masks`), or VerificationError is raised;
    lru_cache does not cache an exception, so a short, overflowing or
    too narrow enumeration is never stored.
    """
    tab = fq_tables(p, e)
    q, trace, two_p = tab.q, tab.trace, 2 * p
    empty = array(_slot_typecode(q ** (n // 2)), [0]) * (two_p * q)
    w = 8 * empty.itemsize
    top = _fold_masks(p, q, w)[-1]
    hists, points = [], 0
    for m1 in range(q):
        c, w1, w2 = hecke_forms(n, tab, m1)
        p1 = _add_rows(tab, [c], _mul_row(tab, w1[0]))
        p2 = _mul_row(tab, w2[0])
        for y1, y2 in zip(w1[1:], w2[1:]):
            p1 = _add_rows(tab, p1, _mul_row(tab, y1))
            p2 = _add_rows(tab, p2, _mul_row(tab, y2))
        slots = empty[:]
        try:
            for a, x in zip(p2, p1):
                slots[two_p * a + trace[x]] += 1
        except OverflowError:
            raise VerificationError(f"a fiber's count overflowed its {w}-bit slot") from None
        points += len(p2)
        h = int.from_bytes(slots, "little")
        if h & top:
            raise VerificationError(f"a fiber's count reached the top bit of its {w}-bit slot")
        hists.append(h)
    if points != q ** (1 + n // 2):
        raise VerificationError(f"the brute fiber sum enumerated {points} of the q^{1 + n // 2} points")
    return tuple(hists)


def _brute_table_entries(params: CharacterParams):
    """-sum over the fiber p_2(m) = a of psi(Tr(p_1(m))), for every a at
    once ((-1)^{n-1} = -1, as n is even), from the cached histograms of
    (n, p, e) (`_fiber_histograms`).

    Tr is additive and chi(m_1) is constant on the points with first
    coordinate m_1, so each m_1's histogram moves up by Tr chi_lambda(m_1)
    slots, read for every m_1 off one `chi_geometric_row`; the histograms
    of the m_1 with one shift are added first, then the p sums are shifted
    and added, into one int of 2pq slots: 2p (index of p_2) + Tr p_1
    unfolded.  Every fiber has q^{n/2} points (p_2's coefficient of
    m_{1+n/2} is -1 for every m_1), half of what a slot holds, and a shift
    of at most p - 1 keeps each key in [0, 2p - 2] past its fiber's start,
    so no slot carries into the next; a carry would lower the total by
    2^w - 1.  The counts, read back as one array, must total q^{1+n/2}, or
    VerificationError is raised; `_fold` folds the int itself, in a-index
    order.  It refuses no budget: its callers have, before the cache is
    read.
    """
    field, n = params.field, params.n
    q, p = field.q, field.p
    trace = field._tables.trace
    hists = _fiber_histograms(n, p, field.e)
    tc = _slot_typecode(q ** (n // 2))
    counts = array(tc)
    w = 8 * counts.itemsize
    by_shift = [0] * p  # at s, the sum of the histograms of the m_1 with Tr chi(m_1) = s
    for h, chi in zip(hists, chi_geometric_row(params)):
        by_shift[trace[chi]] += h
    acc = 0
    for h in reversed(by_shift):
        acc = (acc << w) + h
    counts.frombytes(acc.to_bytes(2 * p * q * counts.itemsize, "little"))
    points = sum(counts)
    if points != q ** (1 + n // 2):
        raise VerificationError(f"the brute fiber sum counted {points} of the q^{1 + n // 2} points")
    return _fold(p, q, tc, acc)


def _require_brute(brute):
    # The closed form of the Hecke trace would be the twisted Airy table
    # itself, so the brute fiber sum is the only Hecke table; the keyword
    # stays for callers that pass brute=True (perfbench/workloads.py).
    if brute is not True:
        raise ValueError("the Hecke trace table is the brute fiber sum; brute must be True")


def hecke_trace_table(params: CharacterParams, brute: bool = True) -> TraceTable:
    """The Hecke eigenvalue trace at every a, as the brute fiber sum; the
    budget refusal comes before the cache is read."""
    _require_brute(brute)
    field = params.field
    require_brute_budget(field.p, field.e, params.n)
    return TraceTable(field.q, params.n, params.lam, _brute_table_entries(params), "hecke-brute")


class Verdict(Record):
    _fields = ("ok", "detail")

    def __init__(self, ok: bool, detail: dict):
        self.ok = ok
        self.detail = detail


def compare_traces(n: int, p: int, e: int, lam, brute: bool = True) -> Verdict:
    """Exact cyclotomic comparison of the Hecke eigenvalue trace, as the
    brute fiber sum, with the Airy trace of the same f twisted by q^{n/2-1},
    both read off the params: the brute entries of `_brute_table_entries`
    and the Airy entries of `_airy_entries` at `params._f_indices`.  For
    n = 2 the twist is 1 and the Airy entries are compared as they are.  A
    failed verdict names the first element whose entries differ."""
    _require_brute(brute)
    require_brute_budget(p, e, n)
    require_airy_budget(p, e)
    field = FqField(p, e)
    params = make_params(n, field, lam)
    airy = _airy_entries(field, params._f_indices)
    twist = field.q ** (n // 2 - 1)
    if twist != 1:
        airy = [v * twist for v in airy]
    pairs = zip(_brute_table_entries(params), airy, strict=True)
    mismatches = [i for i, (h, a) in enumerate(pairs) if h != a]
    detail = {
        "n": n,
        "p": p,
        "e": e,
        "lambda": [str(x) for x in params.lam],
        "brute_mismatches": len(mismatches),
    }
    if mismatches:
        detail["first_mismatch"] = str(field.from_index(mismatches[0]))
    return Verdict(not mismatches, detail)


def weil_check(table: TraceTable) -> Verdict:
    """|entry| <= n sqrt(q) for every entry of an Airy table (up to
    WEIL_SLACK); a table of any other provenance raises ValueError."""
    if table.provenance != "airy":
        raise ValueError(f"the Weil bound is checked on Airy tables, not {table.provenance!r}")
    bound = table.n * math.sqrt(table.q)
    worst = max(map(abs, map(CyclotomicValue.embed, table.entries)))
    return Verdict(worst <= bound + WEIL_SLACK, {"worst": worst, "bound": bound})
