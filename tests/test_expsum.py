import hashlib
import importlib.util
import itertools
import math
import pathlib
import random
import sys
from array import array

import pytest

from airycheck.arith import GF, CyclotomicValue, FqField
from airycheck.expsum import (
    TraceTable,
    airy_trace_table,
    compare_traces,
    hecke_trace_table,
    weil_check,
)
from airycheck.gln_airy import (
    CharacterParams,
    chi_geometric,
    f_poly,
    make_params,
    poly_eval,
)

import fold_oracle
import hecke_oracle
from hecke_oracle import psi


@pytest.fixture
def cold_fiber_histograms():
    """For a test that patches a kernel the brute fiber sum calls: the
    cached enumeration (`expsum._fiber_histograms`) is cleared before, so the
    patched kernel runs, and after, so nothing built under the patch
    outlives it."""
    from airycheck import expsum

    expsum._fiber_histograms.cache_clear()
    yield
    expsum._fiber_histograms.cache_clear()


def spy_fold(monkeypatch) -> list:
    """Patch `expsum._fold` to record, per call, the 2p unfolded counts of
    every entry of the int it folds (`fold_oracle.windows`); the list it
    returns fills as tables are built."""
    from airycheck import expsum

    calls, fold = [], expsum._fold
    monkeypatch.setattr(
        expsum, "_fold", lambda p, q, tc, acc: calls.append(fold_oracle.windows(p, q, tc, acc)) or fold(p, q, tc, acc)
    )
    return calls


def test_trace_identity_n2():
    # Hecke eigenvalue trace = Airy trace for GL_2 (trivial Tate twist)
    for p in (5, 7):
        for lam1 in (0, 1, 2):
            v = compare_traces(2, p, 1, (lam1,))
            assert v.ok and "first_mismatch" not in v.detail, v.detail


def test_trace_identity_n2_ext():
    v = compare_traces(2, 5, 2, (1,))
    assert v.ok, v.detail


def test_trace_identity_n4():
    v = compare_traces(4, 7, 1, (1, 0))
    assert v.ok, v.detail
    # twist really is by q^{n/2-1} = q here
    params = make_params(4, GF(7), (1, 0))
    brute = hecke_trace_table(params)
    airy = airy_trace_table(f_poly(params), 7, 1)
    for a in GF(7).elements():
        assert brute.entries[a.v] == airy.entries[a.v] * 7


def test_scaled_by_int_or_cyclotomic_value():
    # compare_traces twists by the integer q^{n/2-1}; a one-coefficient
    # CyclotomicValue (as the benchmark passes) gives the same table
    params = make_params(4, GF(7), (1, 0))
    airy = airy_trace_table(f_poly(params), 7, 1)
    by_int = airy.scaled(7, "airy-twisted")
    by_cyclo = airy.scaled(CyclotomicValue(7, [7, 0, 0, 0, 0, 0]), "airy-twisted")
    assert by_int == by_cyclo
    assert by_int.entries == hecke_trace_table(params).entries


def _fiber_sum(params, a, p2=hecke_oracle.p2):
    """(-1)^{n-1} sum over the fiber p_2(m) = a of psi(Tr(p_1(m))): all of
    F_q^{1+n/2} enumerated once per entry, with no binning by trace, and
    p_1, p_2 from the field-operator oracle."""
    field, n = params.field, params.n
    acc = CyclotomicValue(field.p)
    for m in itertools.product(field.elements(), repeat=1 + n // 2):
        if p2(n, field, m) == a:
            acc = acc + psi(field.p, hecke_oracle.p1(params, m))
    return acc if n % 2 == 1 else -acc


def _oracle_counts(params):
    """{a: the number of points of the fiber p_2(m) = a at each Tr p_1(m)},
    with field operators, one point at a time."""
    field, n = params.field, params.n
    counts = {a: [0] * field.p for a in field.elements()}
    for m in itertools.product(field.elements(), repeat=1 + n // 2):
        counts[hecke_oracle.p2(n, field, m)][hecke_oracle.trace(hecke_oracle.p1(params, m))] += 1
    return counts


# the trace workload's grid, plus GL_6 over F_11
BRUTE_GRID = [(2, p, e) for p in (5, 7, 11) for e in (1, 2)] + [(4, 7, 1), (4, 11, 1), (6, 11, 1)]


def test_brute_tables_pinned():
    # SHA-256 of the tables of the earlier enumeration that evaluated p_1
    # and p_2 with field operators at every point
    rng = random.Random(7)
    rows = []
    for n, p, e in BRUTE_GRID:
        field = FqField(p, e)
        lam = tuple(rng.randrange(p) for _ in range(n // 2))
        table = hecke_trace_table(make_params(n, field, lam), brute=True)
        rows.append((n, p, e, lam, [table.entries[a.v].coeffs for a in field.elements()]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1694541d2cc4a50ade44a0ba5ad14c6c6d8b9e2c8ca53f4c1be569a48c3a8e06"


# the Airy tables of the trace workload's grid, plus GL_6 and GL_8 over F_11
AIRY_GRID = BRUTE_GRID + [(8, 11, 1)]


def test_airy_tables_pinned():
    # SHA-256 of the tables of the earlier per-t loop, which evaluated f at
    # each x by Horner's rule with field operators; lambda = 0 and two
    # seeded vectors per grid point
    rng = random.Random(7)
    rows = []
    for n, p, e in AIRY_GRID:
        field = FqField(p, e)
        lams = [(0,) * (n // 2)] + [tuple(rng.randrange(p) for _ in range(n // 2)) for _ in range(2)]
        for lam in lams:
            params = make_params(n, field, lam)
            table = airy_trace_table(f_poly(params), p, e, lam=params.lam)
            rows.append((n, p, e, lam, [table.entries[a.v].coeffs for a in field.elements()]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "f7cff75dd11c5814a960d8c174881a8a5e1e40efa0b115e1ff2f53d0c86deac8"


@pytest.mark.parametrize("n,p,e,lam", [(2, 5, 2, (3,)), (4, 7, 1, (1, 2)), (2, 7, 1, (3,))])
def test_brute_kernel_matches_fiber_sum(n, p, e, lam):
    # e = 2 runs the Zech and negation tables; n = 4 has a two-term tail;
    # the per-fiber enumeration agrees with the binned one entry by entry
    field = FqField(p, e)
    params = make_params(n, field, lam)
    brute = hecke_trace_table(params, brute=True)
    for a in field.elements():
        assert _fiber_sum(params, a) == brute.entries[a.v]


# p_2 with its sign flipped, and with every power of m_1 one higher
WRONG_P2 = [
    lambda n, field, m: -hecke_oracle.p2(n, field, m),
    lambda n, field, m: m[0] * hecke_oracle.p2(n, field, m),
]


@pytest.mark.parametrize("wrong_p2", WRONG_P2, ids=["sign", "exponent"])
def test_fiber_sum_with_a_perturbed_p2_disagrees(wrong_p2):
    # negative control: the oracle comparison must see a wrong p_2
    field = FqField(7, 1)
    params = make_params(4, field, (1, 2))
    # unperturbed, _fiber_sum gives this table (test_brute_kernel_matches_fiber_sum)
    brute = hecke_trace_table(params)
    assert any(_fiber_sum(params, a, wrong_p2) != brute.entries[a.v] for a in field.elements())


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1)])
def test_brute_visits_every_point_without_field_elements(n, p, e, monkeypatch, cold_fiber_histograms):
    # every point of F_q^{1+n/2} is binned once: the counts the kernel
    # folds into entries, 2p per entry, total q^{1+n/2}; and a Hecke table
    # makes no field element, none per point, m_1 or entry and none for f,
    # while the patch sees one made after it
    from airycheck import arith

    field = FqField(p, e)
    params = make_params(n, field, (2,) * (n // 2))
    made, folds = [], spy_fold(monkeypatch)
    fq = arith._fq
    monkeypatch.setattr(arith, "_fq", lambda f, v: made.append(v) or fq(f, v))
    hecke_trace_table(params, brute=True)
    (binned,) = folds
    assert len(binned) == field.q
    assert sum(map(sum, binned)) == field.q ** (1 + n // 2)
    assert made == []
    field.from_index(3)
    assert made == [3]


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1)])
def test_warm_airy_table_makes_no_field_element_for_coefficients_in_its_field(n, p, e, monkeypatch):
    # a warm table reads its base along the row t + c_1 (c_1 = 2 here) on
    # the indices alone, and f's coefficients, elements of the table's
    # field, are read by their indices (`gln_airy._indices`): it makes no
    # field element, while the patch sees one made after it
    from airycheck import arith

    f = f_poly(make_params(n, FqField(p, e), (2,) * (n // 2)))
    airy_trace_table(f, p, e)
    made, fq = [], arith._fq
    monkeypatch.setattr(arith, "_fq", lambda field, v: made.append(v) or fq(field, v))
    airy_trace_table(f, p, e)
    assert made == []
    f[0].field.from_index(3)
    assert made == [3]


@pytest.mark.parametrize("n,p,e,count", [(2, 7, 2, 1), (4, 11, 1, 2)])
def test_warm_compare_makes_only_the_elements_of_lambda(n, p, e, count, monkeypatch):
    # a warm comparison makes the n/2 elements of lambda (make_params) and
    # nothing else: both tables are read off the params' indices, so none
    # is made for f, nor per entry, point or coefficient read
    from airycheck import arith

    lam = (2,) * (n // 2)
    compare_traces(n, p, e, lam)
    made, fq = [], arith._fq
    monkeypatch.setattr(arith, "_fq", lambda field, v: made.append(v) or fq(field, v))
    assert compare_traces(n, p, e, lam).ok
    assert len(made) == n // 2 == count


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1), (6, 11, 1)])
def test_brute_bins_match_oracle_counts(n, p, e, monkeypatch, cold_fiber_histograms):
    # the count vector of every fiber, not only its entry: the fold forgets
    # a constant added to a fiber's counts, so a shifted bin could still
    # give the right entries.  The oracle counts Tr p_1(m) over
    # {m : p_2(m) = a} with field operators, one point at a time; the brute
    # sum packs 2p unfolded counts per fiber, whose two halves add up to
    # the counts mod p
    field = FqField(p, e)
    params = make_params(n, field, (2,) * (n // 2))
    folds = spy_fold(monkeypatch)
    hecke_trace_table(params, brute=True)
    expected = _oracle_counts(params)
    # the entries are built in index order of a
    (binned,) = folds
    assert [fold_oracle.folded(p, w) for w in binned] == [expected[a] for a in field.elements()]


@pytest.mark.parametrize("n", [2, 4])
def test_brute_kernel_refuses_a_short_row(n, monkeypatch, cold_fiber_histograms):
    # negative control for the kernel's own count: a row one entry short
    # makes the zip of p_1 and p_2 drop points, which must raise rather
    # than return a table
    from airycheck import VerificationError, expsum

    mul_row = expsum._mul_row
    monkeypatch.setattr(expsum, "_mul_row", lambda tab, w: mul_row(tab, w)[:-1])
    with pytest.raises(VerificationError, match="points"):
        hecke_trace_table(make_params(n, GF(7), (1,) * (n // 2)), brute=True)


def test_short_enumeration_is_never_cached(monkeypatch, cold_fiber_histograms):
    # the enumeration's own count refuses a short build, and lru_cache
    # stores no exception: once the kernel is whole again, the next table
    # enumerates afresh and is right
    from airycheck import VerificationError, expsum

    mul_row = expsum._mul_row
    monkeypatch.setattr(expsum, "_mul_row", lambda tab, w: mul_row(tab, w)[:-1])
    with pytest.raises(VerificationError, match="enumerated"):
        expsum._fiber_histograms(2, 7, 1)
    assert expsum._fiber_histograms.cache_info().currsize == 0
    monkeypatch.undo()
    assert compare_traces(2, 7, 1, (3,)).ok
    info = expsum._fiber_histograms.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_narrow_slots_are_refused_and_never_cached(monkeypatch, cold_fiber_histograms):
    # negative control for the slot width: at (8, 11, 1) a fiber holds
    # 11^4 = 14,641 points, and at m_1 = 0 p_1 is 0, so 1,331 of them share
    # one slot; 8-bit slots cannot hold that, and the brute sum must refuse
    # (not raise OverflowError, and not return a table) without caching
    from airycheck import VerificationError, expsum

    monkeypatch.setattr(expsum, "_slot_typecode", lambda most: "B")
    before = expsum._fiber_histograms.cache_info().currsize
    with pytest.raises(VerificationError, match="slot"):
        hecke_trace_table(make_params(8, GF(11), (3, 1, 4, 9)))
    assert expsum._fiber_histograms.cache_info().currsize == before


def test_a_slot_carry_fails_the_total_check(monkeypatch):
    # negative control for the per-lambda total: histograms that put all 25
    # points of each m_1 over F_25 in slot 0, read with no chi shift, add up
    # to 625 in an 8-bit slot, which carries; the carry lowers the total of
    # the slots, and the brute sum must refuse rather than return a table
    from airycheck import VerificationError, expsum

    monkeypatch.setattr(expsum, "_fiber_histograms", lambda n, p, e: (25,) * 25)
    monkeypatch.setattr(expsum, "chi_geometric_row", lambda params: [0] * 25)
    with pytest.raises(VerificationError, match="counted 115 of"):
        hecke_trace_table(make_params(2, FqField(5, 2), (1,)))


def test_too_narrow_slots_are_refused_and_never_cached(monkeypatch, cold_fiber_histograms):
    # negative control for the fold's headroom: at (6, 13, 1) a fiber holds
    # 13^3 = 2,197 points, so the slots are 16 bits wide (twice a fiber's
    # size); one width narrower, every m_1 puts 169 points of some fiber in
    # one 8-bit slot, which holds them but not below its top bit, and the
    # brute sum must refuse without caching
    from airycheck import VerificationError, expsum

    slot_typecode = expsum._slot_typecode
    assert slot_typecode(13 ** 3) == "H"
    monkeypatch.setattr(expsum, "_slot_typecode", lambda total: "BHILQ"["BHILQ".index(slot_typecode(total)) - 1])
    with pytest.raises(VerificationError, match="top bit of its 8-bit slot"):
        hecke_trace_table(make_params(6, GF(13), (2, 5, 7)))
    assert expsum._fiber_histograms.cache_info().currsize == 0


def test_slot_typecode_refuses_past_64_bit_slots():
    # twice an entry's total must lie below 2^64, the widest array item:
    # 2^63 - 1 points still take a 64-bit item, while 2^63 points, and
    # GL_26's fibers over F_29 (29^13 points each), are refused by a
    # ValueError that names the limit
    from airycheck import expsum

    assert 8 * array(expsum._slot_typecode(2 ** 63 - 1)).itemsize == 64
    for total in (2 ** 63, 29 ** 13):
        with pytest.raises(ValueError, match="64-bit slot limit"):
            expsum._slot_typecode(total)


def test_fiber_histograms_past_the_slot_limit_cache_nothing(cold_fiber_histograms):
    # GL_26 over F_29 reaches the limit: the slot width is chosen before any
    # point is visited, and lru_cache stores no exception
    from airycheck import expsum

    with pytest.raises(ValueError, match="64-bit slot limit"):
        expsum._fiber_histograms(26, 29, 1)
    info = expsum._fiber_histograms.cache_info()
    assert (info.misses, info.currsize) == (1, 0)


def test_packed_fold_equals_the_list_fold(monkeypatch):
    # the packed fold against the list fold it replaced (fold_oracle), on
    # the ints of the 33 brute and 33 Airy tables of the trace grids, on
    # seeded random counts, and on windows right at the 2^(w-1) headroom,
    # where one count more is refused
    from airycheck import VerificationError, cli, expsum

    packed, fold = [], expsum._fold
    monkeypatch.setattr(expsum, "_fold", lambda p, q, tc, acc: packed.append((p, q, tc, acc)) or fold(p, q, tc, acc))
    for n in cli.TRACE_GRIDS:
        for p, e, lam in cli._trace_cases(n):
            params = make_params(n, FqField(p, e), lam)
            hecke_trace_table(params)
            expsum._trace_sums(params.field._tables, list(params._f_indices))
    monkeypatch.undo()
    assert len(packed) == 66
    rng = random.Random(41)
    for _ in range(200):
        p, q, tc = rng.choice([3, 5, 7, 11, 13]), rng.randrange(1, 30), rng.choice("BH")
        half = 1 << 8 * array(tc).itemsize - 1
        counts = []
        for _ in range(q):
            pairs = [(a, rng.randrange(half - a)) for a in (rng.randrange(half) for _ in range(p))]
            counts += [a for a, _ in pairs] + [b for _, b in pairs]
        packed.append((p, q, tc, fold_oracle.pack(tc, counts)))
    for p, tc in [(5, "B"), (7, "H")]:
        most = (1 << 8 * array(tc).itemsize - 1) - 1  # the largest count below the top bit

        def window(slots):
            return [slots.get(c, 0) for c in range(2 * p)]

        edge = [
            window({0: most}),  # an unfolded and folded count at the edge, k = 0
            window({p - 1: most}),  # k at the edge
            window({1: most // 2, p + 1: most - most // 2, p - 1: 1, 2 * p - 1: most - 1}),  # both halves
        ]
        packed.append((p, len(edge), tc, fold_oracle.pack(tc, sum(edge, []))))
        for past, where in [({0: most + 1}, "unfolded"), ({1: most // 2 + 1, p + 1: most - most // 2}, "folded")]:
            with pytest.raises(VerificationError, match=f"{where} count reached the top bit"):
                expsum._fold(p, 1, tc, fold_oracle.pack(tc, window(past)))
    for p, q, tc, acc in packed:
        assert expsum._fold(p, q, tc, acc) == fold_oracle.fold(p, fold_oracle.unpack(p, q, tc, acc))


def test_a_count_moved_in_its_window_changes_that_entry_only(monkeypatch):
    # negative control for the fold: one point of fiber 3 at (4, 11, 1)
    # moved to another sum mod p, the fiber's total kept, changes entry 3
    # and no other
    from airycheck import expsum

    params = make_params(4, GF(11), (1, 0))
    folds = spy_fold(monkeypatch)
    entries = hecke_trace_table(params).entries
    (windows,) = folds
    tc, i = expsum._slot_typecode(11 ** 2), 3
    w = 8 * array(tc).itemsize
    src = next(c for c in range(22) if windows[i][c])
    dst = (src + 1) % 11
    acc = fold_oracle.pack(tc, sum(windows, []))
    moved = acc - (1 << (22 * i + src) * w) + (1 << (22 * i + dst) * w)
    changed = expsum._fold(11, 11, tc, moved)
    assert changed[i] != entries[i]
    assert changed[:i] + changed[i + 1:] == entries[:i] + entries[i + 1:]


def test_fiber_cache_holds_one_int_per_m1():
    # at (8, 11, 1) the cached entry is one int per m_1, 242 slots of 16
    # bits each, where the key tuples it replaced held 161,051 keys
    from airycheck import expsum

    entry = expsum._fiber_histograms(8, 11, 1)
    assert len(entry) == 11 and all(type(h) is int for h in entry)
    assert sum(map(sys.getsizeof, entry)) < 16 * 1024


@pytest.mark.parametrize("n,p,e", [(4, 223, 1), (8, 11, 2)])
def test_refused_brute_input_is_never_cached(n, p, e):
    # q^{1+n/2} past the budget is refused before the cache is read, by the
    # table and by the comparison: not even a miss is counted
    from airycheck import expsum

    params = make_params(n, FqField(p, e), (1,) + (0,) * (n // 2 - 1))
    before = expsum._fiber_histograms.cache_info()
    with pytest.raises(ValueError, match="brute-force"):
        hecke_trace_table(params)
    with pytest.raises(ValueError, match="brute-force"):
        compare_traces(n, p, e, params.lam)
    assert expsum._fiber_histograms.cache_info() == before


def test_edited_brute_table_does_not_reach_the_cache():
    # the entries are a tuple, so a caller cannot edit them in place, and a
    # rebuild, for the same lambda or another sharing the enumeration, is
    # the table it had
    field = GF(7)
    first = hecke_trace_table(make_params(4, field, (1, 2)))
    other = hecke_trace_table(make_params(4, field, (3, 0)))
    assert type(first.entries) is tuple and len(first.entries) == 7
    with pytest.raises(TypeError):
        first.entries[0] = first.entries[0] + CyclotomicValue.zeta_pow(7, 1)
    assert hecke_trace_table(make_params(4, field, (1, 2))) == first
    assert hecke_trace_table(make_params(4, field, (3, 0))) == other


def _outside(field, indices):
    """lambda as the elements of `field` at `indices`, with at least one of
    them outside F_p (x^p != x): make_params reads ints mod p, so such a
    lambda is built from indices."""
    lam = [field.from_index(i) for i in indices]
    assert any(x ** field.p != x for x in lam)
    return lam


def test_brute_equals_twisted_airy_for_lambda_outside_fp():
    # GL_4 over F_49, three lambda outside F_7 on one enumeration: each
    # brute table is the Airy table twisted by q
    from airycheck import expsum

    field = FqField(7, 2)
    expsum._fiber_histograms.cache_clear()
    for indices in [(8, 0), (0, 9), (15, 23)]:
        params = make_params(4, field, _outside(field, indices))
        airy = airy_trace_table(f_poly(params), 7, 2, lam=params.lam)
        assert hecke_trace_table(params).entries == airy.scaled(49, "airy-twisted").entries
    info = expsum._fiber_histograms.cache_info()
    assert (info.hits, info.misses) == (2, 1)


# (p, e, index of lambda_1): each lambda lies outside F_p
OUTSIDE_FP = [(7, 2, 8), (7, 2, 9), (7, 2, 15), (7, 2, 23), (5, 2, 7)]


@pytest.mark.parametrize("p,e,index", OUTSIDE_FP)
def test_brute_bins_match_oracle_counts_outside_fp(p, e, index, monkeypatch, cold_fiber_histograms):
    # the count vector of every fiber for a lambda that the trace grids,
    # whose lambda are ints, cannot name
    field = FqField(p, e)
    params = make_params(2, field, _outside(field, (index,)))
    folds = spy_fold(monkeypatch)
    hecke_trace_table(params)
    expected = _oracle_counts(params)
    (binned,) = folds
    assert [fold_oracle.folded(p, w) for w in binned] == [expected[a] for a in field.elements()]


def test_lambdas_sharing_an_enumeration_differ_where_the_oracle_does():
    # two lambda outside F_7 read one cached enumeration; the shift by
    # Tr chi_lambda(m_1) keeps their tables apart at every a where the
    # oracle's sums differ, and only there
    from airycheck import expsum

    field = FqField(7, 2)
    tables, oracles = [], []
    expsum._fiber_histograms.cache_clear()
    for index in (9, 15):
        params = make_params(2, field, _outside(field, (index,)))
        tables.append(hecke_trace_table(params).entries)
        counts = _oracle_counts(params)
        oracles.append({a: -sum((psi(7, t) * c for t, c in enumerate(counts[a])), CyclotomicValue(7))
                        for a in field.elements()})
    info = expsum._fiber_histograms.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    differ = {a for a in field.elements() if oracles[0][a] != oracles[1][a]}
    assert differ
    assert {a for a in field.elements() if tables[0][a.v] != tables[1][a.v]} == differ


@pytest.mark.parametrize("p,e", [(7, 1), (5, 2), (7, 2)])
def test_row_helpers_match_index_arithmetic(p, e):
    # the brute kernel's rows against arith._mul and _add on every pair
    from airycheck.arith import _add, _mul, fq_tables
    from airycheck.expsum import _add_rows, _mul_row

    tab = fq_tables(p, e)
    q = tab.q
    for w in range(q):
        row = _mul_row(tab, w)
        assert row == [_mul(tab, x, w) for x in range(q)]
        assert row[0] == 0  # 0 w
    every = list(range(q))
    assert _add_rows(tab, every, every) == [_add(tab, a, b) for a in every for b in every]
    for a in every:
        assert _add_rows(tab, [a], [0]) == [a]  # a + 0
        assert _add_rows(tab, [a], [tab.neg[a]]) == [0]  # a + (-a)


@pytest.mark.parametrize("p,e", [(7, 1), (7, 2)])
def test_brute_table_for_shifted_lambda_differs(p, e):
    # negative control: the brute side must see a change of character
    field = FqField(p, e)
    good = make_params(2, field, (3,))
    airy = airy_trace_table(f_poly(good), p, e, lam=good.lam)  # no twist at n = 2
    assert hecke_trace_table(good, brute=True).entries == airy.entries
    bad = make_params(2, field, (4,))
    assert hecke_trace_table(bad, brute=True).entries != airy.entries


@pytest.mark.parametrize("p", [11, 13])
def test_trace_identity_n6(p):
    rng = random.Random(p)
    for _ in range(2):
        lam = tuple(rng.randrange(p) for _ in range(3))
        v = compare_traces(6, p, 1, lam, brute=True)
        assert v.ok and v.detail["brute_mismatches"] == 0, v.detail


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1)])
def test_airy_counts_match_oracle_counts(n, p, e, monkeypatch, cold_fiber_histograms):
    # the count vector of every t, 0 included, not only its entry: the fold
    # forgets a constant added to all counts, so a wrong fold of the
    # unfolded sums could still give the right entries.  The oracle counts
    # Tr(f(x) + t x) over every x with field operators, f written out as
    # sum c_i x^i; the kernel runs on the full f, linear term included, and
    # packs 2p unfolded counts per t, whose two halves add up to the counts
    # mod p
    from airycheck import expsum

    field = FqField(p, e)
    f = f_poly(make_params(n, field, (2,) * (n // 2)))
    folds = spy_fold(monkeypatch)
    expsum._trace_sums(field._tables, [x.v for x in f])
    values = [sum((c * x ** i for i, c in enumerate(f)), field(0)) for x in field.elements()]
    expected = []
    for t in field.elements():  # the entries are built in index order of t
        counts = [0] * p
        for x, fx in zip(field.elements(), values):
            counts[hecke_oracle.trace(fx + t * x)] += 1
        expected.append(counts)
    (passed,) = folds
    assert [fold_oracle.folded(p, w) for w in passed] == expected


def _airy_oracle(field, f, t):
    """-sum_x psi(Tr(f(x) + t x)), f(x) = sum c_i x^i with field operators."""
    acc = CyclotomicValue(field.p)
    for x in field.elements():
        fx = sum((c * x ** i for i, c in enumerate(f)), field(0))
        acc = acc + psi(field.p, hecke_oracle.trace(fx + t * x))
    return -acc


# (n, p, e, lambda as element indices): lambda_1 != 0, so the linear term of
# f is a nonzero shift; index 9 of F_49 lies outside F_7
SHIFT_CASES = [(2, 7, 1, (3,)), (2, 7, 2, (9,)), (4, 11, 1, (2, 5))]


@pytest.mark.parametrize("n,p,e,lam", SHIFT_CASES)
def test_airy_entries_match_field_operator_sums(n, p, e, lam):
    # every entry against the sum itself, built from a cold cache and read
    # from a warm one: the warm base is built for lambda_1 = 0, so the
    # second table is the shift of another f's base
    from airycheck import expsum

    field = FqField(p, e)
    params = make_params(n, field, [field.from_index(i) for i in lam])
    f = f_poly(params)
    expected = tuple([_airy_oracle(field, f, t) for t in field.elements()])
    expsum._airy_base.cache_clear()
    assert airy_trace_table(f, p, e).entries == expected
    assert expsum._airy_base.cache_info().misses == 1

    expsum._airy_base.cache_clear()
    unshifted = make_params(n, field, [field(0)] + [field.from_index(i) for i in lam[1:]])
    airy_trace_table(f_poly(unshifted), p, e)
    assert airy_trace_table(f, p, e).entries == expected
    info = expsum._airy_base.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1)])
def test_airy_base_builds_no_field_element(n, p, e, monkeypatch):
    # a cold base runs from the coefficient indices to the entries on the
    # tables alone: it makes no FqElement, while the patch sees one made
    # after it
    from airycheck import arith, expsum

    field = FqField(p, e)
    c = [x.v for x in f_poly(make_params(n, field, (2,) * (n // 2)))]
    c[1] = 0
    made, fq = [], arith._fq
    monkeypatch.setattr(arith, "_fq", lambda f, v: made.append(v) or fq(f, v))
    expsum._airy_base.cache_clear()
    base = expsum._airy_base(p, e, tuple(c))
    expsum._airy_base.cache_clear()
    assert len(base) == field.q and made == []
    field.from_index(3)
    assert made == [3]


@pytest.mark.parametrize("lam1", [0, 3])
def test_edited_airy_table_does_not_reach_the_cache(lam1):
    # the entries are a tuple, the cached base itself when there is no
    # shift (lambda_1 = 0): a caller cannot edit them in place, and a
    # rebuild for the same f is the table it had
    field = GF(7)
    f = f_poly(make_params(2, field, (lam1,)))
    first = airy_trace_table(f, 7, 1)
    assert type(first.entries) is tuple and len(first.entries) == 7
    with pytest.raises(TypeError):
        first.entries[0] = first.entries[0] + CyclotomicValue.zeta_pow(7, 1)
    assert airy_trace_table(f, 7, 1) == first


@pytest.mark.parametrize("f,p", [
    ([0, 1, 0, 1], 100003),  # q^2 past the budget
    ([0] * 5 + [1], 5),  # p | deg f
    ([0, 1], 5),  # degree 1
], ids=["budget", "p-divides-deg", "degree"])
def test_refused_airy_input_is_never_cached(f, p):
    from airycheck import expsum

    before = expsum._airy_base.cache_info().currsize
    with pytest.raises(ValueError):
        airy_trace_table(f, p, 1)
    assert expsum._airy_base.cache_info().currsize == before


def test_trace_checks_share_airy_bases():
    # the 33 grid tables have 17 distinct nonlinear parts; weil-bound, run
    # after the two trace checks, builds none
    from airycheck import cli, expsum

    expsum._airy_base.cache_clear()
    cli.check_trace_gl2()
    cli.check_trace_gl4()
    info = expsum._airy_base.cache_info()
    assert (info.hits + info.misses, info.misses) == (33, 17)
    cli.check_weil()
    after = expsum._airy_base.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (33, 0)


def test_trace_checks_share_fiber_enumerations():
    # the 33 grid tables lie on 11 grid points (n, p, e), each enumerated
    # once: every other lambda of a grid point reads its cached histograms
    from airycheck import cli, expsum

    expsum._fiber_histograms.cache_clear()
    cli.check_trace_gl2()
    cli.check_trace_gl4()
    info = expsum._fiber_histograms.cache_info()
    assert (info.hits + info.misses, info.misses) == (33, 11)


def _trace_grid_points():
    """The (n, p, e) of `cli.TRACE_GRIDS` and of the trace workload's
    `TRACE_GRID` in perfbench/workloads.py."""
    from airycheck import cli

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = {(n, p, e) for n, grid in cli.TRACE_GRIDS.items() for p in grid["p"] for e in grid["e"]}
    return sorted(points | set(workloads.TRACE_GRID))


def test_brute_sum_reads_chi_geometric_at_every_m1(monkeypatch):
    # the chi row the brute sum shifts by is chi_geometric at every m_1, in
    # index order, on every trace grid point; lambda is drawn from all of
    # F_q, so at e = 2 some lambda lie outside F_p
    from airycheck import expsum, gln_airy

    rows, chi_row = [], gln_airy.chi_geometric_row

    def spy(params):
        rows.append(chi_row(params))
        return rows[-1]

    monkeypatch.setattr(expsum, "chi_geometric_row", spy)
    rng = random.Random(37)
    outside = 0
    for n, p, e in _trace_grid_points():
        field = FqField(p, e)
        for _ in range(3):
            lam = [field.from_index(rng.randrange(field.q)) for _ in range(n // 2)]
            outside += any(x ** p != x for x in lam)
            params = make_params(n, field, lam)
            rows.clear()
            hecke_trace_table(params)
            assert rows == [[chi_geometric(params, m1).v for m1 in field.elements()]]
    assert outside


def test_airy_constant_shift():
    # replacing f by f + c multiplies each entry by psi(c)
    p = 7
    F = GF(p)
    f = [F(0), F(2), F(0), F(1)]
    g = [F(3), F(2), F(0), F(1)]
    t1 = airy_trace_table(f, p, 1)
    t2 = airy_trace_table(g, p, 1)
    factor = psi(p, 3)
    for t in F.elements():
        assert t2.entries[t.v] == factor * t1.entries[t.v]


def test_airy_column_sum_orthogonality():
    # sum over t of entries is -q psi(f(0)): only x = 0 survives
    p, e = 5, 1
    F = GF(p)
    f = [F(1), F(2), F(1), F(3)]
    table = airy_trace_table(f, p, e)
    acc = CyclotomicValue(p)
    for v in table.entries:
        acc = acc + v
    assert acc == psi(p, poly_eval(F, [c.v for c in f], F(0))) * (-p)


def test_airy_extension_field():
    p, e = 5, 2
    F = FqField(p, e)
    f = [F(0), F(1), F(0), F(1)]
    table = airy_trace_table(f, p, e)
    assert table.q == 25 and len(table.entries) == 25
    assert weil_check(table).ok


def test_airy_rejects_bad_degree():
    F = GF(5)
    with pytest.raises(ValueError):
        airy_trace_table([F(0), F(1)], 5, 1)  # degree 1
    with pytest.raises(ValueError):
        airy_trace_table([F(0)] * 5 + [F(1)], 5, 1)  # p | deg f


def test_weil_bound_values():
    params = make_params(2, GF(11), (2,))
    airy = airy_trace_table(f_poly(params), 11, 1)
    v = weil_check(airy)
    assert v.ok
    assert v.detail["bound"] == pytest.approx(2 * 11 ** 0.5)
    assert v.detail["worst"] <= v.detail["bound"] + 1e-6


def test_embed_reads_cached_zeta_powers_bit_for_bit():
    # the embedding of every entry of every weil-bound table equals the
    # inline formula z ** i, summed in the same order, to the last bit
    import cmath

    from airycheck import cli

    def inline(v):
        z = cmath.exp(2j * cmath.pi / v.p)
        return sum(a * z ** i for i, a in enumerate(v.coeffs) if a) + 0j

    entries = 0
    for n in cli.TRACE_GRIDS:
        for p, e, lam in cli._trace_cases(n):
            params = make_params(n, FqField(p, e), lam)
            for v in airy_trace_table(f_poly(params), p, e).entries:
                got, want = v.embed(), inline(v)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
                entries += 1
    assert entries == 813


@pytest.mark.parametrize("n,p,e,lam", [(2, 11, 1, (2,)), (4, 7, 1, (1, 0)), (2, 5, 2, (1,))])
def test_weil_check_fails_on_one_entry_past_the_bound(n, p, e, lam):
    # negative control: an Airy table with entry 3 replaced by the least
    # rational integer past n sqrt(q) fails the Weil bound
    params = make_params(n, FqField(p, e), lam)
    airy = airy_trace_table(f_poly(params), p, e, lam=params.lam)
    assert weil_check(airy).ok
    past = math.isqrt(n * n * airy.q) + 1
    entries = list(airy.entries)
    entries[3] = CyclotomicValue(p, [past] + [0] * (p - 2))
    v = weil_check(TraceTable(airy.q, n, airy.lam, tuple(entries), "airy"))
    assert not v.ok and v.detail["worst"] > v.detail["bound"] + 1e-6, v.detail
    assert v.detail["worst"] == past


def test_weil_check_refuses_a_table_that_is_not_airy():
    # the bound n sqrt(q) holds for the Airy sums only; a Hecke or a twisted
    # table is refused, not checked against a scaled bound
    params = make_params(4, GF(7), (1, 2))
    airy = airy_trace_table(f_poly(params), 7, 1)
    for table in (hecke_trace_table(params), airy.scaled(7, "airy-twisted")):
        with pytest.raises(ValueError, match="Airy"):
            weil_check(table)


@pytest.mark.parametrize("n,p,lam", [(2, 7, (3,)), (4, 7, (1, 0))])
def test_compare_fails_against_airy_table_for_shifted_lambda(n, p, lam, monkeypatch):
    # negative control: the one comparison left must be able to fail, with
    # no twist (n = 2) and with the twist by q (n = 4)
    from airycheck import expsum

    airy_entries = expsum._airy_entries

    def shifted(field, c):
        return airy_entries(field, make_params(n, field, [x + 1 for x in lam])._f_indices)

    assert compare_traces(n, p, 1, lam).ok
    monkeypatch.setattr(expsum, "_airy_entries", shifted)
    v = compare_traces(n, p, 1, lam)
    assert not v.ok and v.detail["brute_mismatches"] > 0, v.detail


@pytest.mark.parametrize("n,p,lam", [(2, 7, (3,)), (4, 7, (1, 0))])
def test_compare_fails_for_airy_shift_by_minus_c1(n, p, lam, monkeypatch):
    # negative control for the shift: the base read at t - c_1 in place of
    # t + c_1 is a failed verdict, not an exception, so the brute oracle
    # sees the direction of the shift
    from airycheck import expsum
    from airycheck.arith import _add

    def minus_shift(field, c):
        tab = field._tables
        assert c[1]  # lambda_1 != 0: the shift moves the row
        base = expsum._airy_base(field.p, field.e, (c[0], 0, *c[2:]))
        return tuple([base[_add(tab, t, tab.neg[c[1]])] for t in range(field.q)])

    assert compare_traces(n, p, 1, lam).ok
    monkeypatch.setattr(expsum, "_airy_entries", minus_shift)
    v = compare_traces(n, p, 1, lam)
    assert not v.ok and v.detail["brute_mismatches"] > 0, v.detail


@pytest.mark.parametrize("n,p,lam", [(2, 7, (3,)), (4, 7, (1, 0))])
def test_compare_counts_one_changed_airy_entry(n, p, lam, monkeypatch):
    # negative control at the entry level: an Airy table with one entry
    # changed gives exactly one mismatch, where the twist is 1 (n = 2, the
    # table compared as it is) and where it is q (n = 4), and the failed
    # verdict names the changed element
    from airycheck import expsum

    airy_entries = expsum._airy_entries

    def one_changed(field, c):
        entries = list(airy_entries(field, c))
        entries[3] = entries[3] + CyclotomicValue.zeta_pow(field.p, 1)
        return tuple(entries)

    monkeypatch.setattr(expsum, "_airy_entries", one_changed)
    v = compare_traces(n, p, 1, lam)
    assert not v.ok and v.detail["brute_mismatches"] == 1, v.detail
    assert v.detail["first_mismatch"] == str(GF(p).from_index(3)) == "3 (mod 7)"


def test_brute_false_rejected():
    # the closed Hecke table would be the twisted Airy table itself
    params = make_params(2, GF(7), (3,))
    with pytest.raises(ValueError):
        hecke_trace_table(params, brute=False)
    with pytest.raises(ValueError):
        compare_traces(2, 7, 1, (3,), brute=False)


def test_brute_budget():
    params = make_params(4, GF(223), (1, 0))  # 223^3 exceeds the budget
    with pytest.raises(ValueError):
        hecke_trace_table(params, brute=True)


def test_brute_table_needs_no_params_equality(monkeypatch):
    # chi_geometric's coefficients live on the params object, so fresh but
    # equal params never fall back to comparing against an earlier one
    calls = []
    eq = CharacterParams.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(CharacterParams, "__eq__", counting_eq)
    first = hecke_trace_table(make_params(2, GF(7), (3,)), brute=True)
    second = hecke_trace_table(make_params(2, GF(7), (3,)), brute=True)
    assert first == second
    assert len(calls) == 0
