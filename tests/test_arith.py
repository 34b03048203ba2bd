import cmath
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import airycheck
from airycheck import arith
from airycheck.arith import (
    GF,
    CyclotomicValue,
    FqElement,
    FqField,
    FqTables,
    MultiPoly,
    _poly_mod,
    _poly_mulmod,
    _poly_powmod,
    is_prime,
    lex_least_irreducible,
    psi,
)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_gf_basics():
    F = GF(7)
    assert F(3) + F(5) == 1
    assert F(3) * F(5) == 1
    assert -F(2) == 5
    assert F(2) ** 6 == 1
    assert F(1) / F(3) == 5
    assert F(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ValueError):
        GF(6)


def test_gf_mixed_char_rejected():
    with pytest.raises(ValueError):
        GF(5)(1) + GF(7)(1)


def test_gf_is_the_degree_one_fq_field():
    assert GF(7) == FqField(7, 1) and hash(GF(7)) == hash(FqField(7, 1))
    assert GF(7) != FqField(7, 2)
    x = GF(7)(3)
    assert type(x) is FqElement and x.field == FqField(7, 1)
    assert str(x) == "3 (mod 7)"
    with pytest.raises(ZeroDivisionError):
        GF(7)(0) ** -1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_matches_int_arithmetic(p):
    # every operation on every pair, against Python ints mod p; int operands
    # on either side include ones outside [0, p)
    F = GF(p)
    for a in range(p):
        x = F(a)
        assert x.v == a and x == a + 3 * p
        assert (-x).v == -a % p
        for k in range(-p, p + 1):
            if a or k >= 0:
                assert (x ** k).v == pow(a, k, p)
        for b in range(p):
            y = F(b)
            for c in (b, b - 3 * p, b + 5 * p):
                assert (x + y).v == (x + c).v == (c + x).v == (a + b) % p
                assert (x - y).v == (x - c).v == (a - b) % p
                assert (c - x).v == (b - a) % p
                assert (x * y).v == (x * c).v == (c * x).v == a * b % p
                if b:
                    assert (x / y).v == (x / c).v == a * pow(b, -1, p) % p
                if a:
                    assert (c / x).v == b * pow(a, -1, p) % p
            assert type(x + y) is type(x * 2) is type(2 - x) is FqElement


def test_modulus_deterministic():
    # lex-least monic irreducible; x^2 + 1 is reducible mod 5, x^2 + 2 is not
    assert lex_least_irreducible(5, 2) == (2, 0, 1)
    assert lex_least_irreducible(7, 2) == (1, 0, 1)
    F = FqField(5, 3)
    G = FqField(5, 3)
    assert F.modulus == G.modulus
    assert F == G and hash(F) == hash(G)


def test_fq_125():
    F = FqField(5, 3)
    els = F.elements()
    assert len(els) == 125
    assert len(set(els)) == 125
    x = F.from_index(5)  # the class of x, coefficients (0, 1, 0)
    assert x.coeffs == (0, 1, 0)
    # multiplicative order of any nonzero element divides 124
    assert x ** 124 == F(1)
    orders = {d for d in (1, 2, 4, 31, 62, 124) if x ** d == F(1)}
    assert min(orders) in (31, 62, 124)
    with pytest.raises(ZeroDivisionError):
        F(0).inverse()


def test_fq_field_axioms_random():
    F = FqField(7, 2)
    rng = random.Random(7)
    els = F.elements()
    for _ in range(500):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a:
            assert a * a.inverse() == F(1)


def test_fq_frobenius_and_trace():
    F = FqField(5, 2)
    for x in F.elements():
        assert (x ** 5).trace() == x.trace()  # Frobenius fixes the trace
        assert 0 <= x.trace() < 5
    # trace is additive and F_p-linear
    els = F.elements()
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert (a + b).trace() == (a.trace() + b.trace()) % 5
    # trace is surjective onto F_p, each fiber has q/p elements
    fibers = {}
    for x in els:
        fibers.setdefault(x.trace(), []).append(x)
    assert set(fibers) == set(range(5))
    assert all(len(v) == 5 for v in fibers.values())


def _operand_pairs(F, rng):
    """All pairs for q <= 49, a seeded sample of 3000 above that."""
    els = F.elements()
    if F.q <= 49:
        return [(a, b) for a in els for b in els]
    return [(rng.choice(els), rng.choice(els)) for _ in range(3000)]


@pytest.mark.parametrize("p,e", [(5, 2), (7, 2), (11, 2), (5, 3)])
def test_fq_index_arithmetic_matches_polynomials(p, e):
    # the index tables against coefficient-vector arithmetic mod the modulus
    F = FqField(p, e)
    m = list(F.modulus)
    for a, b in _operand_pairs(F, random.Random(p * 100 + e)):
        ca, cb = list(a.coeffs), list(b.coeffs)
        assert (a * b).coeffs == tuple(_poly_mulmod(ca, cb, m, p))
        assert (a + b).coeffs == tuple(_poly_mod([x + y for x, y in zip(ca, cb)], m, p))
        assert (a - b).coeffs == tuple(_poly_mod([x - y for x, y in zip(ca, cb)], m, p))
    one = tuple(_poly_mod([1], m, p))
    for a in F.elements():
        ca = list(a.coeffs)
        assert (-a).coeffs == tuple(_poly_mod([-x for x in ca], m, p))
        assert a.v == sum(c * p ** k for k, c in enumerate(ca)) and F.from_index(a.v) == a
        if a:
            assert tuple(_poly_mulmod(list(a.inverse().coeffs), ca, m, p)) == one


@pytest.mark.parametrize("p,e", [(5, 2), (7, 2), (11, 2), (5, 3)])
def test_fq_trace_is_frobenius_orbit_sum(p, e):
    F = FqField(p, e)
    m = list(F.modulus)
    for x in F.elements():
        acc = [0] * e
        for j in range(e):
            y = _poly_powmod(list(x.coeffs), p ** j, m, p)
            acc = [(a + b) % p for a, b in zip(acc, y)]
        assert acc == [x.trace()] + [0] * (e - 1)


# sha256 of repr(table) for each table of F_{p^e}, built on the least index
# g with g^((q-1)/r) != 1 for every prime r dividing q - 1
FQ_TABLE_DIGESTS = {
    (5, 2): {
        "exp": "99252198fcca5e29d11c7980985f44e7b4699da31bcb1c02c32ad2af812fed11",
        "log": "551d965b7d6f47763e6ed36a30009f8118d2da58c44fe72197b1d571b108f345",
        "zech": "2367472ee827e777d22a480443636dbf94c9a3967a46c8bc6fe16672027497c0",
        "neg": "6d313d10c08c2467093df94462386dbb179ab696b26a9247ecbbb9e3b3ab8af0",
        "trace": "9d5e850888af06b1495095f45f43a7cda8c8eb15126b54b313cf21233287b210",
    },
    (7, 2): {
        "exp": "d89f7e6621ba0fb776cbd979500c44412a8dfc9ee71a0a97622c6c4d3e559e9c",
        "log": "ec59c1698371b6b2d9a86c6b4839a21be694d010b82fff01d67a4763cc6ec6a2",
        "zech": "1c0c288371d3166d42df850cde5e501f9e078c35cd4498c3ffccccd6697995a5",
        "neg": "fbd54c1e7ae6299a87f4ae08d2b8564522a23ad99718acabafb18fad285fce63",
        "trace": "b7d59222c6f58414f00a3ac9b00984989ffbba754855905b34490985801b0fdb",
    },
    (11, 2): {
        "exp": "3657893a0734da487c133fa3b5fc9ddcd15d73c065aac05b734f9aef6f9540f9",
        "log": "9ce3cf540067cc576fd659c3ee932f2a89db0cc9b34ccf5348b26bc160c0ab20",
        "zech": "56f4a0c6ece0d71b5759f5b8203bbd8a85c2d56a6c96491ae1cfac4ed9f483ab",
        "neg": "f313cfe1315e0a5f8c0462ad49200cf145227b6520a2049a4eab67335931ac89",
        "trace": "4988ed66ecce827d34a03e48ac52bf5094fb2d085e874475d99c0845beb73541",
    },
    (7, 3): {
        "exp": "2caf589f53f53890f99f74c6f92fd9f48b4020242f367835293c99bdd1288116",
        "log": "0dbd82bebc96fe2f16ff67ea52cc333c3142954b3b3318c5ef5b7331cf8e2a37",
        "zech": "3bb153e6e969c7288015e4572f9ecba2f2961aa2c4b41f6c9bc292bd8c96f051",
        "neg": "3d5b77e086dfc3449f696c598cf8dfc1129743f7e5b0841e9a0efe1a50d88b1c",
        "trace": "05559a008716bc07ad1ab60ede8b5bf41f05cce044db758d12ea0d3343f8da36",
    },
    (3, 5): {
        "exp": "8f0b0dd86073253c3d5573479c56242805eb00559b5d264e538e09245dd88271",
        "log": "f7a308af9e16d12a8fcae5124a5c9623a30cdf94604c70ee27959e9420004f5d",
        "zech": "d57bfac31f85969b1583bb6e420a519c12c1351b4e051a138cad363f96deaa02",
        "neg": "70dff729f194421586ede5a4750b3a71d4ecc7f9aaa19bf04fb3aff0057065e2",
        "trace": "411fe09b78c06a91e609d8635eb1f83f697ba54b72f5f9198555274ad849dabd",
    },
}


@pytest.mark.parametrize("p,e", sorted(FQ_TABLE_DIGESTS))
def test_fq_tables_pinned(p, e):
    # a fresh build, not the cached one, is byte-identical to the pinned tables
    tables = FqTables(p, lex_least_irreducible(p, e))
    for name, digest in FQ_TABLE_DIGESTS[p, e].items():
        assert hashlib.sha256(repr(getattr(tables, name)).encode()).hexdigest() == digest, name


@pytest.mark.parametrize("p,e", [(5, 2), (7, 3), (3, 5), (13, 1)])
def test_fq_tables_generator_is_the_first_primitive_index(p, e):
    # exp[1] is the least index of order q - 1: every smaller nonzero index
    # has a power below q - 1 that is 1
    F = FqField(p, e)
    g = F._tables.exp[1]
    assert len(set(F._tables.exp[:F.q - 1])) == F.q - 1
    for v in range(1, g):
        x, k = F.from_index(v), 1
        while x ** k != 1:
            k += 1
        assert k < F.q - 1


@pytest.mark.parametrize("p,e", [(5, 2), (7, 3), (11, 2), (3, 5)])
def test_fq_tables_search_starts_past_the_prime_field(p, e, monkeypatch):
    # for e > 1 the indices below p are the constants of F_p, whose order
    # divides p - 1 < q - 1: the search walks the powers of each index from
    # p to the generator once, and of no constant
    walks = []
    power_walk = arith._power_walk
    monkeypatch.setattr(arith, "_power_walk", lambda *a: walks.append(a) or power_walk(*a))
    g = FqTables(p, lex_least_irreducible(p, e)).exp[1]
    assert g >= p
    assert len(walks) == g - p + 1


def test_fq_tables_shared_per_field():
    F, G = FqField(11, 2), FqField(11, 2)
    assert F._tables is G._tables
    # elements of equal fields interoperate
    assert F.from_index(7) * G.from_index(9) == G.from_index(7) * F.from_index(9)


def test_fq_tables_reject_reducible_modulus_under_O():
    # x^2 + 1 = (x - 2)(x + 2) over F_5 has no element of order 24; the
    # table builder must say so even with asserts stripped
    code = (
        "from airycheck import VerificationError\n"
        "from airycheck.arith import FqTables\n"
        "try:\n"
        "    FqTables(5, (1, 0, 1))\n"
        "except VerificationError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: no primitive element"), out.stdout


def test_cyclotomic_basics():
    p = 5
    z = CyclotomicValue.zeta_pow(p, 1)
    acc = CyclotomicValue(p)
    for k in range(p):
        acc = acc + CyclotomicValue.zeta_pow(p, k)
    assert not acc  # sum of all p-th roots of unity vanishes
    assert z * CyclotomicValue.zeta_pow(p, 4) == CyclotomicValue.zeta_pow(p, 0)
    assert CyclotomicValue.zeta_pow(p, 7) == CyclotomicValue.zeta_pow(p, 2)
    assert z.galois(2) == CyclotomicValue.zeta_pow(p, 2)


def test_cyclotomic_embed():
    p = 7
    z = CyclotomicValue.zeta_pow(p, 3)
    assert cmath.isclose(z.embed(), cmath.exp(2j * cmath.pi * 3 / p))
    assert CyclotomicValue.zeta_pow(p, 0).embed() == 1 + 0j


def test_psi_orthogonality():
    # sum_x psi(c x) = p if c = 0 else 0
    p = 7
    F = GF(p)
    for c in F.elements():
        acc = CyclotomicValue(p)
        for x in F.elements():
            acc = acc + psi(p, c * x)
        expected = CyclotomicValue(p, [p] + [0] * (p - 2)) if not c else CyclotomicValue(p)
        assert acc == expected


def test_psi_trace_extension():
    p, e = 5, 2
    F = FqField(p, e)
    acc = CyclotomicValue(p)
    for x in F.elements():
        acc = acc + psi(p, x)
    assert not acc  # nontrivial additive character sums to zero over F_q


def test_multipoly_arithmetic():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert max(sum(e) for e in f.terms) == 2
    assert f.evaluate({"x": Fraction(3), "y": Fraction(2)}) == 5
    g = f.substitute({"y": x})
    assert not g
    F = GF(7)
    h = MultiPoly(vs, {e: F(c) for e, c in f.terms.items()})
    assert h.evaluate({"x": F(3), "y": F(1)}) == F(1)
