import cmath
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import airycheck
from airycheck.arith import (
    GF,
    CyclotomicValue,
    FqElement,
    FqField,
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
