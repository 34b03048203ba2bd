import hashlib
import random

import pytest

from airycheck import gln_airy
from airycheck.arith import GF, FqField
from airycheck.gln_airy import (
    chi_eval,
    chi_geometric,
    exp_section,
    f_poly,
    geometric_section,
    hecke_forms,
    log_section,
    make_params,
    poly_eval,
    section_mul,
)
from airycheck.loopmodel import GLnModel, phi_z_values, z_element

import hecke_oracle


def test_z_element_levels():
    model = GLnModel(4, 7)
    F = model.field
    z1 = z_element(model, 1)
    # E_{i,i+1} entries at t^0, the wrapped E_{4,1} at t^1
    assert z1[0][0][1] == F(1) and z1[0][1][2] == F(1) and z1[0][2][3] == F(1)
    assert z1[1][3][0] == F(1)
    z5 = z_element(model, 5)
    # E_1^5 = E_1 shifted one full period: everything one t-level up
    assert z5[1][0][1] == F(1) and z5[2][3][0] == F(1)
    with pytest.raises(ValueError):
        z_element(model, 6)


def test_z_mul_relation():
    # the series product of Z_i and Z_j matches Z_{i+j}
    model = GLnModel(4, 11)
    for i in range(1, 4):
        for j in range(1, 5 - i + 1):
            if i + j <= 5:
                assert model.eq(
                    model.mul(z_element(model, i), z_element(model, j)),
                    z_element(model, i + j),
                )


def test_phi_z_values():
    model = GLnModel(4, 7)
    vals = phi_z_values(model)
    F = model.field
    assert vals == [F(0), F(0), F(0), F(0), F(4)]


def test_section_mul_and_exp_log():
    n = 4
    F = GF(11)
    rng = random.Random(5)
    for _ in range(500):
        y = [F(rng.randrange(11)) for _ in range(n + 1)]
        assert log_section(n, F, exp_section(n, F, y)) == y
        x = [F(rng.randrange(11)) for _ in range(n + 1)]
        assert exp_section(n, F, log_section(n, F, x)) == x


def test_exp_log_roundtrip_n2():
    n = 2
    F = GF(11)
    rng = random.Random(6)
    for _ in range(500):
        y = [F(rng.randrange(11)) for _ in range(n + 1)]
        assert log_section(n, F, exp_section(n, F, y)) == y


def test_chi_additive():
    # chi is a homomorphism on the section group
    n = 4
    F = GF(11)
    params = make_params(n, F, (1, 3))
    rng = random.Random(7)
    for _ in range(1000):
        x = [F(rng.randrange(11)) for _ in range(n + 1)]
        y = [F(rng.randrange(11)) for _ in range(n + 1)]
        assert chi_eval(params, section_mul(n, F, x, y)) == chi_eval(
            params, x
        ) + chi_eval(params, y)


def test_chi_geometric_matches_chi_eval():
    n = 2
    for field in (GF(7), FqField(11, 2)):
        params = make_params(n, field, (2,))
        for m1 in field.elements():
            assert chi_geometric(params, m1) == chi_eval(
                params, geometric_section(params, m1)
            )


def test_chi_geometric_matches_chi_eval_n4():
    F = GF(11)
    params = make_params(4, F, (1, 5))
    for m1 in F.elements():
        assert chi_geometric(params, m1) == chi_eval(
            params, geometric_section(params, m1)
        )


@pytest.mark.parametrize("p,e", [(7, 1), (11, 1), (7, 2)])
def test_poly_eval_matches_powers(p, e):
    # Horner on coefficient indices against sum c_i x^i with field
    # operators, on every x, for coefficient lists with zeros, a zero top
    # one, and the empty list: one point at a time (poly_eval) and as the
    # row of every index of F_q in one call (the kernel behind it)
    F = FqField(p, e)
    rng = random.Random(p * e)
    lists = [[F.from_index(rng.randrange(F.q)) if rng.random() < 0.7 else F(0)
              for _ in range(rng.randrange(1, 10))] for _ in range(6)]
    for coeffs in lists + [[F(3), F(0), F(0)], []]:
        idx = [c.v for c in coeffs]
        want = [sum((c * x ** i for i, c in enumerate(coeffs)), F(0)) for x in F.elements()]
        assert [poly_eval(F, idx, x) for x in F.elements()] == want
        assert gln_airy._horner(F._tables, idx, range(F.q)) == [w.v for w in want]


def test_hecke_p2_specialization():
    n = 4
    F = GF(11)
    # p_2(m1, m2, m3) = -(m2 m1 + m3)
    m = [F(2), F(3), F(5)]
    assert hecke_oracle.p2(n, F, m) == -(F(3) * F(2) + F(5))
    _, _, w2 = hecke_forms(n, F._tables, F(2).v)
    assert [F.from_index(w) for w in w2] == [-F(2), -F(1)]
    with pytest.raises(ValueError):
        hecke_forms(3, F._tables, 1)


def test_hecke_p1_on_geometric_locus():
    # with m_r = m1^r the corrections vanish against chi_geometric's shape
    n = 4
    F = GF(11)
    params = make_params(n, F, (1, 0))
    f = [c.v for c in f_poly(params)]
    for m1 in F.elements():
        m = [m1, F(0), F(0)]
        a = hecke_oracle.p2(n, F, m)
        # fiber identity: p_1 = f(m1) + m1 * a on the fiber p_2 = a
        assert hecke_oracle.p1(params, m) == poly_eval(F, f, m1) + m1 * a


def test_fiber_identity_random():
    n = 4
    F = GF(7)
    params = make_params(n, F, (2, 3))
    f = [c.v for c in f_poly(params)]
    rng = random.Random(8)
    for _ in range(200):
        m = [F(rng.randrange(7)) for _ in range(1 + n // 2)]
        a = hecke_oracle.p2(n, F, m)
        assert hecke_oracle.p1(params, m) == poly_eval(F, f, m[0]) + m[0] * a


@pytest.mark.parametrize("n,p,e", [(2, 5, 2), (4, 7, 2), (6, 11, 1)])
def test_hecke_maps_match_field_formulas(n, p, e):
    # hecke_forms works on indices; evaluated here with the field's
    # operators and with chi_geometric added, on every m_1 and random tails,
    # it must give the maps of the field-operator oracle
    F = FqField(p, e)
    rng = random.Random(n * p + e)
    params = make_params(n, F, [rng.randrange(p) for _ in range(n // 2)])
    for m1 in F.elements():
        c, w1, w2 = hecke_forms(n, F._tables, m1.v)
        for _ in range(4):
            m = [m1] + [F.from_index(rng.randrange(F.q)) for _ in range(n // 2)]
            form = lambda const, w: sum((x * F.from_index(y) for x, y in zip(m[1:], w)), const)
            assert form(F(0), w2) == hecke_oracle.p2(n, F, m)
            p1 = chi_geometric(params, m1) + form(F.from_index(c), w1)
            assert p1 == hecke_oracle.p1(params, m)


def test_f_poly_n4():
    F = GF(11)
    params = make_params(4, F, (1, 0))
    f = f_poly(params)
    # f(m) = m - m^5/5 over F_11
    assert f == [F(0), F(1), F(0), F(0), F(0), -F(1) / F(5)]
    assert f[-1]


def test_invalid_params():
    with pytest.raises(ValueError):
        make_params(3, GF(7), (1,))  # odd n
    with pytest.raises(ValueError):
        make_params(4, GF(5), (1, 0))  # p <= n + 1
    with pytest.raises(ValueError):
        make_params(4, GF(11), (1,))  # wrong lambda length


# The section kernels run on element indices; these restate them with the
# field's operators, as the code before the index kernels computed them.

def _oracle_trunc_mul(n, F, a, b):
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j + 1 <= n:
                out[i + j + 1] = out[i + j + 1] + x * y
    return out


def _oracle_series(n, F, coeff, x):
    """sum_{r=1}^{n+1} coeff(r) X^r."""
    out, power = [F(0)] * (n + 1), list(x)
    for r in range(1, n + 2):
        out = [o + coeff(r) * c for o, c in zip(out, power)]
        power = _oracle_trunc_mul(n, F, power, x)
    return out


def _oracle_exp(n, F, y):
    fact = lambda r: F(1) if r == 0 else fact(r - 1) * r
    return _oracle_series(n, F, lambda r: F(1) / fact(r), y)


def _oracle_log(n, F, x):
    return _oracle_series(n, F, lambda r: F((-1) ** (r + 1)) / F(r), x)


def _oracle_chi(params, x):
    n, F = params.n, params.field
    y = _oracle_log(n, F, x)
    return sum((lam * v for lam, v in zip(params.lam, y)), F(0)) + F(n) * y[n]


# GF(7), GF(11), F_25, F_49, F_121 for n = 2, 4, 6, where the section needs
# p > n + 1, and GF(11), GF(13) for n = 8, where exp and log divide by k up to 9
ORACLE_CASES = [(n, p, e) for n in (2, 4, 6) for p, e in ((7, 1), (11, 1), (5, 2), (7, 2), (11, 2))
                if p > n + 1] + [(8, 11, 1), (8, 13, 1)]


@pytest.mark.parametrize("n,p,e", ORACLE_CASES)
def test_section_kernels_match_field_operators(n, p, e):
    # lambda is drawn from all of F_q, so over F_{p^e} it leaves F_p; chi's
    # coefficients, computed on indices, are checked against the divisions
    F = FqField(p, e)
    rng = random.Random(31 * n + 7 * p + e)
    params = make_params(n, F, [F.from_index(rng.randrange(F.q)) for _ in range(n // 2)])
    geo = [F(0)] * (n + 2)
    for r, lam in enumerate(params.lam, start=1):
        geo[r] = lam / F(r)
    geo[n + 1] = F(n) / F(n + 1)
    assert params._chi_geo_indices == [c.v for c in geo]
    # dense vectors, sparse ones and the zero vector
    vec = lambda density: [F.from_index(rng.randrange(F.q)) if rng.random() < density else F(0)
                           for _ in range(n + 1)]
    for density in [1.0] * 20 + [0.3] * 20 + [0.0]:
        a, b = vec(density), vec(density)
        assert section_mul(n, F, a, b) == [x + y + z for x, y, z in zip(a, b, _oracle_trunc_mul(n, F, a, b))]
        assert exp_section(n, F, a) == _oracle_exp(n, F, a)
        assert log_section(n, F, a) == _oracle_log(n, F, a)
        assert chi_eval(params, a) == _oracle_chi(params, a)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("p,e", [(7, 1), (11, 1), (7, 2), (11, 2)])
def test_exp_log_recurrences_match_the_power_series(n, p, e):
    # the index recurrences, with their inline table lookups, against
    # sum X^r / r! and sum (-1)^(r+1) X^r / r summed in field elements
    F = FqField(p, e)
    tab = F._tables
    rng = random.Random(1000 * n + 10 * p + e)
    zero = [F(0)] * (n + 1)
    one_hot = [zero[:r] + [F(1)] + zero[r + 1:] for r in range(n + 1)]
    seeded = [[F.from_index(rng.randrange(F.q)) for _ in range(n + 1)] for _ in range(200)]
    for x in [zero] + one_hot + seeded:
        idx = [v.v for v in x]
        assert gln_airy._exp_series(tab, n, idx) == [v.v for v in _oracle_exp(n, F, x)]
        assert gln_airy._log_series(tab, n, idx) == [v.v for v in _oracle_log(n, F, x)]


def test_section_kernels_build_field_elements_only_at_exit(monkeypatch):
    # entry reads .v and exit builds one element per output coefficient:
    # the exp/log recurrences and Horner's rule build none
    from airycheck import arith

    n, F = 4, FqField(7, 2)
    params = make_params(n, F, (1, 2))
    rng = random.Random(12)
    a, b = ([F.from_index(rng.randrange(F.q)) for _ in range(n + 1)] for _ in range(2))
    made = []
    fq = arith._fq
    monkeypatch.setattr(arith, "_fq", lambda field, v: made.append(v) or fq(field, v))
    for kernel, outputs in (
        (lambda: section_mul(n, F, a, b), n + 1),
        (lambda: exp_section(n, F, a), n + 1),
        (lambda: log_section(n, F, a), n + 1),
        (lambda: chi_eval(params, a), 1),
        (lambda: poly_eval(F, [c.v for c in b], a[0]), 1),
    ):
        made.clear()
        kernel()
        assert len(made) == outputs


# n = 2, 4, 6 over GF(7), GF(11), F_49 and F_121, wherever p > n + 1
PIN_CASES = [(n, p, e) for p in (7, 11) for e in (1, 2) for n in (2, 4, 6) if p > n + 1]


def _section_and_chi_outputs():
    """The indices of section_mul, exp_section, log_section and chi_eval on
    seeded inputs (about a third of their entries 0) and of chi_geometric
    at every m_1, for every case of PIN_CASES."""
    rows = []
    for n, p, e in PIN_CASES:
        F = FqField(p, e)
        rng = random.Random(f"section-pin {n} {p} {e}")
        draw = lambda: F.from_index(rng.randrange(F.q) if rng.random() < 0.7 else 0)
        params = make_params(n, F, [draw() for _ in range(n // 2)])
        for _ in range(6):
            a, b = ([draw() for _ in range(n + 1)] for _ in range(2))
            rows.append((
                (n, p, e),
                [x.v for x in section_mul(n, F, a, b)],
                [x.v for x in exp_section(n, F, a)],
                [x.v for x in log_section(n, F, a)],
                chi_eval(params, a).v,
            ))
        rows.append([chi_geometric(params, m1).v for m1 in F.elements()])
    return rows


def test_section_and_chi_outputs_pinned():
    digest = hashlib.sha256(repr(_section_and_chi_outputs()).encode()).hexdigest()
    assert digest == "c09ec06ef86ff3f50c4ea5e661f5025530b806500862a8e061a67267920019db"


def _oracle_airy_coefficients(params):
    """chi_geometric's and f's coefficients, constant term first, with the
    field's operators: sum (lambda_r/r) m^r plus (n/(n+1)) m^{n+1}, and plus
    -m^{n+1}/(n+1)."""
    n, F = params.n, params.field
    low = [F(0)] * (n + 1)
    for r, lam in enumerate(params.lam, start=1):
        low[r] = lam / F(r)
    return low + [F(n) / F(n + 1)], low + [-(F(1) / F(n + 1))]


@pytest.mark.parametrize("n,p,e", PIN_CASES)
def test_chi_and_f_indices_match_field_operators(n, p, e):
    # CharacterParams states lambda_r/r once for both polynomials; each
    # index list is checked against the divisions, for lambda all zero, all
    # nonzero, with zero and nonzero entries, and drawn from all of F_q.
    # chi_geometric - f = m^{n+1} at every m ties the two top coefficients
    # to p_1's -m_1^{n+1} term.
    F = FqField(p, e)
    rng = random.Random(f"airy-coefficients {n} {p} {e}")
    half = n // 2
    lams = [
        (0,) * half,
        tuple(range(1, half + 1)),
        tuple(r % 2 for r in range(1, half + 1)),
        (0,) + tuple(F.from_index(rng.randrange(1, F.q)) for _ in range(half - 1)),
        tuple(F.from_index(rng.randrange(F.q)) for _ in range(half)),
    ]
    for lam in lams:
        params = make_params(n, F, lam)
        chi, f = _oracle_airy_coefficients(params)
        assert params._chi_geo_indices == [c.v for c in chi]
        assert params._f_indices == [c.v for c in f]
        assert f_poly(params) == f
        for m in F.elements():
            assert chi_geometric(params, m) - poly_eval(F, params._f_indices, m) == m ** (n + 1)


@pytest.mark.parametrize("n,p,e", [(2, 7, 2), (4, 11, 1), (6, 11, 2)])
def test_f_poly_builds_its_coefficients_without_division(n, p, e, monkeypatch):
    # f's coefficients are read off params._f_indices: f_poly divides
    # nothing in the field and makes exactly its n + 2 coefficients
    from airycheck import arith

    params = make_params(n, FqField(p, e), (2,) * (n // 2))

    def refuse(*args):
        raise AssertionError("f_poly divided in the field")

    monkeypatch.setattr(arith.FqElement, "__truediv__", refuse)
    monkeypatch.setattr(arith.FqElement, "inverse", refuse)
    made, fq = [], arith._fq
    monkeypatch.setattr(arith, "_fq", lambda field, v: made.append(v) or fq(field, v))
    f = f_poly(params)
    assert len(made) == n + 2
    assert [c.v for c in f] == params._f_indices
