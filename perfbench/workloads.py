"""Seeded case lists for the three benchmark workloads.

A case is a ``(label, thunk)`` pair.  The thunk calls airycheck's public
functions and returns ``None`` when every verdict it checks holds, or a short
witness string when one does not; a thunk that raises is a failed case too.
Library functions are looked up on their modules at call time, so the
tracer's patches in ``tracer.py`` apply to these calls.

All workloads are closed loops: one caller, and the next case starts after
the previous verdict.
"""

from __future__ import annotations

import random
from collections import Counter

from airycheck import arith, chevalley, expsum, gln_airy, loopmodel, rootdata

# The type list is fixed here instead of read from the CLI's suite, so the
# work measured stays the same when that suite grows.
LIE_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", 4), ("G", 2), ("F", 4)]
)
# Over F_5 the quadratic brute force needs p > h, which only these pass.
QUADRATIC_TYPES = [("GL", 2, "gl"), ("GL", 4, "gl"), ("C", 2, "sc")]

TRACE_GRID = [(2, p, e) for p in (5, 7, 11) for e in (1, 2)] + [(4, p, 1) for p in (7, 11)]
TRACE_LAMBDAS = 3  # seeded lambda vectors per grid point

LOOP_PRIME = 7
FACTOR_SAMPLES = 100  # per (n, mu), as in the factorization check
ROUNDTRIPS = 500  # exp/log section round trips per n
ADDITIVITY_PAIRS = 1000
S1_SAMPLES = 200


def build(workload: str, seed: int, canary: bool = False):
    """The case list of one workload, drawn from ``seed``.

    With ``canary``, the first case is replaced by one whose verdict is
    wrong on purpose, so the run must report a failure.
    """
    rng = random.Random(seed)
    if workload == "trace":
        cases = _trace_cases(rng)
        if canary:
            cases[0] = ("canary: brute table for another lambda",
                        _brute_vs_airy_case(2, 7, 1, (3,), shift=1))
        return cases
    if workload == "lie":
        if canary:
            raise ValueError("the lie workload has no canary case")
        return _lie_cases(rng)
    if workload == "loop":
        cases = _loop_cases(rng)
        if canary:
            cases[0] = ("canary: perturbed residual factor",
                        _factor_case(3, (1, 0, 0), seed, 1, perturb=True))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# trace: Airy and Hecke trace tables over F_q, brute fiber sums, Weil bounds.

def _field(p, e):
    return arith.GF(p) if e == 1 else arith.FqField(p, e)


def _trace_cases(rng):
    cases = []
    for n, p, e in TRACE_GRID:
        for _ in range(TRACE_LAMBDAS):
            lam = tuple(rng.randrange(p) for _ in range(n // 2))
            cases.append((f"trace n={n} q={p}^{e} lambda={lam}", _trace_case(n, p, e, lam)))
    return cases


def _trace_case(n, p, e, lam):
    def run():
        v = expsum.compare_traces(n, p, e, lam, brute=True)
        if not v.ok:
            return f"compare_traces {v.detail}"
        params = gln_airy.make_params(n, _field(p, e), lam)
        table = expsum.airy_trace_table(gln_airy.f_poly(params), p, e, lam=params.lam)
        if len(table.entries) != p ** e:
            return f"Airy table has {len(table.entries)} entries, want {p ** e}"
        w = expsum.weil_check(table)
        if not w.ok:
            return f"weil_check {w.detail}"
        return None

    return run


def _brute_vs_airy_case(n, p, e, lam, shift):
    """Tate-twisted Airy table for ``lam`` against the brute fiber sums for
    ``lam`` shifted by ``shift``; only ``shift=0`` can agree."""
    def run():
        field = _field(p, e)
        good = gln_airy.make_params(n, field, lam)
        bad = gln_airy.make_params(n, field, tuple((x + shift) % p for x in lam))
        q = p ** e
        airy = expsum.airy_trace_table(gln_airy.f_poly(good), p, e, lam=good.lam)
        twist = arith.CyclotomicValue(p, [q ** (n // 2 - 1)] + [0] * (p - 2))
        twisted = airy.scaled(twist, "airy-twisted")
        brute = expsum.hecke_trace_table(bad, brute=True)
        if twisted.entries != brute.entries:
            return "twisted Airy table differs from the brute fiber sums"
        return None

    return run


# ---------------------------------------------------------------------------
# lie: Chevalley algebras over Q, the decomposition, relevance, root data.

def _lie_cases(rng):
    cases = [(f"lie {s}{r}", _lie_case(s, r)) for s, r in LIE_TYPES]
    cases += [(f"quadratic {s}{r} {form} over F_5", _quadratic_case(s, r, form))
              for s, r, form in QUADRATIC_TYPES]
    rng.shuffle(cases)
    return cases


def _lie_case(series, rank):
    def run():
        bad = []
        # the adjoint form carries every minuscule class
        rd = rootdata.get_root_datum(series, rank, "adjoint")
        alg = chevalley.build_algebra(rd, chevalley.QQ)
        h = alg.h
        mult = Counter(rootdata.exponents(rd))
        zs = chevalley.centralizer_z(alg)
        for r in range(1, h):
            if len(zs[r].basis) != mult[r]:
                bad.append(f"dim z_{r} = {len(zs[r].basis)}, want {mult[r]}")
            if not chevalley.p_minus_bijective(alg, r):
                bad.append(f"p_- not bijective at r={r}")
        for mu in rootdata.minuscule_coweights(rd):
            chevalley.wP_representative(alg, mu)
            for r in range(1, h):
                if not chevalley.decomposition_check(alg, mu, r):
                    bad.append(f"decomposition mu={mu.coords} r={r}")
            loopmodel.stab_affine_roots(alg, mu)
        for r in range(2, (h + 1) // 2 + 1):
            if not chevalley.relevance_linear_kernel(alg, r):
                bad.append(f"linear relevance kernel r={r}")
        if rootdata.dim_bunJ_defect(rd) != 0:
            bad.append("dim Bun_J defect")
        if not rootdata.minuscule_bijection_check(rd):
            bad.append("minuscule bijection")
        if not rootdata.swan_identity_check(rd):
            bad.append("Swan identity")
        if rank <= 3:
            bad += _stab_box(rd)
        return "; ".join(bad) or None

    return run


def _stab_box(rd):
    """Stabilizer dichotomy over the coweight box [-2, 2]^rank."""
    bad = []

    def scan(coords):
        if len(coords) == rd.rank:
            mu = rootdata.Coweight(tuple(coords))
            d = rootdata.stab_dimension(rd, mu)
            minuscule = rd.is_dominant(mu) and rd.is_minuscule(mu)
            if d < rd.dim_b or (d == rd.dim_b) != minuscule:
                bad.append(f"stab dimension mu={tuple(coords)}")
            return
        for c in range(-2, 3):
            scan(coords + [c])

    scan([])
    return bad


def _quadratic_case(series, rank, form):
    def run():
        rd = rootdata.get_root_datum(series, rank, form)
        alg = chevalley.build_algebra(rd, arith.GF(5))
        sols = chevalley.relevance_quadratic_bruteforce(alg)
        if not any(not any(s) for s in sols):
            return "the zero solution is missing"
        nonzero = sum(1 for s in sols if any(s))
        return f"{nonzero} nonzero solutions" if nonzero else None

    return run


# ---------------------------------------------------------------------------
# loop: I(1) factorizations over F_7, the section algebra, the S(1) graph.

def _loop_cases(rng):
    cases = []
    for n in (2, 3, 4):
        # the minuscule coweights of GL_n in degree window (0, 0)
        for k in range(n):
            mu = (1,) * k + (0,) * (n - k)
            cases.append((f"factorize n={n} mu={mu}",
                          _factor_case(n, mu, rng.randrange(2 ** 32), FACTOR_SAMPLES)))
    for n in (2, 4):
        for _ in range(ROUNDTRIPS):
            y = [rng.randrange(11) for _ in range(n + 1)]
            cases.append((f"exp/log n={n} y={y}", _roundtrip_case(n, y)))
    for _ in range(ADDITIVITY_PAIRS):
        a = [rng.randrange(LOOP_PRIME) for _ in range(5)]
        b = [rng.randrange(LOOP_PRIME) for _ in range(5)]
        cases.append((f"chi additivity a={a} b={b}", _additivity_case(a, b)))
    for p, e, n, lam in ((7, 1, 2, (3,)), (11, 1, 4, (2, 3)), (7, 2, 2, (1,)), (11, 2, 4, (1, 0))):
        cases.append((f"chi geometric n={n} q={p}^{e}", _geometric_case(p, e, n, lam)))
    for n in (4, 6):
        cases.append((f"s1 graph GL{n}", _s1_case(n, rng.randrange(2 ** 32))))
    return cases


def _factor_case(n, mu, subseed, samples, perturb=False):
    """``samples`` seeded elements of I(1), factorized with one model, as
    the factorization check does."""
    def run():
        model = loopmodel.GLnModel(n, LOOP_PRIME)
        rng = random.Random(subseed)
        for i in range(samples):
            g = model.random_I1(rng)
            u, a, s, res = loopmodel.factorize_I1(model, g, rootdata.Coweight(mu))
            if perturb:  # deep enough to keep the depth check passing
                res[-1][0][0] = res[-1][0][0] + 1
            if not model.in_filtration(res, 1 + (n + 1) // 2):
                return f"sample {i}: residual too shallow"
            if not model.eq(model.mul(model.mul(model.mul(u, a), s), res), g):
                return f"sample {i}: u*a*s*res != g"
        return None

    return run


def _roundtrip_case(n, y):
    def run():
        F = arith.GF(11)
        ys = [F(v) for v in y]
        back = gln_airy.log_section(n, F, gln_airy.exp_section(n, F, ys))
        return None if back == ys else "log(exp(y)) != y"

    return run


def _additivity_case(a, b):
    def run():
        F = arith.GF(LOOP_PRIME)
        prm = gln_airy.make_params(4, F, (1, 2))
        xa, xb = [F(v) for v in a], [F(v) for v in b]
        lhs = gln_airy.chi_eval(prm, gln_airy.section_mul(4, F, xa, xb))
        ok = lhs == gln_airy.chi_eval(prm, xa) + gln_airy.chi_eval(prm, xb)
        return None if ok else "chi(ab) != chi(a) + chi(b)"

    return run


def _geometric_case(p, e, n, lam):
    def run():
        prm = gln_airy.make_params(n, _field(p, e), lam)
        for m1 in prm.field.elements():
            if gln_airy.chi_geometric(prm, m1) != gln_airy.chi_eval(
                prm, gln_airy.geometric_section(prm, m1)
            ):
                return f"chi_geometric at m1={m1}"
        return None

    return run


def _s1_case(n, subseed):
    def run():
        alg = chevalley.build_algebra(rootdata.get_root_datum("GL", n, "gl"), arith.GF(LOOP_PRIME))
        graph = chevalley.s1_graph(alg)
        if not chevalley.s1_graph_check(alg, graph, random.Random(subseed), S1_SAMPLES):
            return "sampled relations fail"
        return None

    return run
