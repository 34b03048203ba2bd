"""Command-line entry point: every verification as a subcommand.

Each acceptance check returns (params, failures), its params read from the
tuples and ranges its loops run.  `run_check` alone makes the verdict: `pass`
is `not failures`, and a failing verdict carries them as its `witness`.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from collections import Counter

from . import VerificationError
from .arith import GF, FqField
from .chevalley import (
    QQ,
    build_algebra,
    centralizer_z,
    decomposition_check,
    p_minus_bijective,
    relevance_linear_kernel,
    relevance_quadratic_bruteforce,
    s1_graph,
    s1_graph_check,
    wP_representative,
)
from .expsum import (
    airy_trace_table,
    compare_traces,
    hecke_trace_table,
    require_airy_budget,
    require_brute_budget,
    weil_check,
)
from .gln_airy import (
    chi_eval,
    chi_geometric,
    exp_section,
    f_poly,
    geometric_section,
    log_section,
    make_params,
    section_mul,
)
from .loopmodel import (
    GLnModel,
    draw_factorization,
    factorize_I1,
    odd_parahoric_check,
    phi_generic_check,
    phi_z_values,
    round_trip_mismatch,
    stab_affine_roots,
)
from .rootdata import (
    Coweight,
    alpha_mu,
    check_wP_heights,
    coxeter_number,
    dim_bunJ_defect,
    exponents,
    get_root_datum,
    minuscule_bijection_check,
    minuscule_coweights,
    stab_dimension,
    swan_identity_check,
    u_mu_roots,
    weyl_wP0,
)

DEFAULT_SEED = 20240817

SUITE_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", 4), ("G", 2), ("F", 4)]
)
SUITE_NAMES = [f"{s}{r}" for s, r in SUITE_TYPES]


def _suite_datum(series, rank):
    # the adjoint form carries the full coweight lattice, hence every
    # minuscule class
    return get_root_datum(series, rank, "adjoint")


def _suite(max_rank=None):
    """(name, adjoint datum) over the suite types, of rank <= max_rank if given."""
    for name, (series, rank) in zip(SUITE_NAMES, SUITE_TYPES):
        if max_rank is None or rank <= max_rank:
            yield name, _suite_datum(series, rank)


# ---------------------------------------------------------------------------
# Acceptance checks.  Each returns (params, failures).

# the (n, p, e, lambda) grids of the trace identities, which weil-bound
# runs on too: trace-identity-gl2 runs n = 2 and trace-identity-gl4 runs
# n = 4, 6 and 8, and each lists its grids in its params
TRACE_GRIDS = {
    2: {"p": [5, 7, 11], "e": [1, 2], "lambda1": [0, 1, 2]},
    4: {"p": [7, 11], "e": [1], "lambda": [(0, 0), (1, 0), (2, 3)]},
    6: {"p": [11, 13], "e": [1], "lambda": [(0, 0, 0), (1, 0, 0), (2, 5, 7)]},
    8: {"p": [11], "e": [1], "lambda": [(0, 0, 0, 0), (0, 1, 0, 0), (3, 1, 4, 9)]},
}


def _trace_cases(n):
    """(p, e, lambda) over the GL_n trace grid."""
    grid = TRACE_GRIDS[n]
    lams = grid.get("lambda") or [(l1,) for l1 in grid["lambda1"]]
    return [(p, e, lam) for p in grid["p"] for e in grid["e"] for lam in lams]


def _trace_check(ns):
    failures = []
    for n in ns:
        for p, e, lam in _trace_cases(n):
            v = compare_traces(n, p, e, lam)
            if not v.ok:
                failures.append(v.detail)
    return {f"n={n}": TRACE_GRIDS[n] for n in ns}, failures


def check_trace_gl2():
    return _trace_check((2,))


def check_trace_gl4():
    return _trace_check((4, 6, 8))


def check_weil():
    failures = []
    for n in TRACE_GRIDS:
        for p, e, lam in _trace_cases(n):
            params = make_params(n, FqField(p, e), lam)
            table = airy_trace_table(f_poly(params), p, e, lam=params.lam)
            v = weil_check(table)
            if not v.ok:
                failures.append({"n": n, "p": p, "e": e, "lambda": lam, **v.detail})
    return {f"n={n}": grid for n, grid in TRACE_GRIDS.items()}, failures


def check_decomposition():
    failures = []
    for name, rd in _suite():
        alg = build_algebra(rd, QQ)
        exp_counts = Counter(exponents(rd))
        zs = centralizer_z(alg)
        for r in range(1, alg.h):
            if len(zs[r].basis) != exp_counts[r]:
                failures.append({"type": name, "r": r, "what": "dim z_r"})
            if not p_minus_bijective(alg, r):
                failures.append({"type": name, "r": r, "what": "p_minus"})
        for mu in minuscule_coweights(rd):
            for r in range(1, alg.h):
                if not decomposition_check(alg, mu, r):
                    failures.append({"type": name, "mu": mu.coords, "r": r})
    return {"types": SUITE_NAMES}, failures


def check_rigidity_kernel():
    failures = []
    for name, rd in _suite():
        alg = build_algebra(rd, QQ)
        for r in range(2, (alg.h + 1) // 2 + 1):
            if not relevance_linear_kernel(alg, r):
                failures.append({"type": name, "r": r, "what": "linear"})
    quadratic, p = (("GL", 2, "gl"), ("GL", 4, "gl"), ("C", 2, "sc")), 5
    for series, rank, form in quadratic:
        alg = build_algebra(get_root_datum(series, rank, form), GF(p))
        sols = relevance_quadratic_bruteforce(alg)
        nonzero = [s for s in sols if any(s)]
        if nonzero:
            failures.append({"type": f"{series}{rank}", "what": "quadratic", "sols": len(nonzero)})
    params = {"linear": SUITE_NAMES, "quadratic": [f"{s}{r} {f}" for s, r, f in quadratic], "p": p}
    return params, failures


def check_factorization(seed=DEFAULT_SEED, samples=100):
    """Round trip: g built from random u_mu, a^mu, z and residual
    coordinates must factorize back to the same coordinates."""
    ns, p = (2, 3, 4), 7
    failures = []
    for n in ns:
        model = GLnModel(n, p)
        rng = random.Random(seed + n)
        for mu in minuscule_coweights(model.rd):
            for _ in range(samples):
                coords, prods, residual, g = draw_factorization(model, mu, rng)
                try:
                    found = factorize_I1(model, g, mu)
                except VerificationError as exc:
                    failures.append({"n": n, "mu": mu.coords, "what": str(exc)})
                    continue
                what = round_trip_mismatch(model, coords, prods, residual, found)
                if what:
                    failures.append({"n": n, "mu": mu.coords, "what": what})
    return {"n": list(ns), "p": p, "samples": samples, "seed": seed}, failures


# the forms the minuscule bijection runs on: on the adjoint form the dual is
# simply connected and the index is 1; on the sc form the index is |det C|
BIJECTION_FORMS = ("adjoint", "sc")


def check_dim_components():
    failures = []
    for name, rd in _suite():
        if dim_bunJ_defect(rd) != 0:
            failures.append({"type": name, "what": "defect"})
        for form in BIJECTION_FORMS:
            if not minuscule_bijection_check(get_root_datum(rd.series, rd.rank, form)):
                failures.append({"type": name, "form": form, "what": "bijection"})
    return {"types": SUITE_NAMES, "bijection_forms": list(BIJECTION_FORMS)}, failures


def check_stab_dichotomy():
    failures = []
    box = range(-2, 3)
    small = list(_suite(max_rank=3))
    for name, rd in small:
        dim_b = rd.dim_b
        for coords in itertools.product(box, repeat=rd.rank):
            mu = Coweight(coords)
            d = stab_dimension(rd, mu)
            if d < dim_b:
                failures.append({"type": name, "mu": coords})
            minuscule = rd.is_dominant(mu) and rd.is_minuscule(mu)
            if (d == dim_b) != minuscule:
                failures.append({"type": name, "mu": coords, "what": "equality"})
    return {"types": [name for name, _ in small], "box": [box[0], box[-1]]}, failures


def check_weyl_appendix():
    failures = []
    odd_h = []
    for name, rd in _suite():
        alg = build_algebra(rd, QQ)
        if not phi_generic_check(alg):
            failures.append({"type": name, "what": "phi generic"})
        if alg.h % 2:
            odd_h.append(name)
            if not odd_parahoric_check(alg):
                failures.append({"type": name, "what": "odd parahoric"})
        for mu in minuscule_coweights(rd):
            tag = {"type": name, "mu": mu.coords}
            if not check_wP_heights(rd, mu):
                failures.append({**tag, "what": "heights mod h"})
            try:
                u_mu_roots(rd, mu)  # checks w_P Phi+ = Phi(u_mu)
                wP_representative(alg, mu)  # checks Ad fixes X_{-1}
                stab_affine_roots(alg, mu)  # checks the affine line set
            except VerificationError as exc:
                failures.append({**tag, "what": str(exc)})
                continue
            i = alpha_mu(rd, mu)
            if i is not None:
                if weyl_wP0(rd, mu).apply_root(rd.theta) != rd.simple_roots[i]:
                    failures.append({**tag, "what": "w_P0 theta"})
    return {"types": SUITE_NAMES, "phi_generic": SUITE_NAMES, "odd_parahoric": odd_h}, failures


# what check_character runs: the exp/log round trips (n, p, samples), the
# additivity pairs (n, p, lambda, pairs), the chi_geometric fields
# (p, e, n, lambda) and the phi(Z) models (n, p)
CHI_ROUNDTRIPS = ((2, 11, 500), (4, 11, 500))
CHI_ADDITIVITY = (4, 7, (1, 2), 1000)
CHI_GEOMETRIC = ((7, 1, 2, (3,)), (11, 1, 4, (2, 3)), (7, 2, 2, (1,)), (11, 2, 4, (1, 0)))
PHI_Z_MODELS = ((2, 7), (4, 7), (4, 11))


def check_character(seed=DEFAULT_SEED):
    failures = []
    rng = random.Random(seed)
    for n, p, samples in CHI_ROUNDTRIPS:
        F = GF(p)
        for _ in range(samples):
            y = [F(rng.randrange(p)) for _ in range(n + 1)]
            if log_section(n, F, exp_section(n, F, y)) != y:
                failures.append({"n": n, "what": "roundtrip"})
                break
    n, p, lam, pairs = CHI_ADDITIVITY
    F = GF(p)
    params = make_params(n, F, lam)
    for _ in range(pairs):
        a = [F(rng.randrange(p)) for _ in range(n + 1)]
        b = [F(rng.randrange(p)) for _ in range(n + 1)]
        if chi_eval(params, section_mul(n, F, a, b)) != chi_eval(params, a) + chi_eval(params, b):
            failures.append({"what": "additivity"})
            break
    for p, e, n, lam in CHI_GEOMETRIC:
        field = FqField(p, e)
        prm = make_params(n, field, lam)
        for m1 in field.elements():
            if chi_geometric(prm, m1) != chi_eval(prm, geometric_section(prm, m1)):
                failures.append({"n": n, "q": field.q, "what": "geometric"})
                break
    for n, p in PHI_Z_MODELS:
        vals = phi_z_values(GLnModel(n, p))
        if any(vals[:-1]) or vals[-1] != GF(p)(n):
            failures.append({"n": n, "p": p, "what": "phi(Z)"})
    params = {
        "n": [n for n, _, _ in CHI_ROUNDTRIPS],
        "seed": seed,
        "roundtrip": [{"n": n, "p": p, "samples": k} for n, p, k in CHI_ROUNDTRIPS],
        "additivity": dict(zip(("n", "p", "lambda", "pairs"), CHI_ADDITIVITY)),
        "geometric": [{"q": p ** e, "n": n, "lambda": lam} for p, e, n, lam in CHI_GEOMETRIC],
        "phi_z": [{"n": n, "p": p} for n, p in PHI_Z_MODELS],
    }
    return params, failures


def check_s1_graph(seed=DEFAULT_SEED):
    ns, p, samples = (4, 6), 7, 200
    failures = []
    for n in ns:
        alg = build_algebra(get_root_datum("GL", n, "gl"), GF(p))
        try:
            graph = s1_graph(alg)
        except (VerificationError, ValueError) as exc:
            failures.append({"n": n, "what": str(exc)})
            continue
        if not s1_graph_check(alg, graph, random.Random(seed + n), samples):
            failures.append({"n": n, "what": "sample relations"})
    return {"n": list(ns), "p": p, "samples": samples, "seed": seed}, failures


def check_swan():
    failures = []
    for name, rd in _suite():
        if not swan_identity_check(rd):
            failures.append({"type": name})
    return {"types": SUITE_NAMES}, failures


ACCEPTANCE = [
    ("trace-identity-gl2", check_trace_gl2),
    ("trace-identity-gl4", check_trace_gl4),
    ("weil-bound", check_weil),
    ("decomposition", check_decomposition),
    ("rigidity-kernel", check_rigidity_kernel),
    ("factorization", check_factorization),
    ("dim-and-components", check_dim_components),
    ("stab-dichotomy", check_stab_dichotomy),
    ("weyl-appendix", check_weyl_appendix),
    ("character-machinery", check_character),
    ("s1-graph", check_s1_graph),
    ("swan-identity", check_swan),
]


# the checks that draw random samples, and so take the global --seed
SEEDED_CHECKS = {"factorization", "character-machinery", "s1-graph"}


def run_check(name, fn):
    t0 = time.perf_counter()
    params, failures = fn()
    verdict = {
        "check": name,
        "params": params,
        "pass": not failures,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    if failures:
        verdict["witness"] = failures
    return verdict


def emit_report(verdicts, seed=None):
    from . import __version__

    doc = {"checks": verdicts, "version": __version__}
    if seed is not None:
        doc["seed"] = seed
    return json.dumps(doc, indent=2, default=str)


# ---------------------------------------------------------------------------
# Subcommands.

def _parse_lambda(s):
    return tuple(int(x) for x in s.split(",")) if s else ()


def cmd_roots(args):
    rd = get_root_datum(args.series, args.rank, args.form)
    out = {
        "series": args.series,
        "rank": args.rank,
        "form": args.form,
        "num_roots": rd.num_roots,
        "coxeter_number": coxeter_number(rd),
        "exponents": list(exponents(rd)),
        "theta": list(rd.theta),
        "minuscule": [list(m.coords) for m in minuscule_coweights(rd)],
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_grading(args):
    rd = get_root_datum(args.series, args.rank, args.form)
    alg = build_algebra(rd, QQ)
    zs = centralizer_z(alg)
    out = {
        "type": f"{args.series}{args.rank}",
        "h": alg.h,
        "dim_g": rd.dim_g,
        "dim_z": {r: len(zs[r].basis) for r in range(alg.h) if zs[r].basis},
        "heights": {str(k): v for k, v in sorted(rd.heights_count().items())},
    }
    print(json.dumps(out, indent=2))
    return 0


# every headline check by its own name, plus the groups
VERIFY_MAP = {
    **{name: [name] for name, _ in ACCEPTANCE},
    "stab": ["stab-dichotomy"],
    "dim": ["dim-and-components", "swan-identity"],
    "all": [name for name, _ in ACCEPTANCE],
}


def cmd_verify(args):
    wanted = VERIFY_MAP[args.what]
    verdicts = [
        run_check(n, functools.partial(fn, seed=args.seed) if n in SEEDED_CHECKS else fn)
        for n, fn in ACCEPTANCE
        if n in wanted
    ]
    for v in verdicts:
        if not v["pass"]:  # the one command that reruns this check alone
            v["repro"] = f"airycheck --seed {args.seed} verify {v['check']}"
    print(emit_report(verdicts, seed=args.seed))
    return 0 if all(v["pass"] for v in verdicts) else 1


def cmd_chi(args):
    field = FqField(args.prime, args.ext)
    params = make_params(args.n, field, _parse_lambda(args.lam))
    out = {
        "n": args.n,
        "q": args.prime ** args.ext,
        "lambda": [str(x) for x in params.lam],
        "chi_geometric": str(chi_geometric(params, field(args.m1))),
        "f": [str(c) for c in f_poly(params)],
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_trace(args):
    if args.kind == "airy":
        require_airy_budget(args.prime, args.ext)
    else:
        require_brute_budget(args.prime, args.ext, args.n)
    params = make_params(args.n, FqField(args.prime, args.ext), _parse_lambda(args.lam))
    if args.kind == "airy":
        table = airy_trace_table(f_poly(params), args.prime, args.ext, lam=params.lam)
    else:
        table = hecke_trace_table(params)
    names = [str(params.field.from_index(i)) for i in range(table.q)]
    out = {
        "kind": args.kind,
        "provenance": table.provenance,
        "q": table.q,
        "entries": {a: str(v) for a, v in zip(names, table.entries)},
        "entries_abs": {a: abs(v.embed()) for a, v in zip(names, table.entries)},
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_compare(args):
    v = compare_traces(args.n, args.prime, args.ext, _parse_lambda(args.lam))
    print(json.dumps({"pass": v.ok, **v.detail}, indent=2))
    return 0 if v.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="airycheck")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = ap.add_subparsers(dest="cmd", required=True)

    series_kw = dict(choices=["A", "B", "C", "D", "E", "F", "G", "GL"], required=True)
    p_roots = sub.add_parser("roots")
    p_roots.add_argument("--series", **series_kw)
    p_roots.add_argument("--rank", type=int, required=True)
    p_roots.add_argument("--form", default="adjoint")
    p_roots.set_defaults(fn=cmd_roots)

    p_gr = sub.add_parser("grading")
    p_gr.add_argument("--series", **series_kw)
    p_gr.add_argument("--rank", type=int, required=True)
    p_gr.add_argument("--form", default="adjoint")
    p_gr.set_defaults(fn=cmd_grading)

    p_ver = sub.add_parser("verify")
    p_ver.add_argument("what", choices=sorted(VERIFY_MAP))
    p_ver.set_defaults(fn=cmd_verify)

    def scalar_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--prime", type=int, required=True)
        p.add_argument("--ext", type=int, default=1)
        p.add_argument("--lambda", dest="lam", default="")

    p_chi = sub.add_parser("chi")
    scalar_args(p_chi)
    p_chi.add_argument("--m1", type=int, default=0)
    p_chi.set_defaults(fn=cmd_chi)

    p_tr = sub.add_parser("trace")
    p_tr.add_argument("kind", choices=["airy", "hecke"])
    scalar_args(p_tr)
    p_tr.set_defaults(fn=cmd_trace)

    p_cmp = sub.add_parser("compare")
    scalar_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)
    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
