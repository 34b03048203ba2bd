import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

import airycheck
from airycheck import arith, cli, expsum, rootdata
from airycheck.arith import CyclotomicValue, FqField
from airycheck.gln_airy import make_params
from airycheck.rootdata import (
    Coweight,
    WeylElement,
    build_root_datum,
    fundamental_coweight,
    weyl_wP,
)


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots(capsys):
    code, out, _ = run_capture(capsys, ["roots", "--series", "A", "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coxeter_number"] == 3
    assert doc["num_roots"] == 6


def test_roots_invalid_series(capsys):
    code, _, _ = run_capture(capsys, ["roots", "--series", "Z", "--rank", "1"])
    assert code == 2


def test_grading(capsys):
    code, out, _ = run_capture(capsys, ["grading", "--series", "G", "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_g"] == 14
    assert doc["h"] == 6
    assert sum(doc["dim_z"].values()) == 2  # the two exponents 1, 5


def test_verify_dim(capsys):
    code, out, _ = run_capture(capsys, ["verify", "dim"])
    assert code == 0
    doc = json.loads(out)
    names = {v["check"] for v in doc["checks"]}
    assert names == {"dim-and-components", "swan-identity"}
    assert all(v["pass"] for v in doc["checks"])
    (dim,) = [v for v in doc["checks"] if v["check"] == "dim-and-components"]
    assert dim["params"]["bijection_forms"] == ["adjoint", "sc"]
    assert all("runtime_ms" in v for v in doc["checks"])


def test_dim_components_sees_a_missing_minuscule_coweight(monkeypatch):
    # the sc form of A3 needs |det C| = 4 minuscule coweights of its dual,
    # the adjoint A3; with one dropped only that form fails
    coweights = rootdata.minuscule_coweights

    def drop_one(rd):
        out = coweights(rd)
        return out[:-1] if (rd.series, rd.rank, rd.form) == ("A", 3, "adjoint") else out

    monkeypatch.setattr(rootdata, "minuscule_coweights", drop_one)
    _, witness = cli.check_dim_components()
    assert witness == [{"type": "A3", "form": "sc", "what": "bijection"}]


def test_run_check_derives_pass_and_witness_from_the_failures():
    failures = [{"type": "A1", "what": "defect"}]
    verdict = cli.run_check("fake", lambda: ({"types": ["A1"]}, failures))
    assert verdict["pass"] is False and verdict["witness"] == failures
    assert verdict["params"] == {"types": ["A1"]}
    verdict = cli.run_check("fake", lambda: ({"types": ["A1"]}, []))
    assert verdict["pass"] is True and "witness" not in verdict


def test_rigidity_kernel_params_name_what_ran():
    params, failures = cli.check_rigidity_kernel()
    assert failures == []
    assert params == {
        "linear": ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4",
                   "C2", "C3", "C4", "D4", "G2", "F4"],
        "quadratic": ["GL2 gl", "GL4 gl", "C2 sc"],
        "p": 5,
    }


def test_trace_and_weil_params_are_the_trace_grids():
    grids = {f"n={n}": grid for n, grid in cli.TRACE_GRIDS.items()}
    params, failures = cli.check_weil()
    assert failures == [] and params == grids
    assert sorted(params) == ["n=2", "n=4", "n=6", "n=8"]
    params, failures = cli.check_trace_gl2()
    assert failures == [] and params == {"n=2": cli.TRACE_GRIDS[2]}


def test_weil_bound_fails_on_one_entry_past_the_bound(monkeypatch):
    # negative control for the weil-bound check: the Airy table of one grid
    # case, GL_4 over F_7 at lambda = (1, 0), with one entry past n sqrt(q),
    # fails the check, and the witness names that case
    airy = expsum.airy_trace_table

    def one_past(f, p, e, lam=()):
        table = airy(f, p, e, lam=lam)
        if (table.n, p, e) == (4, 7, 1) and [x.v for x in lam] == [1, 0]:
            past = CyclotomicValue(7, [11, 0, 0, 0, 0, 0])  # 11 > 4 sqrt(7) = 10.58...
            table.entries = (*table.entries[:3], past, *table.entries[4:])
        return table

    monkeypatch.setattr(cli, "airy_trace_table", one_past)
    verdict = cli.run_check("weil-bound", cli.check_weil)
    assert verdict["pass"] is False
    (witness,) = verdict["witness"]
    assert witness == {"n": 4, "p": 7, "e": 1, "lambda": (1, 0), "worst": 11.0, "bound": 4 * 7 ** 0.5}


def test_factorization_params_report_the_samples_run():
    params, failures = cli.check_factorization(samples=5)
    assert failures == []
    assert params == {"n": [2, 3, 4], "p": 7, "samples": 5, "seed": cli.DEFAULT_SEED}


def test_verify_suite_flag_removed(capsys):
    code, _, _ = run_capture(capsys, ["verify", "dim", "--suite", "desk"])
    assert code == 2


def test_verify_seed_reaches_checks(capsys):
    code, out, _ = run_capture(capsys, ["--seed", "7", "verify", "s1-graph"])
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    (check,) = doc["checks"]
    assert check["pass"] and check["params"]["seed"] == 7


def test_weyl_appendix_report_names_its_sub_checks():
    # the weyl-appendix entry of the `verify all` report
    verdict = cli.run_check("weyl-appendix", cli.check_weyl_appendix)
    (check,) = json.loads(cli.emit_report([verdict]))["checks"]
    assert check["pass"]
    params = check["params"]
    types = [f"{s}{r}" for s, r in cli.SUITE_TYPES]
    assert params["phi_generic"] == params["types"] == types
    # the A_2n parahoric comparison needs an odd Coxeter number
    assert params["odd_parahoric"] == ["A2", "A4", "A6"]


def test_every_acceptance_check_is_a_verify_choice():
    parser = cli.build_parser()
    for name, _ in cli.ACCEPTANCE:
        assert parser.parse_args(["verify", name]).what == name
        assert cli.VERIFY_MAP[name] == [name]


def test_verify_weyl_appendix(capsys):
    code, out, _ = run_capture(capsys, ["verify", "weyl-appendix"])
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "weyl-appendix" and check["pass"]


def test_verify_stab(capsys):
    code, out, _ = run_capture(capsys, ["verify", "stab"])
    assert code == 0
    assert all(v["pass"] for v in json.loads(out)["checks"])


def test_emit_report_empty():
    doc = json.loads(cli.emit_report([]))
    assert doc["checks"] == []
    assert "version" in doc


def test_chi(capsys):
    code, out, _ = run_capture(
        capsys,
        ["chi", "--n", "2", "--prime", "7", "--lambda", "1", "--m1", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 7
    # f = m/1 - m^3/3 over F_7; prime-field elements print as "v (mod p)"
    assert doc["lambda"] == ["1 (mod 7)"]
    assert doc["f"] == ["0 (mod 7)", "1 (mod 7)", "0 (mod 7)", "2 (mod 7)"]
    assert doc["chi_geometric"] == "0 (mod 7)"  # 3 + (2/3) 3^3 = 84


def test_chi_bad_params(capsys):
    code, _, err = run_capture(
        capsys, ["chi", "--n", "3", "--prime", "7", "--lambda", "1"]
    )
    assert code == 2
    assert "error" in err


def test_trace_airy(capsys):
    code, out, _ = run_capture(
        capsys, ["trace", "airy", "--n", "2", "--prime", "5", "--lambda", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == "airy"
    assert len(doc["entries"]) == 5


def test_trace_hecke_brute(capsys):
    code, out, _ = run_capture(
        capsys,
        ["trace", "hecke", "--n", "2", "--prime", "5", "--lambda", "1"],
    )
    assert code == 0
    assert json.loads(out)["provenance"] == "hecke-brute"


def test_trace_brute_flag_removed(capsys):
    code, _, _ = run_capture(
        capsys,
        ["trace", "hecke", "--n", "2", "--prime", "5", "--lambda", "1", "--brute"],
    )
    assert code == 2


def test_trace_hecke_over_budget(capsys):
    # 223^3 points exceed the brute fiber sum's budget
    code, out, err = run_capture(
        capsys, ["trace", "hecke", "--n", "4", "--prime", "223", "--lambda", "1,0"]
    )
    assert code == 2
    assert "error" in err and out == ""


def _refuse(*args):
    raise RuntimeError("work ran that the budget check should have refused")


@pytest.mark.parametrize("prime,ext", [("1000000007", "1"), ("2", str(10 ** 12))])
def test_field_over_budget(capsys, monkeypatch, prime, ext):
    # refused before the primality test and the table build (F_(10^9+7)
    # would walk 10^9 powers), and p^e is never formed for a huge --ext
    monkeypatch.setattr(arith, "is_prime", _refuse)
    monkeypatch.setattr(arith, "fq_tables", _refuse)
    code, out, err = run_capture(
        capsys, ["chi", "--n", "2", "--prime", prime, "--ext", ext, "--lambda", "1"]
    )
    assert code == 2
    assert "field budget" in err and out == ""


def test_trace_airy_over_budget(capsys, monkeypatch):
    # F_100003 fits the field budget, but its Airy table is q^2 = 10^10 terms
    monkeypatch.setattr(expsum, "_trace_sums", _refuse)
    code, out, err = run_capture(
        capsys, ["trace", "airy", "--n", "2", "--prime", "100003", "--lambda", "1"]
    )
    assert code == 2
    assert "budget" in err and out == ""


@pytest.mark.parametrize("argv,what", [
    (["trace", "airy", "--n", "2", "--prime", "100003", "--lambda", "1"], "Airy trace table"),
    (["trace", "hecke", "--n", "4", "--prime", "223", "--lambda", "1,0"], "brute-force"),
    (["compare", "--n", "4", "--prime", "223", "--lambda", "1,0"], "brute-force"),
])
def test_trace_budgets_refuse_before_any_field_is_built(capsys, monkeypatch, argv, what):
    # both budgets are read off (p, e, n): no field table is built, by the
    # CLI or by the library calls it makes, before the refusal
    monkeypatch.setattr(arith, "fq_tables", _refuse)
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert what in err and "exceeds budget" in err and out == ""
    n, prime = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--prime") + 1])
    with pytest.raises(ValueError, match="exceeds budget"):
        expsum.compare_traces(n, prime, 1, (1,) * (n // 2))
    with pytest.raises(ValueError, match="exceeds budget"):
        if what == "brute-force":
            expsum.require_brute_budget(prime, 1, n)
        else:
            expsum.airy_trace_table([0, 1] + [0] * (n - 1) + [1], prime, 1)


def test_slot_limit_exits_2(capsys, monkeypatch):
    # with the brute budget lifted, GL_26 over F_29 reaches the next
    # refusal, the 64-bit slot limit of the fiber histograms (twice 29^13
    # points past 2^64), which is read before any point is visited; the CLI
    # reports it and exits 2
    monkeypatch.setattr(expsum, "BRUTE_BUDGET", 10 ** 30)
    code, out, err = run_capture(capsys, ["trace", "hecke", "--n", "26", "--prime", "29", "--lambda", ",".join("0" * 13)])
    assert code == 2
    assert "64-bit slot limit" in err and out == ""


def test_trace_budgets_refuse_a_huge_extension_without_forming_it():
    # 2^(e k) <= q^k, so e = 10^12 is refused before p^e is formed
    for p in (2, 7):
        with pytest.raises(ValueError, match="Airy trace table exceeds budget"):
            expsum.require_airy_budget(p, 10 ** 12)
        with pytest.raises(ValueError, match="brute-force fiber enumeration exceeds budget"):
            expsum.require_brute_budget(p, 10 ** 12, 2)
    # on the boundary: 3162^2 < 10^7 < 3163^2, and 215^3 < 10^7 < 216^3
    expsum.require_airy_budget(3162, 1)
    expsum.require_brute_budget(215, 1, 4)
    with pytest.raises(ValueError):
        expsum.require_airy_budget(3163, 1)
    with pytest.raises(ValueError):
        expsum.require_brute_budget(216, 1, 4)


def test_compare(capsys):
    code, out, _ = run_capture(
        capsys, ["compare", "--n", "2", "--prime", "5", "--lambda", "2"]
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


# (n, prime, ext, lambda): F_25; c_1 != 0 at n = 4; lambda_1 = 0 at n = 2 and 4
TRACE_CLI_PIN_INPUTS = [("2", "5", "2", "1"), ("4", "7", "1", "1,2"), ("2", "7", "1", "0"), ("4", "7", "1", "0,3")]


def test_trace_and_compare_json_pinned(capsys):
    # SHA-256 of the exit codes and the JSON that `trace airy`, `trace hecke`
    # and `compare` print, as the tables keyed by field element gave them
    outs = []
    for n, prime, ext, lam in TRACE_CLI_PIN_INPUTS:
        for cmd in (["trace", "airy"], ["trace", "hecke"], ["compare"]):
            code, out, _ = run_capture(capsys, cmd + ["--n", n, "--prime", prime, "--ext", ext, "--lambda", lam])
            outs.append((code, out))
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()
    assert digest == "a1ccb7ae30d6f79c96145beea5d4f74bc58fdfc1986751458a9b8dd9f1cf7c6a"


def test_compare_odd_n(capsys):
    code, _, err = run_capture(
        capsys, ["compare", "--n", "3", "--prime", "7", "--lambda", "1"]
    )
    assert code == 2
    assert "error: only even n is supported" in err


def test_acceptance_names():
    names = [n for n, _ in cli.ACCEPTANCE]
    assert len(names) == 12 and len(set(names)) == 12


def _failing_swan(monkeypatch):
    failing = lambda: ({"types": ["A1"]}, [{"type": "A1"}])
    monkeypatch.setattr(cli, "ACCEPTANCE", [
        (name, failing if name == "swan-identity" else fn) for name, fn in cli.ACCEPTANCE
    ])


def test_failing_verdict_carries_a_repro_command(monkeypatch, capsys):
    _failing_swan(monkeypatch)
    code, out, _ = run_capture(capsys, ["--seed", "5", "verify", "dim"])
    assert code == 1
    checks = {v["check"]: v for v in json.loads(out)["checks"]}
    assert "repro" not in checks["dim-and-components"]  # it passed
    repro = checks["swan-identity"]["repro"]
    assert repro == "airycheck --seed 5 verify swan-identity"
    prog, *argv = repro.split()
    assert prog == "airycheck"
    code, out, _ = run_capture(capsys, argv)
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "swan-identity" and check["repro"] == repro


def test_character_machinery_params_list_what_ran(capsys):
    code, out, _ = run_capture(capsys, ["--seed", "3", "verify", "character-machinery"])
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["pass"] and "repro" not in check
    assert check["params"] == {
        "n": [2, 4],
        "seed": 3,
        "roundtrip": [{"n": 2, "p": 11, "samples": 500}, {"n": 4, "p": 11, "samples": 500}],
        "additivity": {"n": 4, "p": 7, "lambda": [1, 2], "pairs": 1000},
        "geometric": [
            {"q": 7, "n": 2, "lambda": [3]},
            {"q": 11, "n": 4, "lambda": [2, 3]},
            {"q": 49, "n": 2, "lambda": [1]},
            {"q": 121, "n": 4, "lambda": [1, 0]},
        ],
        "phi_z": [{"n": 2, "p": 7}, {"n": 4, "p": 7}, {"n": 4, "p": 11}],
    }


def _modules_after_import(module):
    # a fresh process pays for every module airycheck imports; pytest itself
    # imports them all, so only a subprocess can see the import path, and
    # -S keeps site-packages' .pth files from importing anything first
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    modules = set(out.stdout.split())
    assert module in modules
    return modules


def test_import_path_skips_dataclasses_inspect_and_typing():
    modules = _modules_after_import("airycheck.cli")
    assert not {"dataclasses", "inspect", "typing"} & modules


def test_scalar_layer_loads_no_lie_stack():
    # the trace tables need F_q arithmetic and the GL_n character only
    modules = _modules_after_import("airycheck.expsum")
    lie = {f"airycheck.{m}" for m in ("chevalley", "linalg", "loopmodel", "rootdata")}
    assert not lie & modules


def _a2_wP():
    # a fresh element each call: weyl_wP itself returns its cached one
    rd = build_root_datum("A", 2)
    wp = weyl_wP(rd, fundamental_coweight(rd, 0))
    return WeylElement(wp.matrix, wp.word)


# (build a value, a different value, its fields as a bare tuple, its repr as
# the dataclass versions printed it, a field name)
VALUE_CASES = {
    "Coweight": (
        lambda: Coweight((1, 0)), Coweight((0, 1)), ((1, 0),), "Coweight(1, 0)", "coords",
    ),
    "WeylElement": (
        _a2_wP, WeylElement(((1, 0), (0, 1)), ()), (((0, -1), (1, -1)), (1, 0, 1, 0)),
        "WeylElement(matrix=((0, -1), (1, -1)), word=(1, 0, 1, 0))", "word",
    ),
    "RootDatum": (
        lambda: build_root_datum("A", 1), build_root_datum("GL", 2, "gl"),
        ("A", 1, "sc", 1, ((2,),), (1,), ((1,),), ((1,),)),
        "RootDatum(series='A', rank=1, form='sc', n=1, cartan=((2,),), "
        "d=(1,), pos_roots=((1,),), coroots=((1,),))",
        "n",
    ),
    "CharacterParams": (
        lambda: make_params(2, FqField(5, 2), (3,)), make_params(2, FqField(5, 2), (4,)),
        (2, FqField(5, 2), (FqField(5, 2)(3),)),
        "CharacterParams(n=2, field=FqField(5, 2), lam=(Fq(5^2)[3, 0],))", "lam",
    ),
}


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_class_semantics(name):
    make, other, fields, pinned_repr, field = VALUE_CASES[name]
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != other and x != fields and fields != x
    assert repr(x) == pinned_repr
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y
    for z in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert z is not x and z == x and hash(z) == hash(x)


def test_root_datum_equality_ignores_pairings():
    x, y = build_root_datum("B", 2), build_root_datum("B", 2)
    assert x.pairings is not y.pairings
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert "pairings" not in repr(x)
