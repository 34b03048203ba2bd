import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import airycheck
from airycheck import cli
from airycheck.arith import FqField
from airycheck.gln_airy import make_params
from airycheck.loopmodel import AffineRootIndex
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
    assert all("runtime_ms" in v for v in doc["checks"])


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


def test_compare(capsys):
    code, out, _ = run_capture(
        capsys, ["compare", "--n", "2", "--prime", "5", "--lambda", "2"]
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


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
    failing = lambda: (False, {"types": ["A1"]}, [{"type": "A1"}])
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


def test_import_path_skips_dataclasses_inspect_and_typing():
    # a fresh process pays for every module airycheck imports; pytest itself
    # imports all three, so only a subprocess can see the import path, and
    # -S keeps site-packages' .pth files from importing anything first
    code = "import sys, airycheck.cli; print(' '.join(sorted(sys.modules)))"
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    modules = set(out.stdout.split())
    assert "airycheck.cli" in modules
    assert not {"dataclasses", "inspect", "typing"} & modules


def _a2_wP():
    rd = build_root_datum("A", 2)
    return weyl_wP(rd, fundamental_coweight(rd, 0))


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
        ("A", 1, "sc", 1, 0, ((2,),), (1,), ((1,),), ((1,),)),
        "RootDatum(series='A', rank=1, form='sc', n=1, center_rank=0, cartan=((2,),), "
        "d=(1,), pos_roots=((1,),), coroots=((1,),))",
        "n",
    ),
    "AffineRootIndex": (
        lambda: AffineRootIndex((1, 0), 1), AffineRootIndex((1, 0), 0), ((1, 0), 1),
        "AffineRootIndex(root=(1, 0), power=1)", "power",
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


def test_root_datum_equality_ignores_pairings_and_cache():
    x, y = build_root_datum("B", 2), build_root_datum("B", 2)
    x._cache["filled"] = True
    assert x.pairings is not y.pairings
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert "pairings" not in repr(x) and "_cache" not in repr(x)
