"""A trace table's entries are a tuple in index order from the kernels to
the verdict: the table builders of `expsum` name no field element, so they
call neither `elements()` nor `from_index`; in `expsum` only the failure
witness of `compare_traces` turns an index back into an element; and no
module of airycheck reads entries as a dict (`.items()` or `.values()`).
The coefficients of f come to the tables as indices: no function of
`expsum` reads `.v` off a call (as in `field(x).v`, which builds an
element to read its index), and `gln_airy.f_poly`, which builds f from the
indices `CharacterParams` stores, divides nothing.  Both builders end in
one fold: in `expsum` only `_fold` names `_cyclo`, and `_trace_sums` and
`_brute_table_entries` each call `_fold` once.  The verdict reads both
tables off the params' indices: `expsum` never calls `f_poly`,
`compare_traces` calls neither public table builder, and only
`_airy_entries` reads the cached Airy bases (`_airy_base`)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "airycheck"

BUILDERS = {
    "_trace_sums",
    "_airy_base",
    "_airy_entries",
    "airy_trace_table",
    "_fiber_histograms",
    "_brute_table_entries",
    "_fold",
    "hecke_trace_table",
}


def element_calls(tree):
    """{name: the `elements` and `from_index` methods it calls, in source
    order} over the module-level functions of a tree."""
    return {
        node.name: [
            call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("elements", "from_index")
        ]
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }


def entries_as_dict(tree):
    """Line numbers of the calls `entries.items()` and `entries.values()`,
    on a name `entries` or an attribute `x.entries`."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("items", "values")
        and "entries" in (getattr(node.func.value, "attr", None), getattr(node.func.value, "id", None))
    ]


def index_of_calls(tree):
    """Line numbers of the reads of `.v` off the result of a call, as in
    `field(x).v`."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "v" and isinstance(node.value, ast.Call)
    ]


def divisions(tree, name):
    """Line numbers of the true divisions (`/`, `/=`) and the `inverse()`
    calls in the module-level function `name` of a tree."""
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return sorted(
        node.lineno for node in ast.walk(fn)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "inverse"
    )


def name_reads(tree, name):
    """{function: the number of times it reads the bare name `name`} over
    the module-level functions of a tree that read it at all, a call such
    as `name(x)` or a bare read such as `map(name, xs)`."""
    found = {
        node.name: sum(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    return {fn: count for fn, count in found.items() if count}


def verdict_path_faults(tree):
    """The reads that the one path from the params to the trace verdict
    refuses, over the module-level functions of a tree of `expsum`: of
    `f_poly` anywhere, of `airy_trace_table` or `hecke_trace_table` in
    `compare_traces`, and of `_airy_base` outside `_airy_entries`."""
    return {
        "f_poly": name_reads(tree, "f_poly"),
        "compare_traces": [name for name in ("airy_trace_table", "hecke_trace_table")
                           if "compare_traces" in name_reads(tree, name)],
        "_airy_base": sorted(set(name_reads(tree, "_airy_base")) - {"_airy_entries"}),
    }


NO_FAULTS = {"f_poly": {}, "compare_traces": [], "_airy_base": []}


def test_the_guards_see_what_they_refuse():
    tree = ast.parse(
        "def f(field, table):\n"
        "    return field.elements(), table.entries.items()\n"
        "def g(field, entries):\n"
        "    return field.from_index(0), entries.values(), entries.count(0), {}.items()\n"
    )
    assert element_calls(tree) == {"f": ["elements"], "g": ["from_index"]}
    assert entries_as_dict(tree) == [2, 4]
    tree = ast.parse(
        "def f(field, x, y):\n"
        "    return field(x).v, x.v, field.from_index(1).v, x // 2\n"
        "def g(x, y):\n"
        "    y /= x\n"
        "    return x / y, x.inverse()\n"
    )
    assert index_of_calls(tree) == [2, 2]
    assert divisions(tree, "f") == []
    assert divisions(tree, "g") == [4, 5, 5]
    tree = ast.parse(
        "def f(p, xs):\n"
        "    return [_fold(p, x) for x in xs], _cyclo.__name__\n"
        "def g(p, x):\n"
        "    return list(map(_cyclo, x)), x._fold(p)\n"
    )
    assert name_reads(tree, "_fold") == {"f": 1}
    assert name_reads(tree, "_cyclo") == {"f": 1, "g": 1}
    # the verdict path as it stood before the params' indices reached it:
    # the Hecke table stored f's elements for the comparison to hand to
    # the public Airy table, which read the base itself
    tree = ast.parse(
        "def airy_trace_table(f_coeffs, p, e, lam=()):\n"
        "    return _airy_base(p, e, c)\n"
        "def hecke_trace_table(params, brute=True):\n"
        "    return TraceTable(q, n, lam, tuple(f_poly(params)), entries, 'hecke-brute')\n"
        "def compare_traces(n, p, e, lam, brute=True):\n"
        "    hecke = hecke_trace_table(params)\n"
        "    return airy_trace_table(hecke.f_coeffs, p, e, lam=params.lam)\n"
        "def _airy_entries(field, c):\n"
        "    return _airy_base(field.p, field.e, c)\n"
    )
    assert verdict_path_faults(tree) == {
        "f_poly": {"hecke_trace_table": 1},
        "compare_traces": ["airy_trace_table", "hecke_trace_table"],
        "_airy_base": ["airy_trace_table"],
    }
    assert verdict_path_faults(ast.parse("def _airy_entries(field, c):\n    return _airy_base(c)\n")) == NO_FAULTS


def test_table_builders_name_no_field_element():
    calls = element_calls(ast.parse((SRC / "expsum.py").read_text()))
    assert BUILDERS <= set(calls)
    assert {name: found for name, found in calls.items() if found} == {"compare_traces": ["from_index"]}


def test_no_module_reads_entries_as_a_dict():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := entries_as_dict(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_expsum_reads_no_index_off_a_new_element():
    assert index_of_calls(ast.parse((SRC / "expsum.py").read_text())) == []


def test_f_poly_divides_nothing():
    assert divisions(ast.parse((SRC / "gln_airy.py").read_text()), "f_poly") == []


def test_one_fold_ends_both_builders():
    tree = ast.parse((SRC / "expsum.py").read_text())
    assert name_reads(tree, "_cyclo") == {"_fold": 1}
    assert name_reads(tree, "_fold") == {"_trace_sums": 1, "_brute_table_entries": 1}


def test_the_verdict_reads_both_tables_off_the_params():
    tree = ast.parse((SRC / "expsum.py").read_text())
    assert verdict_path_faults(tree) == NO_FAULTS
    assert name_reads(tree, "_airy_base") == {"_airy_entries": 1}
    assert name_reads(tree, "_airy_entries") == {"airy_trace_table": 1, "compare_traces": 1}
