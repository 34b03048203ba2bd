"""One-path guards, read off the AST of `src/`.

One table places a root of GL_n at a matrix entry: `_gl_root_interval`
is named in `src/` only where `chevalley` builds the GL structure constants
and where `loopmodel` builds its line table (and imports it for that).

One kernel computes the Airy sums: `expsum._trace_sums` is named in `src/`
only by its definition and by the cached base table, `_airy_base`, that
every Airy table reads.

One enumeration visits the Hecke fibers: `gln_airy.hecke_forms` is named in
`src/` only by its definition, by `expsum`'s import of it and by the cached
enumeration, `_fiber_histograms`, that every brute table reads.

One Zech addition per kernel shape: the functions that read
`FqTables.zech` are `arith._add`, the dot kernel `arith._dot`,
`arith._eval_log_terms`, `gln_airy._horner` and `expsum._add_rows`, and
the section algebra and chi reach Zech logarithms only through `_dot`.
Horner's rule is not built on `_dot`, since `chi_geometric` (Horner) is
checked against `chi_eval` (log and dot)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "airycheck"
NAME = "_gl_root_interval"
ALLOWED = {
    ("chevalley", "<def>"),
    ("chevalley", "_cartan_data"),
    ("loopmodel", "<import>"),
    ("loopmodel", "_gl_lines"),
}


AIRY_KERNEL = "_trace_sums"
AIRY_ALLOWED = {("expsum", "<def>"), ("expsum", "_airy_base")}

HECKE_FORMS = "hecke_forms"
HECKE_ALLOWED = {("gln_airy", "<def>"), ("expsum", "<import>"), ("expsum", "_fiber_histograms")}

ZECH_READERS = {
    ("arith", "_add"),
    ("arith", "_dot"),
    ("arith", "_eval_log_terms"),
    ("gln_airy", "_horner"),
    ("expsum", "_add_rows"),
}

DOT_KERNEL = "_dot"
DOT_ALLOWED = {
    ("arith", "<def>"),
    ("gln_airy", "<import>"),
    ("gln_airy", "_trunc_mul"),
    ("gln_airy", "_exp_series"),
    ("gln_airy", "_log_series"),
    ("gln_airy", "chi_eval"),
}


def namings(module, tree, name=NAME):
    """(module, place) for each naming of `name` in a module's tree: the
    qualified name of the def it occurs in, `<def>` for its own definition,
    `<import>` for an import of it and `<module>` at top level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == name:
                found.append((module, "<def>"))
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            found.append((module, "<import>"))
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name
              or isinstance(node, ast.Constant) and node.value == name):
            found.append((module, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def zech_readers(module, tree):
    """(module, qualified def) for each read of an attribute `zech`, or of
    the string "zech" outside a `__slots__`, in a module's tree; the
    stores that build the table are not reads."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            return
        elif (isinstance(node, ast.Attribute) and node.attr == "zech"
              and isinstance(node.ctx, ast.Load)
              or isinstance(node, ast.Constant) and node.value == "zech"):
            found.append((module, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_zech_guard_sees_every_read():
    tree = ast.parse(
        "class T:\n    __slots__ = ('zech',)\n"
        "    def __init__(self):\n        self.zech = []\n"
        "def add(t):\n    return t.zech[0]\n"
        "def dot(t):\n    z = getattr(t, 'zech')\n"
        "class K:\n    def row(self, t):\n        exp, zech = t.exp, t.zech\n"
    )
    assert zech_readers("m", tree) == [("m", "add"), ("m", "dot"), ("m", "K.row")]


def test_the_guard_sees_every_spelling():
    tree = ast.parse(
        "from .chevalley import _gl_root_interval\n"
        "def _gl_root_interval(root):\n    return 0\n"
        "class M:\n    def lift(self):\n        return chevalley._gl_root_interval\n"
        "f = getattr(chevalley, '_gl_root_interval')\n"
    )
    assert namings("m", tree) == [
        ("m", "<import>"), ("m", "<def>"), ("m", "M.lift"), ("m", "<module>"),
    ]


def test_gl_placement_has_one_table_per_module():
    found = [
        hit for path in sorted(SRC.glob("*.py"))
        for hit in namings(path.stem, ast.parse(path.read_text(), str(path)))
    ]
    assert set(found) - ALLOWED == set()
    assert set(found) == ALLOWED, "a table this guard names is gone; update ALLOWED"


def test_airy_sums_have_one_kernel_and_one_caller():
    # a second caller of _trace_sums would be a second way to build an
    # Airy table, beside the cached base
    found = [
        hit for path in sorted(SRC.glob("*.py"))
        for hit in namings(path.stem, ast.parse(path.read_text(), str(path)), AIRY_KERNEL)
    ]
    assert sorted(found) == sorted(AIRY_ALLOWED)


def test_hecke_fibers_have_one_enumeration():
    # a second caller of hecke_forms would be a second way to enumerate the
    # fibers of p_2, beside the cached one that every lambda shares
    found = [
        hit for path in sorted(SRC.glob("*.py"))
        for hit in namings(path.stem, ast.parse(path.read_text(), str(path)), HECKE_FORMS)
    ]
    assert sorted(found) == sorted(HECKE_ALLOWED)


def test_zech_addition_has_five_readers():
    # a sixth function that reads the Zech table would be a sixth
    # hand-inlined copy of the addition; the section algebra and chi read
    # it through _dot, and Horner's rule keeps its own loop
    found = {
        hit for path in sorted(SRC.glob("*.py"))
        for hit in zech_readers(path.stem, ast.parse(path.read_text(), str(path)))
    }
    assert found == ZECH_READERS
    dot = [
        hit for path in sorted(SRC.glob("*.py"))
        for hit in namings(path.stem, ast.parse(path.read_text(), str(path)), DOT_KERNEL)
    ]
    assert sorted(dot) == sorted(DOT_ALLOWED)
