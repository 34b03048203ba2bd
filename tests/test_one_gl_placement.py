"""One-path guards, read off the AST of `src/`.

One table places a root of GL_n at a matrix entry: `_gl_root_interval`
is named in `src/` only where `chevalley` builds the GL structure constants
and where `loopmodel` builds its line table (and imports it for that).

One kernel computes the Airy sums: `expsum._trace_sums` is named in `src/`
only by its definition and by the cached base table, `_airy_base`, that
every Airy table reads.

One enumeration visits the Hecke fibers: `gln_airy.hecke_forms` is named in
`src/` only by its definition, by `expsum`'s import of it and by the cached
enumeration, `_fiber_histograms`, that every brute table reads."""

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
