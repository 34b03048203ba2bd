"""Every public function and method of airycheck has a caller in the library
or the benchmark: a name that only tests reach is test-only API.

References are matched by bare name, so no two public defs may share one,
and no public def may share one with an attribute or a nested def: otherwise
a caller of either would count for both."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# public names kept without a caller in src/ or perfbench/, each with its reason
KEEP = {
    "cli.main": "the console-script entry point named in pyproject.toml",
    "loopmodel.GLnModel.random_I1": "the loop workload of the benchmark draws its samples with it",
    "arith.CyclotomicValue.galois": "the Galois action the exact L-function check needs (ROADMAP item 4)",
}

# public defs whose bare name the library also binds as an attribute, each
# with the library call that reaches the def itself
SHARED = {
    "arith.FqElement.coeffs": "FqElement.__repr__ reads self.coeffs for e > 1",
    "linalg.rank": "chevalley.p_minus_bijective and relevance_linear_kernel call rank(rows)",
    "chevalley.GradedSubspace.dim": "chevalley.relevance_linear_kernel reads ar.dim",
}


def _public_defs(tree):
    """(qualified name, node) of the public module-level functions and
    methods of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def uncalled(library, others):
    """The public defs of `library` ({module name: tree}) whose name occurs
    as no Name or Attribute outside their own definition, in `library` or in
    `others` (a list of trees), and the set of every public def."""
    refs = {}  # name -> [(tree, line)]
    for tree in list(library.values()) + list(others):
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                refs.setdefault(name, []).append((tree, node.lineno))
    missing, defined = [], set()
    for module, tree in library.items():
        for qual, node in _public_defs(tree):
            if node.name.startswith("_"):
                continue
            key = f"{module}.{qual}"
            defined.add(key)
            outside = [
                line for t, line in refs.get(node.name, ())
                if not (t is tree and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                missing.append(key)
    return missing, defined


def _bound_names(tree):
    """The names a tree binds as an attribute (an `x.name = ...` store, a
    `__setattr__`, `setattr` or `set_` call with a constant name, a
    `__slots__` entry) or as a def nested in a def."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("__setattr__", "setattr", "set_") and isinstance(node.args[1], ast.Constant):
                out.add(node.args[1].value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            out.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif isinstance(node, ast.FunctionDef):
            out.update(d.name for d in ast.walk(node)
                       if isinstance(d, ast.FunctionDef) and d is not node)
    return out


def shared_names(library):
    """{bare name: [qualified names]} for the names that more than one
    public def of `library` ({module name: tree}) carries, or that one
    carries and `library` also binds as an attribute or a nested def."""
    by_name = {}
    for module, tree in library.items():
        for qual, node in _public_defs(tree):
            if not node.name.startswith("_"):
                by_name.setdefault(node.name, []).append(f"{module}.{qual}")
    bound = set().union(*map(_bound_names, library.values()))
    return {name: quals for name, quals in by_name.items() if len(quals) > 1 or name in bound}


def _library():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "airycheck").glob("*.py"))
    }


def test_no_two_public_defs_share_a_name():
    shared = shared_names(_library())
    assert {name: quals for name, quals in shared.items() if quals[0] not in SHARED} == {}
    assert all(len(quals) == 1 for quals in shared.values())
    assert {quals[0] for quals in shared.values()} == set(SHARED), "a SHARED entry is not shared"


def test_every_public_function_has_a_library_or_benchmark_caller():
    library = _library()
    bench = [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    missing, defined = uncalled(library, bench)
    assert [key for key in missing if key not in KEEP] == []
    assert set(KEEP) <= defined, "a keep-list entry names no public function"


def test_uncalled_sees_a_function_only_its_own_body_names():
    lib = ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class C:\n    def method(self):\n        return self.method\n\n"
        "    def called(self):\n        return 0\n"
    )
    bench = ast.parse("from lib import C\nC().called()\n")
    missing, defined = uncalled({"lib": lib}, [bench])
    assert missing == ["lib.recursive", "lib.C.method"]
    assert defined == {"lib.used", "lib.recursive", "lib.C.method", "lib.C.called"}


def test_a_shared_name_hides_an_uncalled_method():
    # A.depth has no caller, but the call of B.depth carries the same bare
    # name, so only the shared-name check sees it
    lib = ast.parse(
        "class A:\n    def depth(self):\n        return 0\n\n"
        "class B:\n    def depth(self):\n        return 1\n"
    )
    bench = ast.parse("from lib import B\nB().depth()\n")
    missing, _ = uncalled({"lib": lib}, [bench])
    assert missing == []
    assert shared_names({"lib": lib}) == {"depth": ["lib.A.depth", "lib.B.depth"]}


@pytest.mark.parametrize("binding", [
    "x.depth = 1",
    "object.__setattr__(x, 'depth', 1)",
    "set_(x, 'depth', 1)",
    "__slots__ = ('v', 'depth')",
    "def f():\n    def depth():\n        return 1\n    return depth()",
])
def test_an_attribute_or_nested_def_hides_an_uncalled_method(binding):
    # A.depth has no caller, but a read of the attribute or a call of the
    # nested def carries the same bare name, so only the shared-name check
    # sees it
    lib = ast.parse("class A:\n    def depth(self):\n        return 0\n\n" + binding + "\n")
    bench = ast.parse("from lib import f, x\nx.depth\nf()\n")
    missing, _ = uncalled({"lib": lib}, [bench])
    assert missing == []
    assert shared_names({"lib": lib}) == {"depth": ["lib.A.depth"]}
