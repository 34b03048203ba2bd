"""Every public function and method of airycheck has a caller in the library
or the benchmark: a name that only tests reach is test-only API.

References are matched by bare name, so no two public defs may share one:
otherwise a caller of either would count for both."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# public names kept without a caller in src/ or perfbench/, each with its reason
KEEP = {
    "cli.main": "the console-script entry point named in pyproject.toml",
    "loopmodel.GLnModel.random_I1": "the loop workload of the benchmark draws its samples with it",
    "arith.CyclotomicValue.galois": "the Galois action the exact L-function check needs (ROADMAP item 1)",
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


def shared_names(library):
    """{bare name: [qualified names]} for the names that more than one
    public def of `library` ({module name: tree}) carries."""
    by_name = {}
    for module, tree in library.items():
        for qual, node in _public_defs(tree):
            if not node.name.startswith("_"):
                by_name.setdefault(node.name, []).append(f"{module}.{qual}")
    return {name: quals for name, quals in by_name.items() if len(quals) > 1}


def _library():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "airycheck").glob("*.py"))
    }


def test_no_two_public_defs_share_a_name():
    assert shared_names(_library()) == {}


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
