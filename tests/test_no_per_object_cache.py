"""Derived data is cached by `functools.lru_cache` on the object that
determines it, not in a hand-rolled dict on that object: no module of
airycheck reads or sets an attribute named `_cache`, whether as `obj._cache`
or through a string such as `object.__setattr__(self, "_cache", {})`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "airycheck"


def cache_attributes(tree):
    """Line numbers of the `_cache` attributes and "_cache" strings in a
    module's tree."""
    return [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_cache")
        or (isinstance(node, ast.Constant) and node.value == "_cache")
    ]


def test_the_guard_sees_both_spellings():
    tree = ast.parse('self._cache = {}\nobject.__setattr__(self, "_cache", {})\nlru_cache(f)')
    assert cache_attributes(tree) == [1, 2]


def test_no_per_object_cache():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := cache_attributes(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
