"""Every process-wide cache in qtoda is listed here, with the reason it may
outlive a `ModuleContext`.

A `functools.lru_cache` keeps its values for the life of the process, so
what a later run builds depends on what ran before it unless each cache
is a pure function of integers whose build no work counter sees.  The
list below is every `lru_cache` in `src/qtoda`, found with `ast`, and
each cache must build a value with no term loop: no
`symbolic._accumulate` call and no `LaurentPoly.__mul__`.  A new cache
then fails here until it is listed with its reason, and a counted one
fails whatever its reason.  The hit counts, measured when the list was
pinned, are what each cache saves.
"""

import ast
from pathlib import Path

import pytest

from qtoda import characters, fixed_points, operators, symbolic, toda
from qtoda.symbolic import LaurentPoly, tv_ring

SRC = Path(symbolic.__file__).resolve().parent
RING = tv_ring(3)
T1 = symbolic._unit_keys(RING.nvars)[0]  # the key of t_1, positive

# (module, qualified name): (why it may outlive a context, arguments that
# build one value, or None for a cache local to one call)
CACHES = {
    (symbolic, "_bias"): (
        "an int per variable count", (4,)),
    (symbolic, "_unit_keys"): (
        "the variable keys, ints per variable count", (4,)),
    (symbolic, "_key_bound"): (
        "an int per packed key: the exact bound of each tracked binomial "
        "1 - x^s, which `_times_binomial` adds per power it expands, of "
        "each unit shift `_times_monomials` makes, and each binomial's "
        "span unit in `binomial_quotient`", (T1,)),
    (symbolic, "tv_ring"): (
        "one ring per n, so every polynomial of one rank shares its ring "
        "by identity", (3,)),
    (characters, "weight_ratio"): (
        "the monomial t_k^2 t_j^-2 v^l per (ring, k, j, l): 30,167 hits in "
        "`characters --n 5 --degree 2,2,2,2`", (RING, 1, 2, 2)),
    (characters, "_square_keys"): (
        "the keys of t_k^2 and v^2, ints per ring", (RING,)),
    (toda, "_shift"): (
        "the shift monomial t_j^sigma v^l of the operator rows: 260 hits "
        "at toda (4, 2)", (RING, 1, 2, -1)),
    (fixed_points, "kostant_count.count"): (
        "local to one `kostant_count` call", None),
}


def lru_caches(path):
    """The qualified names of the functions in path decorated with
    lru_cache or cache, bare or called, plain or as functools.lru_cache."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        ast.unparse(d).split("(")[0].rsplit(".")[-1]
                        in ("lru_cache", "cache")
                        for d in child.decorator_list):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_cache_is_listed():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in lru_caches(path)}
    assert found == {(module.__name__.rsplit(".", 1)[1], name)
                     for module, name in CACHES}


@pytest.mark.parametrize("module,name", [
    key for key, (_, args) in CACHES.items() if args is not None],
    ids=lambda x: getattr(x, "__name__", x))
def test_a_cache_miss_runs_no_term_loop(monkeypatch, module, name):
    # the two caches that return a polynomial among them: a miss builds
    # it from keys alone, so no counter sees whether the cache was warm
    calls = []
    accumulate, mul = symbolic._accumulate, LaurentPoly.__mul__
    monkeypatch.setattr(symbolic, "_accumulate",
                        lambda *a: calls.append("_accumulate")
                        or accumulate(*a))
    monkeypatch.setattr(LaurentPoly, "__mul__",
                        lambda *a: calls.append("__mul__") or mul(*a))
    _, args = CACHES[module, name]
    getattr(module, name).__wrapped__(*args)
    assert calls == []
