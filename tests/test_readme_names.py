"""Every Python name the README quotes still exists in qtoda.

A backticked README token that looks like a Python name with a `_` or a
`.` in it, with or without call arguments (`sym_factor(p)`), must resolve
to an attribute of a qtoda module, or of a class defined in one, by
getattr along its dotted path.  `qtoda.x` starts at the package and
`symbolic.x` at the module.  A name of an environment variable resolves
through `cli.BUDGET_ENV`.  Renaming or deleting a function then fails here
instead of leaving the README describing code that is gone.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import qtoda
from qtoda import cli

README = Path(__file__).resolve().parent.parent / "README.md"
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def quoted_names():
    """The Python-looking names among the README's backticked tokens."""
    names = []
    for token in re.findall(r"`([^`\n]+)`", README.read_text()):
        match = NAME.fullmatch(token)
        if match and ("_" in match[1] or "." in match[1]):
            names.append(match[1])
    return names


def roots():
    """{head: [objects a dotted name with that head may start from]}: the
    package, its modules, their attributes and their classes'
    attributes."""
    modules = {info.name: importlib.import_module(f"qtoda.{info.name}")
               for info in pkgutil.iter_modules(qtoda.__path__)}
    table = {"qtoda": [qtoda]}
    for name, module in modules.items():
        table.setdefault(name, []).append(module)
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c)
                             and c.__module__ == module.__name__]
        for owner in owners:
            for attr in dir(owner):
                table.setdefault(attr, []).append(getattr(owner, attr))
    return table


def resolves(name, table):
    if name == cli.BUDGET_ENV:
        return True
    head, *path = name.split(".")
    for obj in table.get(head, []):
        for attr in path:
            if not hasattr(obj, attr):
                break
            obj = getattr(obj, attr)
        else:
            return True
    return False


def test_every_quoted_name_resolves():
    names = quoted_names()
    table = roots()
    assert [name for name in names if not resolves(name, table)] == []
    # non-vacuity: the README quotes dotted names, calls and the budget
    # variable
    assert {"qtoda.toda", "sym_factor", cli.BUDGET_ENV} <= set(names)


def test_a_stale_name_is_caught():
    table = roots()
    for gone in ("toda._eigen_holds", "RatFunc.num", "EntryPath",
                 "ModuleContext._check_generator", "QTODA_OTHER_BUDGET",
                 "whittaker.dual_raising_op", "whittaker._eigen_holds",
                 "operators._at_degree", "operators._identity_holds",
                 "_failing_relations", "LaurentPoly.eval_at_ones",
                 "operators.cartan_monomial_records",
                 "symbolic._canonical_binomial", "symbolic.FactorKey",
                 "symbolic._canonical_factor", "symbolic._factor_key",
                 "symbolic._binomial_exponent", "symbolic._ABSENT",
                 "whittaker.line_pushforward_sides",
                 "operators._orbit_in_box", "operators._max_prefix_shift",
                 "operators._one_minus"):
        assert not resolves(gone, table), gone
