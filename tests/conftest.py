"""Shared test fixtures."""

import sys

import pytest


@pytest.fixture
def bind_everywhere(monkeypatch):
    """bind(original, mutant, *modules): bind mutant in place of original
    in every qtoda module, in every class defined there and in each of the
    given modules, wherever it is bound, and return how many bindings were
    replaced.  `from m import f` copies the name into each importer, so
    patching the defining module alone would miss those."""
    def bind(original, mutant, *modules):
        patched = 0
        owners = list(modules)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("qtoda"):
                owners += [module] + [c for c in vars(module).values()
                                      if isinstance(c, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if isinstance(value, staticmethod) \
                        and value.__func__ is original:
                    monkeypatch.setattr(owner, attr, staticmethod(mutant))
                    patched += 1
                elif value is original:
                    monkeypatch.setattr(owner, attr, mutant)
                    patched += 1
        return patched
    return bind
