"""Deterministic work counts of the relation suite at (n, box) = (4, 2).

Times on a shared host wander by tens of percent from one run to the next;
these counts repeat exactly, so a change that makes the relation loop do
more work fails here even when no timing could show it.  Each bound is the
count measured when the diagonal operators began to be folded into the
coefficients once per degree and each closed entry began to be built once
per (row pair, column).  Before that the same run made 14,270 RatFunc
products, 3,606 zero tests and 171 + 171 closed products.
"""

from qtoda import operators
from qtoda.operators import ModuleContext, relation_records
from qtoda.symbolic import RatFunc

BOUNDS = {
    "RatFunc.__mul__": 9610,
    "sum_is_zero": 2364,
    "raising_product": 49,
    "lowering_product": 46,
}


def test_relation_suite_work_stays_within_its_counts(monkeypatch):
    counts = dict.fromkeys(BOUNDS, 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(RatFunc, "__mul__",
                        counted("RatFunc.__mul__", RatFunc.__mul__))
    for name in ("sum_is_zero", "raising_product", "lowering_product"):
        monkeypatch.setattr(operators, name,
                            counted(name, getattr(operators, name)))
    records = list(relation_records(ModuleContext(4), 2))
    assert len(records) == 2268
    assert not [r for r in records if r["status"] == "fail"]
    assert all(counts[name] <= bound for name, bound in BOUNDS.items()), counts
    # non-vacuity: every wrapped kernel ran
    assert all(counts.values()), counts
