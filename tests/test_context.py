"""The ModuleContext memo: every operator, point weight and Whittaker
component is built once per context, and sharing them changes no record."""

import pytest

from qtoda import operators, whittaker
from qtoda.cli import EXIT_PASS, SUITES, main
from qtoda.fixed_points import FixedPoint, all_degrees
from qtoda.operators import (GradedOperator, ModuleContext, op_E, op_F, op_e,
                             op_f)
from qtoda.symbolic import UsageError
from qtoda.whittaker import whittaker_records


def suite_stream(name, ctx, box):
    # the summation suite draws its rows from a seed and has no box
    params = (0, None) if name == "summation" else (box,)
    return list(SUITES[name](ctx, *params))


def test_streams_do_not_depend_on_the_suites_run_before():
    shared = ModuleContext(3)
    for name in reversed(list(SUITES)):
        fresh = suite_stream(name, ModuleContext(3), 2)
        assert suite_stream(name, shared, 2) == fresh, name


@pytest.mark.parametrize("op", [op_E, op_F])
def test_default_and_explicit_path_share_one_operator(op):
    ctx = ModuleContext(3)
    for i in (1, 2):
        assert op(ctx, i) is op(ctx, i, "closed")
        assert op(ctx, i, "geometric") is op(ctx, i, "geometric")
        assert op(ctx, i, "geometric") is not op(ctx, i)
    assert op(ModuleContext(3), 1) is not op(ctx, 1)


@pytest.mark.parametrize("op", [op_e, op_f])
def test_twisted_generators_are_built_once_per_row_and_path(op):
    ctx = ModuleContext(3)
    for i in (1, 2):
        assert op(ctx, i) is op(ctx, i)
        assert op(ctx, i) is op(ctx, i, "composite")
        assert op(ctx, i, "direct") is op(ctx, i, "direct")
        assert op(ctx, i, "direct") is not op(ctx, i)
    assert op(ModuleContext(3), 1) is not op(ctx, 1)


@pytest.mark.parametrize("op,path", [
    (op_E, "closd"), (op_F, "composite"), (op_e, "geometric"),
    (op_f, "closed")], ids=lambda x: getattr(x, "__name__", x))
def test_unknown_path_is_rejected_before_anything_is_built(op, path):
    ctx = ModuleContext(3)
    with pytest.raises(UsageError, match="unknown operator path"):
        op(ctx, 1, path)
    assert not ctx._memo


def test_whittaker_suite_builds_no_composite_and_no_theta_outside_the_box(
        monkeypatch):
    # the adjoint and both eigen checks read the entries of E_i and F_i
    # and fold every diagonal factor in as a monomial, so no composite
    # operator is walked and the pairing weight is built only at the points
    # the pairing records read
    calls = []
    original = operators._paths

    def counted(chain, p, coeff=None):
        calls.append(p.rows)
        return original(chain, p, coeff)

    monkeypatch.setattr(operators, "_paths", counted)
    ctx = ModuleContext(4)
    records = list(whittaker_records(ctx, 2))
    assert all(r["status"] == "pass" for r in records)
    assert calls == []
    in_box = {p.rows for d in all_degrees(4, 2) for p in ctx.points(d)}
    assert set(ctx._memo["theta"]) == in_box
    assert len(in_box) == 74


def test_whittaker_suite_builds_each_closed_entry_once(monkeypatch):
    # an operator expands the moves of a point once, when it first builds
    # that point's entries
    calls = []
    for name in ("raise_moves", "lower_moves"):
        original = getattr(operators, name)

        def counted(p, i, original=original, name=name):
            calls.append((name, p.rows, i))
            return original(p, i)

        monkeypatch.setattr(operators, name, counted)
    records = list(whittaker_records(ModuleContext(3), 2))
    assert all(r["status"] == "pass" for r in records)
    assert {c[0] for c in calls} == {"raise_moves", "lower_moves"}
    assert len(calls) == len(set(calls))


def recorded_builds(monkeypatch):
    """The (kind, key) of every item a ModuleContext builds, in order."""
    builds = []
    memo = ModuleContext.memo

    def recording(self, kind, key, build):
        return memo(self, kind, key,
                    lambda: builds.append((kind, key)) or build())

    monkeypatch.setattr(ModuleContext, "memo", recording)
    return builds


def test_full_verify_builds_each_whittaker_coefficient_once(monkeypatch,
                                                            tmp_path):
    # verify --suite full runs the whittaker suite, then the toda suite;
    # the coefficient sum sheaf_rgamma, the transfer's F_1((d_1); d_2..),
    # is built once per degree, and nothing sums the pairing of the
    # structure-sheaf vector against another
    pairs = []
    pair = whittaker.shapovalov_pair

    def counted_pair(ctx, x, y):
        # the structure-sheaf component: its coefficients are the sym factors
        if x.coeffs and all(c is ctx.sym_factor(p)
                            for p, c in x.coeffs.items()):
            pairs.append(tuple(x.degree))
        return pair(ctx, x, y)

    monkeypatch.setattr(whittaker, "shapovalov_pair", counted_pair)
    builds = recorded_builds(monkeypatch)
    out = tmp_path / "full.jsonl"
    assert main(["verify", "--n", "3", "--box", "2", "--out", str(out)]) \
        == EXIT_PASS
    assert pairs == []
    assert sorted(row + tail for kind, (row, tail) in
                  (b for b in builds if b[0] == "suffix_sum")
                  if len(row) == 1) == sorted(all_degrees(3, 2))


def test_toda_suite_builds_no_sym_factor(monkeypatch, tmp_path):
    # the transfer multiplies the pieces of the sym factors; no point's own
    # sym factor, and so no structure-sheaf component, is built
    builds = recorded_builds(monkeypatch)
    out = tmp_path / "toda.jsonl"
    assert main(["verify", "--n", "3", "--box", "2", "--suite", "toda",
                 "--out", str(out)]) == EXIT_PASS
    kinds = {kind for kind, _ in builds}
    assert "piece" in kinds and "suffix_sum" in kinds
    assert not kinds & {"sym", "whittaker_k"}


def test_toda_suite_builds_no_dual_whittaker_vector(monkeypatch, tmp_path):
    built = []
    dual = whittaker.whittaker_w
    monkeypatch.setattr(whittaker, "whittaker_w",
                        lambda ctx, d: built.append(tuple(d)) or dual(ctx, d))
    out = tmp_path / "toda.jsonl"
    assert main(["verify", "--n", "3", "--box", "2", "--suite", "toda",
                 "--out", str(out)]) == EXIT_PASS
    assert built == []


def failing_once(value):
    """A build that raises on its first call and gives value after, with
    the list of its calls."""
    calls = []

    def build(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("first build fails")
        return value

    return build, calls


def test_a_memo_stores_an_item_only_after_its_build_returns():
    ctx = ModuleContext(3)
    build, calls = failing_once("built")
    with pytest.raises(RuntimeError):
        ctx.memo("kind", 1, build)
    assert 1 not in ctx._memo["kind"]
    assert ctx.memo("kind", 1, build) == "built"
    assert ctx.memo("kind", 1, build) == "built" and len(calls) == 2


def test_an_operator_caches_a_row_only_after_its_entries_are_built():
    p = FixedPoint(3, ((0,), (0, 0)))
    build, calls = failing_once([(p, "entry")])
    op = GradedOperator("X", (0, 0), build)
    with pytest.raises(RuntimeError):
        op.terms(p)
    assert p.rows not in op._cache
    assert op.terms(p) == [(p, "entry")]
    assert op.terms(p) == [(p, "entry")] and len(calls) == 2
    # entries off the declared shift raise on every call, and are not kept
    shifted = GradedOperator("Y", (1, 0), lambda q: [(q, "entry")])
    for _ in range(2):
        with pytest.raises(UsageError):
            shifted.terms(p)
    assert not shifted._cache
