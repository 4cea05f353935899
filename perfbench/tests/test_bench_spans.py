"""Span recorder, self-time aggregation and program instrumentation."""

import itertools

import pytest

import benchpath  # noqa: F401
import layers
import spans
from dbarn import neumann, sobolev


def make_span(sid, name, start, end, parent=None, tag=None):
    return [sid, name, start, end, parent, "r0", tag, False]


def test_self_time_subtracts_union_of_children():
    recorded = [
        make_span(0, "root", 0.0, 10.0),
        make_span(1, "child", 1.0, 3.0, parent=0),
        make_span(2, "child", 2.0, 4.0, parent=0),   # overlaps the first child
        make_span(3, "other", 5.0, 6.0, parent=0),
        make_span(4, "leaf", 1.5, 2.0, parent=1),
        make_span(5, "child", 9.5, 11.0, parent=0),  # runs past the parent
    ]
    stats = spans.self_times(recorded)
    # root: 10 - |[1,4] u [5,6] u [9.5,10]| = 10 - 4.5
    assert stats["root"]["self_s"] == pytest.approx(5.5)
    assert stats["child"]["calls"] == 3
    assert stats["child"]["total_s"] == pytest.approx(2.0 + 2.0 + 1.5)
    assert stats["child"]["self_s"] == pytest.approx(1.5 + 2.0 + 1.5)
    assert stats["leaf"]["self_s"] == pytest.approx(0.5)


def test_tracer_nests_spans_and_tags():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.request = "r7"
    outer = tracer.begin("outer")
    tracer.end(tracer.begin("inner", tag="d10"))
    tracer.end(tracer.begin("inner"), error=True)
    tracer.end(outer)
    with pytest.raises(RuntimeError):        # closing out of order is a bug
        tracer.end(outer)
    outer, first, second = tracer.spans
    assert first[spans.PARENT] == outer[spans.ID] == second[spans.PARENT]
    assert outer[spans.REQUEST] == "r7"
    assert second[spans.ERROR] and not first[spans.ERROR]
    stats = spans.self_times(tracer.spans)
    # clock ticks: outer 0..5, inner 1..2, inner 3..4
    assert stats["outer"]["self_s"] == pytest.approx(3.0)
    assert stats["inner"]["errors"] == 1
    assert stats["inner.d10"]["calls"] == 1


def test_instrumentation_records_nested_program_calls_and_restores():
    original_build = neumann.DiscreteComplex.__dict__["build"]
    original_gram = sobolev.assemble_gram
    tracer = spans.Tracer()
    hooks = {"sobolev.assemble_gram": lambda t, args, kwargs, result: t.count("grams")}
    names = ["neumann.DiscreteComplex.build", "sobolev.assemble_gram",
             "neumann.verify_gram_positive_definite_exact"]
    tags = {"neumann.verify_gram_positive_definite_exact": lambda args, kwargs: f"d{args[0]}"}
    inst = spans.Instrumentation(tracer, names, tags=tags, on_result=hooks)
    inst.install()
    try:
        assert neumann.assemble_gram is not original_gram  # bound by name in neumann
        neumann.DiscreteComplex.build(3, 0)
        neumann.verify_gram_positive_definite_exact(2, 0)
        recorded = len(tracer.spans)
        with tracer.paused():
            neumann.DiscreteComplex.build(3, 0)
        assert len(tracer.spans) == recorded
    finally:
        inst.uninstall()
    assert neumann.DiscreteComplex.__dict__["build"] is original_build
    assert sobolev.assemble_gram is original_gram and neumann.assemble_gram is original_gram
    assert inst.missing == []
    names = {span[spans.NAME]: span for span in tracer.spans}
    build = names["neumann.DiscreteComplex.build"]
    assert names["sobolev.assemble_gram"][spans.PARENT] == build[spans.ID]
    assert names["neumann.verify_gram_positive_definite_exact"][spans.TAG] == "d2"
    assert tracer.counters["grams"] == 1


def test_missing_names_are_reported_not_fatal():
    inst = spans.Instrumentation(spans.Tracer(), ["forms.no_such_function",
                                                  "forms.NoClass.method"])
    inst.install()
    inst.uninstall()
    assert inst.missing == ["forms.no_such_function", "forms.NoClass.method"]


def test_every_layer_span_exists_in_the_package():
    inst = layers.instrumentation(spans.Tracer())
    inst.install()
    inst.uninstall()
    assert inst.missing == []
    assert sobolev.assemble_gram.__name__ == "assemble_gram"
    assert not hasattr(sobolev.assemble_gram, "__wrapped__")
