"""Per-layer metrics of the traced run: span self times, counters, accuracy
evidence next to them, and the per-criterion probe.

``PER_LAYER`` is the list of per-layer metrics (name, unit, better) that
BENCHMARK.json declares; every traced run reports all of them, with 0 for a
layer the workload does not reach.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import inputs
import spans
from dbarn import acceptance

# Degree tags of the exact requests that get their own self-time metric.
PER_DEGREE = (".d10", ".d20", ".d30")

# metric name -> (span name, field of spans.self_times)
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "sobolev.assemble_gram.self_s": ("sobolev.assemble_gram", "self_s"),
    "sobolev.assemble_gram.calls": ("sobolev.assemble_gram", "calls"),
    "sobolev.cholesky.self_s": ("sobolev.SobolevGram.cholesky", "self_s"),
    "sobolev.cholesky.failed": ("sobolev.SobolevGram.cholesky", "errors"),
    "sobolev.inner_s_exact.self_s": ("sobolev.inner_s_exact", "self_s"),
    "sobolev.inner_s_recursive_exact.self_s": ("sobolev.inner_s_recursive_exact", "self_s"),
    **{f"neumann.{fn}{tag}.self_s": (f"neumann.{fn}{tag}", "self_s")
       for fn in ("neumann_operator_norm_proxy_exact", "verify_gram_positive_definite_exact")
       for tag in ("", *PER_DEGREE)},
    **{f"neumann.{fn}.self_s": (f"neumann.{fn}", "self_s")
       for fn in ("DiscreteComplex.build", "neumann_solve", "canonical_solve_dbar",
                  "hodge_decompose", "adjoint", "greens_identity_check",
                  "blowup_experiment", "domain_projection", "check_domain_condition")},
    "bvp.DiscKOperator.unit_profile.self_s": ("bvp.DiscKOperator.unit_profile", "self_s"),
    "bvp.DiscKOperator.unit_profile.calls": ("bvp.DiscKOperator.unit_profile", "calls"),
    "bvp.DiscKOperator.apply.self_s": ("bvp.DiscKOperator.apply", "self_s"),
    "bvp.DiscKOperator.boundary_data.self_s": ("bvp.DiscKOperator.boundary_data", "self_s"),
    "bvp.solve_interval.self_s": ("bvp.solve_interval", "self_s"),
    "bvp.solve_interval_fd.self_s": ("bvp.solve_interval_fd", "self_s"),
    "geometry.DiscGeometry.build.self_s": ("geometry.DiscGeometry.build", "self_s"),
    "geometry.radial_derivative_matrix.self_s": (
        "geometry.DiscGeometry.radial_derivative_matrix", "self_s"),
    "geometry.ws_norm_sampled.self_s": ("geometry.ws_norm_sampled", "self_s"),
    "geometry.normal_derivative.self_s": ("geometry.normal_derivative", "self_s"),
    "ellipticity.certify_trivial_kernel.self_s": ("ellipticity.certify_trivial_kernel",
                                                  "self_s"),
    "ellipticity.quadratic_form.self_s": ("ellipticity.quadratic_form", "self_s"),
    **{f"forms.{fn}.self_s": (f"forms.{fn}", "self_s")
       for fn in ("form_from_text", "box", "dbar", "theta")},
    "cli.main.self_s": ("cli.main", "self_s"),
}

# The traced run wraps exactly the functions these metrics name, so a parent's
# self time keeps the work of every helper it calls that has no metric.
LAYER_SPANS = tuple(dict.fromkeys(span for span, _ in SPAN_METRICS.values()
                                  if not span.endswith(PER_DEGREE)))
# Calls whose spans carry the degree d as a tag, for per-d self times.
DEGREE_TAGGED = ("neumann.neumann_operator_norm_proxy_exact",
                 "neumann.verify_gram_positive_definite_exact")

# Accuracy evidence reported by the checks: the traced run keeps the maximum.
EVIDENCE_METRICS = ("neumann.neumann_solve.max_residual",
                    "neumann.canonical_solve_dbar.max_residual",
                    "neumann.hodge_decompose.max_defect",
                    "neumann.adjoint.max_defect",
                    "neumann.check_domain_condition.max_residual",
                    "bvp.bessel_error")

CRITERIA = range(1, 15)


def _better(name: str) -> str:
    if name.endswith((".entries_per_s", ".hit_ratio", ".passed")):
        return "higher"
    return "lower"


def _unit(name: str) -> str:
    if name.endswith(".entries_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".calls", ".failed", ".passed")):
        return "count"
    if name in EVIDENCE_METRICS:
        return "1"
    return "ratio"


_NAMES = (list(SPAN_METRICS)
          + ["sobolev.assemble_gram.entries_per_s", "sobolev.gram_cache.hit_ratio",
             "cli.import_s"]
          + list(EVIDENCE_METRICS)
          + [f"acceptance.criterion_{k:02d}.{what}" for k in CRITERIA
             for what in ("s", "passed")]
          + ["trace.overhead_s", "failed_frac"])
PER_LAYER: list[tuple[str, str, str]] = [(name, _unit(name), _better(name)) for name in _NAMES]


def _degree_tag(args: tuple, kwargs: dict) -> str | None:
    d = args[0] if args else kwargs.get("d")
    return None if d is None else f"d{d}"


def instrumentation(tracer: spans.Tracer) -> spans.Instrumentation:
    """Span wrappers for every layer function a per-layer metric names."""
    return spans.Instrumentation(tracer, LAYER_SPANS,
                                 tags={name: _degree_tag for name in DEGREE_TAGGED},
                                 on_result=result_hooks())


def result_hooks() -> dict:
    """Counters that need a call's return value.

    A Gram cache hit is a call to ``assemble_gram`` that returns a Gram object
    the benchmark has already seen; the objects are kept so ids stay unique.
    """
    seen: dict[int, object] = {}

    def gram(tracer: spans.Tracer, args: tuple, kwargs: dict, result) -> None:
        if id(result) in seen:
            tracer.count("sobolev.gram_cache.hits")
            return
        seen[id(result)] = result
        tracer.count("sobolev.gram_cache.misses")
        basis = args[0] if args else kwargs["basis"]
        tracer.count("sobolev.assemble_gram.entries", inputs.same_charge_pairs(basis.degree))

    return {"sobolev.assemble_gram": gram}


def layer_metrics(tracer: spans.Tracer, outcomes: list, workload) -> dict[str, float]:
    stats = spans.self_times(tracer.spans)
    metrics = {name: float(stats.get(span, {}).get(what, 0.0))
               for name, (span, what) in SPAN_METRICS.items()}
    counters = tracer.counters
    gram_self = metrics["sobolev.assemble_gram.self_s"]
    entries = counters.get("sobolev.assemble_gram.entries", 0)
    metrics["sobolev.assemble_gram.entries_per_s"] = entries / gram_self if gram_self else 0.0
    lookups = counters.get("sobolev.gram_cache.hits", 0) + counters.get(
        "sobolev.gram_cache.misses", 0)
    metrics["sobolev.gram_cache.hit_ratio"] = (
        counters.get("sobolev.gram_cache.hits", 0) / lookups if lookups else 0.0)
    imports = getattr(workload, "import_times", [])
    metrics["cli.import_s"] = statistics.mean(imports) if imports else 0.0
    for _, outcome in outcomes:
        for key, value in outcome.evidence.items():
            if key in EVIDENCE_METRICS and math.isfinite(value):
                metrics[key] = max(metrics.get(key, 0.0), value)
    return metrics


@dataclass
class CriterionProbe:
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def probe_criteria(numbers) -> CriterionProbe:
    """Time ``acceptance.run_criterion(k)`` for each k, with its pass flag and evidence."""
    probe = CriterionProbe()
    for k in numbers:
        start = time.perf_counter()
        try:
            result = acceptance.run_criterion(k)
            passed, details = result.passed, result.details
        except Exception as exc:  # recorded, not gated
            passed, details = False, {"error": repr(exc)}
        elapsed = time.perf_counter() - start
        probe.metrics[f"acceptance.criterion_{k:02d}.s"] = elapsed
        probe.metrics[f"acceptance.criterion_{k:02d}.passed"] = float(passed)
        probe.lines.append(f"acceptance criterion {k:2d}: {elapsed:.3f} s "
                           f"[{'PASS' if passed else 'FAIL'}] {details}")
    return probe
