"""Which dslice functions are traced, and the per-layer metrics.

``words``, ``laurent`` and ``bs12`` are too fine-grained to wrap; their
cost shows up as the self time of their callers.  Every per-layer
figure is per round (one pass over the workload's requests), so runs
that fit a different number of rounds stay comparable; ``max_rows`` and
``max_cols`` are maxima, and ratios are taken over the traced pass.
"""

from __future__ import annotations

import importlib

# span names (module.attribute) with calls and self time reported
COUNTED = (
    "snf.sparse_invariants",
    "twisted.twisted_rows",
    "twisted.twisted_invariants",
    "twisted.crowell_check",
    "groups.finite_cover_homology",
    "groups.metabelian_quotient_homs",
    "certify.stage_b_certificate",
    "modules.fox_jacobian",
    "modules.alexander_module",
    "modules.detect_splitting",
    "modules.alexander_polynomial",
    "groebner.module_contains",
)
# self time only
TIMED = (
    "groebner.GroebnerBasis",
    "groups.summand_homs",
    "groups.second_derived_certificate",
    "groups.simplify_presentation",
    "twisted.summand_specialization_check",
    "twisted.transport_record",
    "certify.ext_condition",
    "certify.replay_certificate",
    "certify.relator_lift",
    "diagrams.zero_surgery",
    "diagrams.wirtinger",
    "diagrams.infect",
    "documents.load_document",
    "documents.diagram_from_document",
    "cache.cache_key",
    "cache.load_entry",
    "cache.store_entry",
    "cli.main",
)
# span names that wrap a method rather than a module function
_METHODS = {"groebner.GroebnerBasis": "GroebnerBasis.__init__"}


def _snf_args(args):
    rows, ncols = args[0], args[1]
    nnz = 0
    for r in rows:
        values = r.values() if isinstance(r, dict) else r
        nnz += sum(1 for v in values if v)
    return {"nnz": nnz, "rows": len(rows), "cols": ncols}


def _stage_b_result(result):
    return {"holds": result.get("status") == "holds"}


def _cache_result(result):
    return {"hit": result is not None}


_BEFORE = {"snf.sparse_invariants": _snf_args}
_OBSERVE = {
    "certify.stage_b_certificate": _stage_b_result,
    "cache.load_entry": _cache_result,
}


def targets() -> list:
    """(span name, module, attribute path, before, observe) tuples."""
    out = []
    for name in COUNTED + TIMED:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"dslice.{module_name}")
        out.append((name, module, _METHODS.get(name, attr),
                    _BEFORE.get(name), _OBSERVE.get(name)))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(totals: dict, spans, rounds: int, requests: int, maps: int,
              traced_wall: float, overhead_ratio: float) -> dict:
    """Metric name -> value from one traced pass of ``rounds`` rounds.

    The names, units and directions are those of ``per_layer`` in
    ``BENCHMARK.json``; ``run.py`` reports the values it names.
    """
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    snf = [s[5] for s in spans if s[2] == "snf.sparse_invariants" and s[5]]
    stage_b = [s[5] for s in spans if s[2] == "certify.stage_b_certificate" and s[5]]
    loads = [s[5] for s in spans if s[2] == "cache.load_entry" and s[5]]
    values = {}
    for name in COUNTED:
        values[f"{name}.calls"] = calls(name) / rounds
        values[f"{name}.self_s"] = self_s(name) / rounds
    values["snf.sparse_invariants.nnz_in"] = sum(a["nnz"] for a in snf) / rounds
    values["snf.sparse_invariants.max_rows"] = max((a["rows"] for a in snf), default=0)
    values["snf.sparse_invariants.max_cols"] = max((a["cols"] for a in snf), default=0)
    values["oracle.snf_calls_per_map"] = _ratio(calls("snf.sparse_invariants"), maps)
    values["certify.stage_b_certificate.holds_ratio"] = _ratio(
        sum(a["holds"] for a in stage_b), len(stage_b))
    values["modules.fox_jacobian.calls_per_request"] = _ratio(
        calls("modules.fox_jacobian"), requests)
    for name in TIMED:
        values[f"{name}.self_s"] = self_s(name) / rounds
    values["cache.hit_ratio"] = _ratio(sum(a["hit"] for a in loads), len(loads))
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.wall_s"] = traced_wall / rounds
    return values
