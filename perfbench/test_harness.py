"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import layers
import percentiles
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dslice import alexander_polynomial, default_registry, diagram_hash  # noqa: E402
from dslice.corpus import bundled_document  # noqa: E402
from dslice.diagrams import zero_surgery  # noqa: E402
from dslice.documents import diagram_from_document  # noqa: E402


# -- percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n, want", [
    (100, 90), (101, 90), (109, 90), (110, 90), (99, 89),
    (1000, 99), (20, 50), (19, None), (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    got = percentiles.tail_percentile(n)
    assert got == want
    if got is not None:
        assert percentiles.samples_beyond(n, got) >= 10
        if got < 99:
            assert percentiles.samples_beyond(n, got + 1) < 10


def test_percentile_interpolates_like_inclusive_quantiles():
    import statistics

    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert percentiles.percentile(xs, 50) == statistics.median(xs)
    assert percentiles.percentile(xs, 0) == 1.0
    assert percentiles.percentile(xs, 100) == 10.0
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    assert percentiles.percentile(xs, 90) == pytest.approx(deciles[-1])
    assert percentiles.percentile([7.0], 90) == 7.0


# -- host speed probe -------------------------------------------------------


def _probe(samples):
    probe = speed.Probe()
    for start, cost in samples:
        probe.starts.append(start)
        probe.costs.append(cost)
    return probe


def test_rescale_removes_probe_time_and_slow_phases():
    ref = speed.REF_S
    # a probe every second: twice as slow for the first half
    probe = _probe([(t, 2 * ref if t < 10 else ref) for t in range(20)])
    # 20 s measured, 20 probes inside; mean speed (0.5 * 10 + 1 * 10) / 20
    busy = 20.0 - (10 * 2 * ref + 10 * ref)
    assert probe.rescale(-0.5, 19.5) == pytest.approx(busy * 0.75)
    # on the fast half the figure is the measured time less the probes
    assert probe.rescale(9.5, 19.5) == pytest.approx(10.0 - 10 * ref)


def test_rescale_widens_short_spans_to_the_nearest_probes():
    ref = speed.REF_S
    probe = _probe([(t, (1 + t % 2) * ref) for t in range(2 * speed.NEAREST)])
    # no probe inside: the NEAREST probes around it, half of each speed
    assert probe.speed(7.2, 7.3) == pytest.approx(0.75)
    assert probe.rescale(7.2, 7.3) == pytest.approx(0.1 * 0.75)


def test_probe_runs_while_active():
    probe = speed.Probe(interval=0.001)
    with probe:
        deadline = speed.time.perf_counter() + 0.05
        while speed.time.perf_counter() < deadline:
            pass
    count = len(probe.costs)
    assert count > 0 and probe.rescale(0.0, speed.time.perf_counter()) > 0
    speed.time.sleep(0.005)
    assert len(probe.costs) == count


# -- spans and self time ----------------------------------------------------


def _span(sid, parent, start, end, name="x"):
    return [sid, parent, name, start, end, None]


def test_self_time_subtracts_nested_children():
    recs = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "b"),
        _span(3, 0, 5.0, 6.0, "b"),
    ]
    got = spans.self_times(recs)
    assert got == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = spans.layer_totals(recs)
    assert totals["b"] == {"calls": 2, "self_s": 2.0}
    assert totals["root"]["self_s"] == 6.0


def test_self_time_counts_overlapping_children_once():
    recs = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 0, 9.0, 12.0),
    ]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_self_time(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert tracer.run("request", outer, 3) == 8
    names = {s[0]: (s[2], s[1]) for s in tracer.spans}
    assert names == {0: ("request", None), 1: ("outer", 0), 2: ("inner", 1)}
    # request 0..5, outer 1..4, inner 2..3
    assert spans.self_times(tracer.spans) == {0: 2.0, 1: 2.0, 2: 1.0}


def test_install_rebinds_from_imports_and_restores():
    import dslice.groups
    import dslice.snf
    import dslice.twisted

    original = dslice.snf.abelian_invariants
    tracer = spans.Tracer()
    target = ("snf.abelian_invariants", dslice.snf, "abelian_invariants", None, None)
    restore, missing = spans.install(tracer, [target])
    try:
        assert missing == []
        assert dslice.twisted.abelian_invariants is dslice.snf.abelian_invariants
        assert dslice.groups.abelian_invariants is not original
        assert dslice.twisted.abelian_invariants([[2, 0], [0, 3]], 2) == (0, [6])
    finally:
        restore()
    assert dslice.twisted.abelian_invariants is original
    assert [s[2] for s in tracer.spans] == ["snf.abelian_invariants"]


def test_install_reports_missing_targets():
    import dslice.snf

    restore, missing = spans.install(
        spans.Tracer(), [("snf.gone", dslice.snf, "gone", None, None)])
    restore()
    assert missing == ["snf.gone"]


def test_every_layer_target_exists():
    restore, missing = spans.install(spans.Tracer(), layers.targets())
    restore()
    assert missing == []


def test_before_hook_runs_in_its_own_span(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    snf = tracer.wrap("snf", lambda rows, ncols: len(rows), before=layers._snf_args)
    caller = tracer.wrap("caller", lambda: snf([{0: 2, 1: 0}, {1: 3}], 2))
    assert caller() == 2
    names = {s[0]: (s[2], s[1]) for s in tracer.spans}
    assert names == {0: ("caller", None), 1: ("trace.before", 0), 2: ("snf", 0)}
    assert tracer.spans[2][5] == {"nnz": 2, "rows": 2, "cols": 2}
    # caller 0..5, trace.before 1..2, snf 3..4
    assert spans.self_times(tracer.spans) == {0: 3.0, 1: 1.0, 2: 1.0}


# -- generated 9_46 diagrams -----------------------------------------------


def _base():
    return bundled_document("946")


def _poly(pd):
    diagram, _ = diagram_from_document({"pd": pd})
    plain = zero_surgery(diagram, 0)
    return str(alexander_polynomial(plain.group, plain.meridian)), diagram


def test_mirror_flips_every_sign_and_keeps_the_polynomial():
    base = _base()
    want, diagram = _poly(base["pd"])
    got, mirror = _poly(workloads.mirror_pd(base["pd"]))
    assert got == want
    assert mirror.signs == tuple(-s for s in diagram.signs)
    assert diagram_hash(mirror) != diagram_hash(diagram)


@pytest.mark.parametrize("positive", [True, False])
def test_kinks_on_every_edge_are_the_same_knot(positive):
    base = _base()
    want, diagram = _poly(base["pd"])
    hashes = set()
    for edge in diagram.edges:
        got, kinked = _poly(workloads.kink_pd(base["pd"], diagram.signs, edge, positive))
        assert len(kinked.crossings) == len(diagram.crossings) + 1
        assert kinked.signs[-1] == (1 if positive else -1)
        assert got == want
        hashes.add(diagram_hash(kinked))
    assert len(hashes) > 1 and diagram_hash(diagram) not in hashes


def test_choose_kinks_is_seeded_and_takes_one_edge_per_block():
    a = workloads.choose_kinks(7, 18)
    assert a == workloads.choose_kinks(7, 18)
    assert [(e - 1) // workloads.KINK_BLOCK for e, _ in a] == list(range(6))
    seeds = {tuple(workloads.choose_kinks(s, 18)) for s in range(20)}
    assert len(seeds) > 1


def test_unregistered_documents_are_valid_and_unregistered():
    registered = default_registry()["ext"]
    docs = workloads.unregistered_documents(
        3, _base(), diagram_from_document, diagram_hash, registered)
    kinks = workloads.choose_kinks(3, 18)
    tags = [tag for tag, _ in docs]
    assert tags[0] == "mirror" and len(tags) == 1 + len(kinks)
    assert tags[1:] == [f"kink{e:02d}{'+' if p else '-'}" for e, p in kinks]
    for _, doc in docs:
        diagram, _ = diagram_from_document(doc)
        assert diagram_hash(diagram) not in registered


def test_unregistered_documents_refuse_a_registered_hash():
    base = _base()
    mirror, _ = diagram_from_document({"pd": workloads.mirror_pd(base["pd"])})
    with pytest.raises(RuntimeError, match="registered"):
        workloads.unregistered_documents(
            1, base, diagram_from_document, diagram_hash, {diagram_hash(mirror)})


# -- output checks ----------------------------------------------------------

EXPECTED = {"module_lines": ["module order: 2 - 5*t + 2*t^2", "splitting verdict: split"]}


def _cert(conclusion, statuses, hyps=None):
    return json.dumps({
        "conclusion": conclusion,
        "hypotheses": hyps if hyps is not None else EXPECTED["module_lines"] + ["x"],
        "verdicts": {f"P{i + 1}": {"status": s} for i, s in enumerate(statuses)},
    })


def test_check_unregistered():
    never = lambda cert: pytest.fail("replayed without a holds verdict")  # noqa: E731
    undecided = _cert("Undetermined", ["undetermined", "undetermined"])
    assert workloads.check_unregistered(EXPECTED, 1, undecided, never)
    assert not workloads.check_unregistered(EXPECTED, 0, undecided, never)
    moved = _cert("Undetermined", ["undetermined"] * 2, ["module order: 1"])
    assert not workloads.check_unregistered(EXPECTED, 1, moved, never)
    fails = _cert("CriterionFailsButInconclusive", ["fails", "fails"])
    assert not workloads.check_unregistered(EXPECTED, 1, fails, never)
    certified = _cert("DoublySliceCertified", ["holds", "holds"])
    assert workloads.check_unregistered(EXPECTED, 0, certified, lambda c: True)
    assert not workloads.check_unregistered(EXPECTED, 0, certified, lambda c: False)
    assert not workloads.check_unregistered(EXPECTED, 1, "not json", never)


def test_maps_reported():
    oracle = ("quotient: metabelian (2,1), 2 map(s)\n"
              "map 0: cover Z^1 + [3], twisted Z^2 + [3], agree True\n"
              "map 1: cover Z^1 + [], twisted Z^1 + [], agree True\n"
              "all agree: True\n")
    assert workloads.maps_reported(oracle) == 2
    assert workloads.maps_reported(
        "metabelian quotient (2,3): 27 map(s), cover cross-check True\n") == 1
    assert workloads.maps_reported(
        '  "cover homology cross-check at (2,3): True",\n') == 1
    assert workloads.maps_reported("metabelian quotient (2,3): 0 map(s), cover cross-check None\n") == 0


# -- the benchmark definition ----------------------------------------------


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in bench["end_to_end"]}
    assert "setup_s" in names
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
