"""End-to-end exit-code and output contract for the command line."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dslice
from dslice.bs12 import FiniteMetabelian
from dslice.cache import ENV_CACHE_DIR
from dslice.cli import main
from dslice.corpus import bundled_document, default_registry, resolve_hash
from dslice.certify import replay_certificate
from dslice.documents import dump_document


@pytest.fixture()
def docs(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cache"))
    paths = {}
    for name in ("unknot", "trefoil", "figure8", "946", "r-rr"):
        path = tmp_path / f"{name}.json"
        dump_document(bundled_document(name), str(path))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_runs_as_a_module():
    src = str(Path(dslice.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-m", "dslice", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.startswith("usage: dslice")


# ----------------------------------------------------------------- certify


def test_certify_certified_pattern(docs, capsys):
    code, out, _ = run(capsys, "certify", docs["946"])
    assert code == 0
    assert "conclusion: DoublySliceCertified" in out


def test_certify_not_applicable(docs, capsys):
    code, out, _ = run(capsys, "certify", docs["trefoil"])
    assert code == 1
    assert "conclusion: NotApplicable" in out


def test_certify_satellite_document_fails_inconclusively(docs, capsys):
    code, out, _ = run(capsys, "certify", docs["r-rr"])
    assert code == 1
    assert "conclusion: CriterionFailsButInconclusive" in out


def test_certify_json_is_replayable(docs, capsys):
    code, out, _ = run(capsys, "certify", docs["946"], "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["conclusion"] == "DoublySliceCertified"
    assert replay_certificate(cert, resolve_hash, registry=default_registry())


def test_certify_batch_exit_is_worst_case(docs, capsys):
    code, out, _ = run(capsys, "certify", docs["946"], docs["trefoil"])
    assert code == 1
    assert out.count("certificate:") == 2


def test_certify_rejects_bad_quotient(docs, capsys):
    code, _, err = run(
        capsys, "certify", docs["946"], "--quotient-bound", "2", "5"
    )
    assert code == 2
    assert "2^n = 1 mod m" in err


def test_quotient_bound_kernel_is_computed_mod_m(docs, capsys):
    # 54 elements, inside every cap: the translation kernel comes from an
    # elimination over Z/9, not an integer Smith form that blows up
    code, out, _ = run(
        capsys, "analyze", docs["946"], "--quotient-bound", "6", "9",
        "--no-cache",
    )
    assert code == 0
    assert "metabelian quotient (6,9): 243 map(s)" in out


def test_oversized_quotient_kernel_is_refused_or_skipped(docs, capsys):
    bound = ("--quotient-bound", "20", "1048575", "--no-cache")
    code, out, err = run(capsys, "analyze", docs["946"], *bound)
    assert (code, out) == (2, "")
    # 20 * 1048575 elements: refused by the target cap before the kernel
    assert "target group larger than the cap" in err
    code, out, _ = run(capsys, "certify", docs["946"], *bound)
    assert code == 0
    assert "metabelian quotient maps at (20,1048575): skipped" in out


def test_oversized_kernel_inside_the_target_cap_is_refused(docs, capsys):
    # 10 * 1023 elements are within the target cap, 1023^3 maps are not
    bound = ("--quotient-bound", "10", "1023", "--no-cache")
    code, out, err = run(capsys, "analyze", docs["946"], *bound)
    assert (code, out) == (2, "")
    assert "translation kernel too large" in err
    code, out, _ = run(capsys, "certify", docs["946"], *bound)
    assert code == 0
    assert "metabelian quotient maps at (10,1023): skipped" in out


def test_target_cap_is_checked_before_enumerating_maps(
    docs, capsys, monkeypatch
):
    import dslice.diagrams as diagrams
    import dslice.groups as groups

    def refuse(*args, **kwargs):
        raise AssertionError("the translation kernel must not be computed")

    # the default (2,3) target has 6 elements, one past a cap of 5;
    # metabelian_quotient_homs refuses it before it asks the presentation
    # for its kernel mod m
    monkeypatch.setattr(groups, "_REGULAR_CAP", 5)
    monkeypatch.setattr(diagrams, "nullspace_mod", refuse)
    code, out, _ = run(capsys, "certify", docs["946"], "--no-cache")
    assert code == 0
    maps = [line for line in out.splitlines() if "quotient maps" in line]
    assert maps == ["  - metabelian quotient maps at (2,3): skipped"]
    code, out, err = run(capsys, "analyze", docs["946"], "--no-cache")
    assert (code, out) == (2, "")
    assert "target group larger than the cap" in err


# Two diagrams of 9_46 whose hashes the registry does not know, so certify
# gives stage B's rank certificate: the mirror (each PD row [a,b,c,d] becomes
# [a,d,c,b]) and a negative Reidemeister-I kink on edge 7.  The exit code
# and the stdout SHA-256 of `certify --format json --no-cache` pin the
# certificate bytes.
UNREGISTERED_946 = {
    "mirror": (
        [[11, 18, 12, 1], [1, 10, 2, 11], [9, 2, 10, 3], [5, 12, 6, 13],
         [13, 4, 14, 5], [3, 14, 4, 15], [6, 18, 7, 17], [16, 8, 17, 7],
         [8, 16, 9, 15]],
        "418c56318aa703d344c7ca6dd9c3d4b514b5a8dcbd37b521141cf34c5b1fc96b",
    ),
    "kink07-": (
        [[13, 1, 14, 20], [1, 13, 2, 12], [11, 3, 12, 2], [5, 15, 6, 14],
         [15, 5, 16, 4], [3, 17, 4, 16], [6, 19, 7, 20], [18, 9, 19, 10],
         [10, 17, 11, 18], [7, 8, 8, 9]],
        "98aa04d2904f3d197fe3d5a664ef9463a550f37970d90f2de79d5f375aefae5c",
    ),
}


@pytest.mark.parametrize("tag", sorted(UNREGISTERED_946))
def test_certify_unregistered_946_bytes_are_pinned(capsys, tmp_path, tag):
    pd, want = UNREGISTERED_946[tag]
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(
        {"format": "dslice-diagram/1", "name": tag, "pd": pd}
    ))
    code, out, _ = run(
        capsys, "certify", str(path), "--format", "json", "--no-cache"
    )
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, want)
    verdicts = json.loads(out)["verdicts"]
    assert sorted(verdicts) == ["P1", "P2"]
    for verdict in verdicts.values():
        assert verdict["reason"] == (
            "commutative shadow obstructs every candidate matrix"
        )


def test_certify_unregistered_kink_eliminates_the_jacobian_once(
    capsys, tmp_path, monkeypatch
):
    import importlib

    import dslice.snf as snf

    inner = snf.nullspace_mod
    calls = []

    def counting(rows, m, ncols=None):
        calls.append((len(rows), ncols, m))
        return inner(rows, m, ncols)

    for name in ("snf", "diagrams", "groups", "modules", "certify"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "nullspace_mod", None) is inner:
            monkeypatch.setattr(module, "nullspace_mod", counting)
    pd, _ = UNREGISTERED_946["kink07-"]
    path = tmp_path / "kink07-.json"
    path.write_text(json.dumps(
        {"format": "dslice-diagram/1", "name": "kink07-", "pd": pd}
    ))
    code, out, _ = run(capsys, "certify", str(path), "--no-cache")
    assert code == 1 and "commutative shadow" in out
    # the (2,3) quotient maps and stage B's rank read one kernel mod 3 of
    # the 4 x 3 Jacobian of the Tietze-simplified presentation, carried
    # back to the 10 full generators; the splitting test counts the F_3
    # dimension of the 4 x 2 module
    assert sorted(calls) == [(4, 2, 3), (4, 3, 3)]


# ----------------------------------------------------------------- analyze


def test_analyze_unknot(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["unknot"])
    assert code == 0
    assert "alexander polynomial: 1" in out
    assert "splitting: NotApplicable" in out


def test_analyze_pattern_reports_split(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["946"])
    assert code == 0
    assert "alexander polynomial: 2 - 5*t + 2*t^2" in out
    assert "splitting: Split" in out
    assert "witness 1" in out


def test_analyze_figure8(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["figure8"])
    assert code == 0
    assert "alexander polynomial: 1 - 3*t + 1*t^2" in out
    assert "splitting: NotApplicable" in out


def test_analyze_json_fields(docs, capsys):
    code, out, _ = run(capsys, "analyze", docs["946"], "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["splitting"]["verdict"] == "Split"
    assert report["metabelian_quotient"]["crowell_agree"] is True


def test_analyze_rejects_satellite_documents(docs, capsys):
    code, _, err = run(capsys, "analyze", docs["r-rr"])
    assert code == 2
    assert "knot or link document" in err


# --------------------------------------------------------------- satellite


def test_satellite_any_companion(docs, capsys):
    code, out, _ = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "eta1", "--companion", "any",
    )
    assert code == 0
    assert "companion AnyKnot" in out


def test_satellite_meridian_curve(docs, capsys):
    code, out, _ = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "meridian",
    )
    assert code == 1
    assert "conclusion: NotApplicable" in out


def test_satellite_symbolic_doubled_companion(docs, capsys):
    code, out, _ = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "gamma1", "--companion", "wh-symbolic",
    )
    assert code == 0
    assert "companion DoubledAnyKnot" in out


def test_satellite_any_on_homology_curve(docs, capsys):
    code, out, _ = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "gamma1", "--companion", "any",
    )
    assert code == 1
    assert "conclusion: NotApplicable" in out


def test_satellite_concrete_companion(docs, capsys):
    code, out, _ = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "eta2", "--companion", docs["trefoil"],
    )
    assert code == 0
    assert "companion trefoil" in out


def test_satellite_unknown_curve(docs, capsys):
    code, _, err = run(
        capsys, "satellite", "--pattern", docs["946"],
        "--infection", "nosuch",
    )
    assert code == 2
    assert "no marked curve" in err


# ------------------------------------------------------------------ oracle


def test_oracle_trefoil_double_cover(docs, capsys):
    code, out, _ = run(
        capsys, "oracle", "--knot", docs["trefoil"], "--n", "2", "--m", "1"
    )
    assert code == 0
    assert "cover Z^1 + [3]" in out
    assert "all agree: True" in out


def test_oracle_and_analyze_run_on_the_stevedore(tmp_path, capsys, monkeypatch):
    # two small relators of 6_1 are inverse rotations of each other; the
    # Tietze check once refused its presentation and both exited 2
    from test_modules import STEVEDORE

    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cache"))
    path = tmp_path / "6_1.json"
    path.write_text(json.dumps({"name": "6_1", "pd": [list(c) for c in STEVEDORE]}))
    code, out, _ = run(capsys, "oracle", "--knot", str(path), "--n", "2", "--m", "3")
    assert code == 0
    assert "all agree: True" in out
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "splitting: NotApplicable" in out


def test_oracle_pattern_metabelian(docs, capsys):
    code, out, _ = run(
        capsys, "oracle", "--knot", docs["946"], "--n", "2", "--m", "3",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_agree"] is True
    assert len(report["maps"]) >= 1


# exit code and stdout SHA-256 of `oracle --no-cache`; the text digests are
# also those the benchmark checks in perfbench/expected.json
ORACLE_DIGESTS = {
    ("946", 3, 7, "text"):
        (0, "0dd5b64e7667f621f6718249899b5ff930fca9f5952847798d9230732cff0dac"),
    ("946", 3, 7, "json"):
        (0, "d30c8acdb6f760ac8e7ff124a763bfdcc1a67cf36264dea2da52aa3285b1a8c8"),
    ("trefoil", 4, 15, "text"):
        (0, "5f98efa674084923866302cf132e50abd749821ba8f713467cd50000dce71438"),
    ("trefoil", 4, 15, "json"):
        (0, "84609110260893a708c49b3abadd14ef41b30144d2405af211f3a5778899ab00"),
}


@pytest.mark.parametrize("name,n,m,fmt", sorted(ORACLE_DIGESTS))
def test_oracle_output_bytes_are_pinned(docs, capsys, name, n, m, fmt):
    code, out, _ = run(
        capsys, "oracle", "--knot", docs[name], "--n", str(n), "--m", str(m),
        "--format", fmt, "--no-cache",
    )
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == ORACLE_DIGESTS[(name, n, m, fmt)]


def test_oracle_computes_smith_forms_once_per_orbit(docs, capsys, monkeypatch):
    import dslice.twisted as twisted
    from dslice.diagrams import zero_surgery
    from dslice.documents import diagram_from_document
    from dslice.groups import coset_action, metabelian_quotient_homs
    from synthpres import brute_scaled_orbit_count

    calls = {
        "coset_action": 0, "twisted_rows": 0, "_regular_blocks": 0,
        "abelian_invariants": 0,
    }

    def counting(fname):
        inner = getattr(twisted, fname)

        def wrapper(*args, **kwargs):
            calls[fname] += 1
            return inner(*args, **kwargs)
        return wrapper

    for fname in calls:
        monkeypatch.setattr(twisted, fname, counting(fname))
    code, out, _ = run(
        capsys, "oracle", "--knot", docs["946"], "--n", "2", "--m", "3",
        "--format", "json", "--no-cache",
    )
    assert code == 0
    nmaps = len(json.loads(out)["maps"])
    diagram, _ = diagram_from_document(bundled_document("946"))
    plain = zero_surgery(diagram, 0)
    target, homs = metabelian_quotient_homs(plain, 2, 3)
    orbits = brute_scaled_orbit_count(homs, target)
    actions = len({coset_action(plain.group, h, target) for h in homs})
    assert (nmaps, orbits, actions) == (27, 5, 5)
    # a coset action and a cover Smith form, group-ring rows and a
    # twisted matrix and Smith form are built once per orbit under
    # conjugation and unit scaling; every other map reuses its orbit
    # representative's result
    assert calls == {
        "coset_action": orbits, "twisted_rows": orbits, "_regular_blocks": orbits,
        "abelian_invariants": 2 * orbits,
    }


def test_oracle_refuses_oversized_target_before_enumerating(
    docs, capsys, monkeypatch
):
    import dslice.diagrams as diagrams

    def refuse(*args, **kwargs):
        raise AssertionError("nullspace_mod must not run")

    # the presentation's kernel accessor is the binding that computes it
    monkeypatch.setattr(diagrams, "nullspace_mod", refuse)
    code, out, err = run(
        capsys, "oracle", "--knot", docs["946"], "--n", "20",
        "--m", "1048575", "--no-cache",
    )
    assert (code, out) == (2, "")
    assert "target group larger than the cap" in err


def test_oracle_rejects_incompatible_parameters(docs, capsys):
    code, _, err = run(
        capsys, "oracle", "--knot", docs["trefoil"], "--n", "2", "--m", "5"
    )
    assert code == 2
    assert "incompatible parameters" in err
    code, _, _ = run(
        capsys, "oracle", "--knot", docs["trefoil"], "--n", "0", "--m", "1"
    )
    assert code == 2


# ------------------------------------------------------------ input errors


def test_missing_file(docs, capsys, tmp_path):
    code, _, err = run(capsys, "certify", str(tmp_path / "ghost.json"))
    assert code == 2
    assert "cannot read document" in err


def test_invalid_json(docs, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2


def test_malformed_pd(docs, capsys, tmp_path):
    bad = tmp_path / "badpd.json"
    bad.write_text('{"pd": [[1, 2, 3]]}')
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 2
    assert "four" in err


def _knot_with(**fields):
    return {**bundled_document("946"), **fields}


def _family_with(pattern=None, companion=None, curve=None):
    doc = copy.deepcopy(bundled_document("r-rr"))  # the corpus caches it
    first = doc["infections"][0]
    doc["pattern"] = pattern or doc["pattern"]
    first["companion"] = companion or first["companion"]
    first["curve"] = curve or first["curve"]
    return doc


MALFORMED = {
    "signs not a list": _knot_with(signs=5),
    "boolean signs": _knot_with(signs=[True] * 9),
    "components not a list": _knot_with(components=3),
    "component with a string label": _knot_with(components=[[1, "x"]]),
    "curves not an object": _knot_with(marks={"curves": 3}),
    "boolean curve edge": _knot_with(marks={"curves": {"eta1": [[True, 1]]}}),
    "boolean curve exponent": _knot_with(marks={"curves": {"eta1": [[1, True]]}}),
    "string curve edge": _knot_with(marks={"curves": {"eta1": [["x", 1]]}}),
    "bundled pattern named by a list": _family_with(pattern={"bundled": ["946"]}),
    "bundled companion named by a list": _family_with(
        companion={"bundled": ["946"]}
    ),
    "infection curve not a string": _family_with(curve=["eta1"]),
    "boolean pd labels": {"pd": [[True, 2, 2, True]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2_with_one_line(docs, capsys, tmp_path, case):
    path = tmp_path / "doc.json"
    dump_document(MALFORMED[case], str(path))
    code, out, err = run(capsys, "certify", str(path), "--no-cache")
    assert (code, out) == (2, "")
    assert err.startswith("dslice: ") and err.count("\n") == 1


# ----------------------------------------------------------------- caching


def test_output_is_deterministic(docs, capsys):
    _, out1, _ = run(capsys, "certify", docs["946"], "--no-cache")
    _, out2, _ = run(capsys, "certify", docs["946"], "--no-cache")
    assert out1 == out2


def test_cache_hit_is_byte_identical(docs, capsys, tmp_path):
    code1, out1, _ = run(capsys, "certify", docs["946"])
    cache = tmp_path / "cache"
    assert list(cache.glob("*.json"))
    code2, out2, _ = run(capsys, "certify", docs["946"])
    assert (code1, out1) == (code2, out2)


def test_cache_respects_flags(docs, capsys, tmp_path):
    run(capsys, "certify", docs["946"])
    n_before = len(list((tmp_path / "cache").glob("*.json")))
    run(capsys, "certify", docs["946"], "--format", "json")
    n_after = len(list((tmp_path / "cache").glob("*.json")))
    assert n_after == n_before + 1


def test_verify_cache_detects_corruption(docs, capsys, tmp_path):
    run(capsys, "certify", docs["946"])
    cache = tmp_path / "cache"
    entry_path = next(cache.glob("*.json"))
    entry = json.loads(entry_path.read_text())
    entry["result"] = entry["result"].replace("Doubly", "Triply")
    entry_path.write_text(json.dumps(entry))
    code, out, err = run(capsys, "certify", docs["946"], "--verify-cache")
    assert code == 1
    assert "byte-match" in err
    assert "DoublySliceCertified" in out
    # the bad entry was replaced: a later verify run is clean again
    code, _, err = run(capsys, "certify", docs["946"], "--verify-cache")
    assert code == 0
    assert err == ""


def test_no_cache_leaves_directory_empty(docs, capsys, tmp_path):
    run(capsys, "certify", docs["trefoil"], "--no-cache")
    assert not (tmp_path / "cache").exists()


def test_corrupt_cache_entry_is_ignored(docs, capsys, tmp_path):
    code1, out1, _ = run(capsys, "analyze", docs["unknot"])
    cache = tmp_path / "cache"
    for p in cache.glob("*.json"):
        p.write_text("{broken")
    code2, out2, _ = run(capsys, "analyze", docs["unknot"])
    assert (code1, out1) == (code2, out2)


def test_entry_of_another_toolchain_is_a_miss(docs, capsys, tmp_path,
                                             monkeypatch):
    import dslice.cache as cache

    current = cache.TOOLCHAIN
    assert current.startswith("dslice/0.1.0+")
    monkeypatch.setattr(cache, "TOOLCHAIN", "dslice/0.1.0+older")
    run(capsys, "certify", docs["946"])
    (old,) = (tmp_path / "cache").glob("*.json")
    entry = json.loads(old.read_text())
    entry["result"] = "stale bytes\n"
    old.write_text(json.dumps(entry))
    monkeypatch.setattr(cache, "TOOLCHAIN", current)
    code, out, _ = run(capsys, "certify", docs["946"])
    assert code == 0
    assert "conclusion: DoublySliceCertified" in out
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    # under the old entry's own key the toolchain field refuses it too
    assert cache.load_entry(old.stem, tmp_path / "cache") is None


def test_cached_exit_code_round_trips(docs, capsys):
    code1, _, _ = run(capsys, "certify", docs["trefoil"])
    code2, _, _ = run(capsys, "certify", docs["trefoil"])
    assert code1 == code2 == 1


# ------------------------------------------------------------- entry point


def test_console_entry_point(docs):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "dslice.cli", "analyze", docs["unknot"],
         "--no-cache"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "alexander polynomial: 1" in proc.stdout


def test_oracle_computes_the_fox_matrix_once(docs, capsys, monkeypatch):
    import importlib

    import dslice.words as words
    from dslice.diagrams import zero_surgery
    from dslice.documents import diagram_from_document
    from dslice.groups import metabelian_quotient_homs
    from synthpres import brute_scaled_orbit_count

    # the orbits are counted before fox_row is patched, whose passes the
    # map enumeration here would add to the count
    diagram, _ = diagram_from_document(bundled_document("946"))
    target, homs = metabelian_quotient_homs(zero_surgery(diagram, 0), 3, 7)
    orbits = brute_scaled_orbit_count(homs, target)
    inner = words.fox_row
    calls = []

    def counting(word, n, images, target):
        calls.append((n, target))
        return inner(word, n, images, target)

    # count passes through every module-level binding of fox_row
    for name in ("words", "modules", "groups", "twisted", "certify", "diagrams"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "fox_row", None) is inner:
            monkeypatch.setattr(module, "fox_row", counting)
    code, out, _ = run(
        capsys, "oracle", "--knot", docs["946"], "--n", "3", "--m", "7",
        "--no-cache",
    )
    assert code == 0
    maps = int(out.splitlines()[1].split(", ")[1].split()[0])
    assert (maps, orbits) == (49, 2)
    # the zero-surgery presentation of 9_46 has 10 relators on 9
    # generators and simplifies to 4 on 3: one pass per small relator for
    # the Lambda-Jacobian and one per Tietze word, which carry its kernel
    # mod 7 to the 9 generators the map enumeration reads, and one per
    # small relator for each orbit representative's twisted rows
    assert len(calls) == 4 + 9 + 4 * orbits
    twisted = [n for n, t in calls if isinstance(t, FiniteMetabelian)]
    assert twisted == [3] * (4 * orbits)
    assert {n for n, t in calls if not isinstance(t, FiniteMetabelian)} == {3}


def test_oracle_evaluates_each_map_once_on_the_full_relators(docs, capsys, monkeypatch):
    import importlib

    from dslice.diagrams import zero_surgery
    from dslice.documents import diagram_from_document

    import dslice.bs12 as bs12

    inner_eval = bs12.evaluate_word
    inner_check = bs12.check_metabelian_relators
    evaluated, checked = [], []

    def counting_eval(word, images, target):
        evaluated.append(target)
        return inner_eval(word, images, target)

    def counting_check(pres, homs, target):
        checked.append((pres.relators, len(homs), target))
        return inner_check(pres, homs, target)

    # count through every module-level binding of either function
    for name in ("bs12", "groups", "twisted", "cli", "certify"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "evaluate_word", None) is inner_eval:
            monkeypatch.setattr(module, "evaluate_word", counting_eval)
        if getattr(module, "check_metabelian_relators", None) is inner_check:
            monkeypatch.setattr(module, "check_metabelian_relators", counting_check)
    code, out, _ = run(
        capsys, "oracle", "--knot", docs["946"], "--n", "3", "--m", "7",
        "--no-cache",
    )
    assert code == 0
    maps = int(out.splitlines()[1].split(", ")[1].split()[0])
    assert maps == 49
    plain = zero_surgery(diagram_from_document(bundled_document("946"))[0], 0)
    relators = plain.group.relators
    assert len(relators) == 10
    # metabelian_quotient_homs checks all 49 maps on the 10 full relators
    # in one call; the Tietze isomorphism is checked once per
    # presentation, so no word is evaluated per map on the target
    assert [(r, k, (t.n, t.m)) for r, k, t in checked] == [(relators, 49, (3, 7))]
    assert not any(isinstance(t, FiniteMetabelian) for t in evaluated)


# ------------------------------------------------- shared work per request


@pytest.fixture()
def work(monkeypatch):
    """Count ``fox_jacobian`` calls through every module binding, and record
    ``(width, extends)`` of every Groebner basis built, ``extends`` saying
    whether it extends a complete base."""
    import sys

    from dslice import modules
    from dslice.groebner import GroebnerBasis

    seen = {"fox_jacobian": 0, "bases": []}
    inner = modules.fox_jacobian

    def fox_jacobian(*args, **kwargs):
        seen["fox_jacobian"] += 1
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dslice") and getattr(module, "fox_jacobian", None) is inner:
            monkeypatch.setattr(module, "fox_jacobian", fox_jacobian)
    init = GroebnerBasis.__init__

    def recording(self, generators, width, budget=200000, base=None):
        seen["bases"].append((width, base is not None))
        init(self, generators, width, budget=budget, base=base)

    monkeypatch.setattr(GroebnerBasis, "__init__", recording)
    return seen


# the two bases of a certified 9_46 splitting, both over the Alexander
# module's 2 columns, the Tietze-simplified presentation's 3 generators
# without the meridian: the module's own basis, the one completion over
# its rows, which filters the witness pool; and its extension by the one
# witness pair tried, which judges it.  The summand maps read no basis.
BASES_946 = [(2, False), (2, True)]


def test_certify_946_builds_two_bases(docs, capsys, work):
    code, _, _ = run(capsys, "certify", docs["946"], "--no-cache")
    assert code == 0
    assert work["bases"] == BASES_946
    assert work["fox_jacobian"] == 1


@pytest.mark.parametrize("curve,companion", [
    ("eta1", "any"), ("gamma1", "946"),
])
def test_satellite_request_shares_the_pattern_presentation(
    docs, capsys, work, curve, companion,
):
    # the base certificate and the transport record read one surgery
    # presentation, and the second-derived test the module's basis: no
    # basis spans the 9 full generator columns
    code, _, _ = run(
        capsys, "satellite", "--pattern", docs["946"], "--infection", curve,
        "--companion", docs.get(companion, companion), "--no-cache",
    )
    assert code == (0 if curve == "eta1" else 1)
    assert work["bases"] == BASES_946
    # a concrete companion's Alexander polynomial takes one more
    assert work["fox_jacobian"] == (1 if companion == "any" else 2)


def test_family_request_builds_the_module_basis_once(docs, capsys, work):
    # r-rr ties 9_46 into gamma1 and gamma2: both curves are tested on the
    # one Alexander-module basis the splitting check built
    code, _, _ = run(capsys, "certify", docs["r-rr"], "--no-cache")
    assert code == 1
    assert work["bases"] == BASES_946
    assert work["bases"].count((2, False)) == 1
    assert work["fox_jacobian"] == 1 + 2


def test_nonzero_pattern_mark_keeps_its_output(docs, capsys, tmp_path):
    # a document marking another pattern component is refused, naming the
    # field, before a knot's missing component or a link's missing
    # canonical hash is reached; analyze refuses it too
    knot = bundled_document("946")
    knot = {**knot, "marks": {**knot["marks"], "pattern": 1}}
    trefoil = [[a + 18, b + 18, c + 18, d + 18]
               for a, b, c, d in bundled_document("trefoil")["pd"]]
    link = {"pd": knot["pd"] + trefoil,
            "marks": {"pattern": 1, "curves": {"c": [[19, 1], [21, -1]]}}}
    err = "marks.pattern must be 0, not 1"
    for doc, curve in ((knot, "eta1"), (link, "c")):
        path = str(tmp_path / "pattern.json")
        dump_document(doc, path)
        code, out, got = run(capsys, "analyze", path, "--no-cache")
        assert (code, out) == (2, "") and err in got
        code, out, got = run(
            capsys, "satellite", "--pattern", path, "--infection", curve,
            "--companion", "any", "--no-cache",
        )
        assert (code, out) == (2, "") and err in got
        family = {"pattern": doc,
                  "infections": [{"curve": curve, "companion": "any"}]}
        dump_document(family, path)
        code, out, got = run(capsys, "certify", path, "--no-cache")
        assert (code, out) == (2, "") and err in got
    # a knot certificate reads no marks
    dump_document(knot, path)
    assert run(capsys, "certify", path, "--no-cache")[:2] == run(
        capsys, "certify", docs["946"], "--no-cache")[:2]
