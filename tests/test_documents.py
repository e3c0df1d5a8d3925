"""Document parsing, validation, and the bundled corpus."""

import json

import pytest

from dslice.corpus import (
    bundled_diagram,
    bundled_document,
    bundled_names,
    bundled_pattern,
    default_registry,
    resolve_hash,
)
from dslice.diagrams import Diagram, diagram_hash
from dslice.documents import (
    diagram_from_document,
    document_kind,
    dump_document,
    load_document,
    marked_presentation,
    validate_diagram_document,
    validate_satellite_document,
)
from dslice.errors import MalformedInput

TREFOIL_DOC = {"name": "trefoil", "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}


# ----------------------------------------------------------------- file io


def test_dump_and_load_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    dump_document(TREFOIL_DOC, str(path))
    assert load_document(str(path)) == TREFOIL_DOC


def test_dump_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_document({"pd": [[1, 2, 2, 1]], "name": "u"}, str(a))
    dump_document({"name": "u", "pd": [[1, 2, 2, 1]]}, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(MalformedInput):
        load_document(str(tmp_path / "nope.json"))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedInput):
        load_document(str(path))


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(MalformedInput):
        load_document(str(path))


# -------------------------------------------------------------- validation


def test_document_kind():
    assert document_kind(TREFOIL_DOC) == "diagram"
    assert document_kind(bundled_document("r-rr")) == "satellite"
    with pytest.raises(MalformedInput):
        document_kind({"name": "x"})


@pytest.mark.parametrize("doc", [
    {},
    {"pd": []},
    {"pd": [[1, 2, 3]]},
    {"pd": [[1, 2, 3, "4"]]},
    {"pd": [[0, 1, 2, 3]]},
    {"pd": [[1, 2, 2, 1]], "signs": [1, -1]},
    {"pd": [[1, 2, 2, 1]], "signs": [2]},
    {"pd": [[1, 2, 2, 1]], "marks": {"curves": {"c": []}}},
    {"pd": [[1, 2, 2, 1]], "marks": {"curves": {"c": [[1]]}}},
    {"pd": [[1, 2, 2, 1]], "marks": {"curves": {"c": [[1, 0]]}}},
])
def test_validate_diagram_rejects(doc):
    with pytest.raises(MalformedInput):
        validate_diagram_document(doc)


def test_validate_diagram_accepts_bundled():
    for name in bundled_names():
        doc = bundled_document(name)
        if "pd" in doc:
            validate_diagram_document(doc)


@pytest.mark.parametrize("doc", [
    {},
    {"pattern": {"bundled": "946"}},
    {"pattern": {"bundled": "946"}, "infections": []},
    {"pattern": {"bundled": "946"}, "infections": [{}]},
    {"pattern": {"bundled": "946"},
     "infections": [{"curve": "c", "companion": "sometimes"}]},
    # the alias is for the satellite command's --companion flag only
    {"pattern": {"bundled": "946"},
     "infections": [{"curve": "c", "companion": "wh-symbolic"}]},
    {"pattern": {"bundled": "946"},
     "infections": [{"curve": "c", "companion": 7}]},
])
def test_validate_satellite_rejects(doc):
    with pytest.raises(MalformedInput):
        validate_satellite_document(doc)


def test_validate_satellite_accepts_bundled():
    validate_satellite_document(bundled_document("r-rr"))


# ----------------------------------------------------------------- parsing


def test_diagram_from_document():
    d, name = diagram_from_document(TREFOIL_DOC)
    assert name == "trefoil"
    assert len(d.crossings) == 3


def test_diagram_from_bundled_reference():
    d, _ = diagram_from_document({"bundled": "trefoil"})
    assert diagram_hash(d) == diagram_hash(bundled_diagram("trefoil"))
    with pytest.raises(MalformedInput):
        diagram_from_document({"bundled": "ghost"})


def test_component_cross_check():
    good = dict(TREFOIL_DOC, components=[[1, 2, 3, 4, 5, 6]])
    diagram_from_document(good)
    bad = dict(TREFOIL_DOC, components=[[1, 2, 3], [4, 5, 6]])
    with pytest.raises(MalformedInput):
        diagram_from_document(bad)


def test_marked_presentation_attaches_curves():
    _, plain, name = marked_presentation(bundled_document("946"))
    assert name == "9_46"
    assert {"gamma1", "gamma2", "eta1", "eta2", "meridian"} <= set(
        plain.curve_words
    )
    assert plain.curve_linking["gamma1"] == 0
    assert plain.curve_linking["eta1"] == 0
    assert plain.curve_linking["meridian"] == 1


# ------------------------------------------------------------------ corpus


def test_bundled_names():
    assert bundled_names() == ("946", "figure8", "r-rr", "trefoil", "unknot")


def test_bundled_lookup_misses():
    assert bundled_document("ghost") is None
    assert bundled_diagram("ghost") is None
    assert bundled_diagram("r-rr") is None
    with pytest.raises(KeyError):
        bundled_pattern("ghost")
    with pytest.raises(MalformedInput):
        bundled_pattern("r-rr")


def test_registry_is_keyed_by_canonical_hash():
    reg = default_registry()
    h = diagram_hash(bundled_diagram("946"))
    assert set(reg["ext"]) == {h}
    assert set(reg["family"]) == {h}
    rule = reg["family"][h]
    assert set(rule["fails_on"]) == set(rule["gamma"]) == {"gamma1", "gamma2"}
    assert set(rule["eta"]) == {"eta1", "eta2"}


def test_resolve_hash_round_trip():
    for name in bundled_names():
        d = bundled_diagram(name)
        if d is None:
            continue
        got = resolve_hash(diagram_hash(d))
        assert got is not None
        assert diagram_hash(diagram_from_document(got)[0]) == diagram_hash(d)
    assert resolve_hash("0" * 16) is None


def test_resolve_hash_hashes_each_bundled_diagram_once(monkeypatch):
    import dslice.corpus as corpus

    inner = corpus.diagram_hash
    hashed = []

    def counting(diagram):
        hashed.append(diagram)
        return inner(diagram)

    corpus._bundled_hashes.cache_clear()
    monkeypatch.setattr(corpus, "diagram_hash", counting)
    try:
        names = [n for n in bundled_names() if bundled_diagram(n) is not None]
        assert len(names) >= 4
        for _ in range(2):
            for name in names:
                h = inner(bundled_diagram(name))
                assert resolve_hash(h) is bundled_document(name)
            assert resolve_hash("0" * 64) is None
        # the hash -> name map is built on the first call and kept
        assert len(hashed) == len(names)
    finally:
        corpus._bundled_hashes.cache_clear()


def test_bundled_satellite_references_resolve():
    doc = bundled_document("r-rr")
    pattern, _ = diagram_from_document(doc["pattern"])
    assert diagram_hash(pattern) == diagram_hash(bundled_diagram("946"))
    for item in doc["infections"]:
        companion, _ = diagram_from_document(item["companion"])
        assert companion is not None


def test_bundled_documents_are_normalized_on_disk():
    from importlib import resources

    root = resources.files("dslice") / "data"
    for entry in root.iterdir():
        if not entry.name.endswith(".json"):
            continue
        text = entry.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
