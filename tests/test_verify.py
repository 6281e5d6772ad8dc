import pytest

from torslat import verify
from torslat.errors import UnknownProperty

A2_OBJECT_COUNTS = {
    "brick-labels": 5,
    "duality": 13,
    "endpoint-arrows": 2,
    "incident-semibricks": 5,
    "reduction": 11,
    "wide-detect": 13,
    "lower-filt": 13,
    "roundtrip": 5,
    "hom-audit": 11,
    "serre-mutation": 11,
    "label-maps": 5,
    "simples-out": 5,
    "wide-serre": 13,
    "serre-count": 5,
    "widely-generated": 5,
}


@pytest.fixture(scope="module")
def a2_results():
    return verify.verify_algebra("a2", verify.load_corpus_algebra("a2"))


def test_a2_passes_every_check(a2_results):
    assert all(r.ok for r in a2_results)
    assert len(a2_results) == sum(A2_OBJECT_COUNTS.values())


def test_a2_object_counts(a2_results):
    for prop, want in A2_OBJECT_COUNTS.items():
        got = sum(1 for r in a2_results if r.prop == prop)
        assert got == want, prop


def test_report_format(a2_results):
    text, failures = verify.format_report(a2_results)
    lines = text.splitlines()
    assert failures == 0
    assert lines[-2] == f"checks run: {len(a2_results)}"
    assert lines[-1] == "failures: 0"
    for line in lines[:-2]:
        head, alg, prop, obj = line.split(" ", 3)
        assert head == "PASS"
        assert alg == "a2"
        assert prop in verify.PROPERTIES
        assert " " not in obj


def test_failure_line_format():
    bad = verify.CheckResult("x", "brick-labels", "o", False, "witness text")
    text, failures = verify.format_report([bad])
    assert failures == 1
    assert text.splitlines()[0] == "FAIL x brick-labels o :: witness text"
    assert text.splitlines()[-1] == "failures: 1"


def test_props_subset():
    alg = verify.load_corpus_algebra("a2")
    res = verify.verify_algebra("a2", alg, props=("duality", "serre-count"))
    assert {r.prop for r in res} == {"duality", "serre-count"}


def test_unknown_property_rejected():
    with pytest.raises(UnknownProperty):
        verify.validate_props(("duality", "nonsense"))


def test_corpus_names_all_load():
    for name in verify.CORPUS:
        alg = verify.load_corpus_algebra(name)
        assert alg.quiver.vertex_count >= 1
