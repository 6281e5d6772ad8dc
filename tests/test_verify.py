import gc
import math
import weakref

import pytest

import torslat
from torslat import verify, widelab
from torslat.errors import TheoremViolation, UnknownProperty
from conftest import names_to_mask
from test_widelab import merge_the_bottom_into_a_cover
from torslat.lattice import HasseArrow, TorsLattice, build_lattice
from torslat.quivalg import parse_algebra_text

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


def test_reduction_builds_one_gap_lattice_per_wide_subcategory(monkeypatch, cat_of):
    built = []
    tors_of_wide = widelab.tors_of_wide

    def counting(cat, w_mask, config=None):
        built.append(w_mask)
        return tors_of_wide(cat, w_mask, config)

    monkeypatch.setattr(widelab, "tors_of_wide", counting)
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=["reduction"]
    )
    assert results and all(r.ok for r in results)
    wides = widelab.enumerate_wide_subcats(cat_of("a4"))
    assert len(built) == len(wides) == 42
    assert set(built) == set(wides)


@pytest.mark.parametrize("tamper", ("relabel", "drop"))
def test_a_tampered_gap_lattice_fails_exactly_its_intervals(
    tamper, monkeypatch, lat_of
):
    # the same tampering as test_reduce_rejects_a_tampered_gap_lattice, on
    # the gap of a3 with the most wide intervals among those with an arrow
    lat = lat_of("a3")
    wide, by_gap = [], {}
    for iv in lat.all_intervals():
        report = widelab.is_wide_interval(lat, iv)
        if report.wide:
            wide.append(iv)
            by_gap.setdefault(report.wide_mask, []).append(iv)
    target = max(by_gap, key=lambda w: (len(w) > 0, len(by_gap[w]), sorted(w)))
    assert target and len(by_gap[target]) > 1
    tors_of_wide = widelab.tors_of_wide

    def tampered(cat, w_mask, config=None):
        wlat = tors_of_wide(cat, w_mask, config)
        if w_mask != target:
            return wlat
        first, *rest = wlat.arrows
        if tamper == "relabel":
            other = (first.label + 1) % len(cat.ind)
            rest.insert(0, HasseArrow(first.src, first.dst, other))
        return TorsLattice(cat, wlat.side, wlat.within, wlat.nodes, tuple(rest))

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    results = verify.run_verify(
        [("a3", verify.load_corpus_algebra("a3"))], props=["reduction"]
    )
    assert [r.obj for r in results] == [
        f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]" for iv in wide
    ]
    assert [r.obj for r in results if not r.ok] == [
        f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]" for iv in by_gap[target]
    ]


def test_a_phi_that_is_not_injective_fails_exactly_its_intervals(
    monkeypatch, lat_of
):
    # one a3 gap lattice with its zero node merged into a cover
    lat = lat_of("a3")
    wide, by_gap = [], {}
    for iv in lat.all_intervals():
        report = widelab.is_wide_interval(lat, iv)
        if report.wide:
            wide.append(iv)
            by_gap.setdefault(report.wide_mask, []).append(iv)
    target = max(by_gap, key=lambda w: (len(w) > 0, len(by_gap[w]), sorted(w)))
    assert target and len(by_gap[target]) > 1
    tors_of_wide = widelab.tors_of_wide

    def tampered(cat, w_mask, config=None):
        wlat = tors_of_wide(cat, w_mask, config)
        return merge_the_bottom_into_a_cover(wlat) if w_mask == target else wlat

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    results = verify.run_verify(
        [("a3", verify.load_corpus_algebra("a3"))], props=["reduction"]
    )
    assert [r.obj for r in results] == [
        f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]" for iv in wide
    ]
    assert [(r.obj, r.witness) for r in results if not r.ok] == [
        (
            f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]",
            "phi is not a bijection onto the gap lattice",
        )
        for iv in by_gap[target]
    ]


# the self-injective Nakayama algebra N_5^5: the cyclic quiver 1 -> ... -> 5
# -> 1 with every path of length 5 zero
NAKAYAMA_5_5 = (
    "vertices 5\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\narrow e 5 1\n"
    "relation a b c d e\nrelation b c d e a\nrelation c d e a b\n"
    "relation d e a b c\nrelation e a b c d\nprime 2\n"
)


def test_reduction_on_the_self_injective_nakayama_algebra():
    # n*r = 25 indecomposables; C(2n, n) = 252 torsion classes (Adachi) and
    # as many wide subcategories, since the algebra is tau-tilting finite;
    # n*N/2 Hasse arrows; one reduction per wide interval, 2^outdegree under
    # each top
    algebra = parse_algebra_text(NAKAYAMA_5_5)
    cat = torslat.build_catalog(algebra)
    lat = build_lattice(cat)
    assert len(cat.ind) == 25
    assert len(lat) == math.comb(10, 5) == 252
    assert len(widelab.enumerate_wide_subcats(cat)) == 252
    assert len(lat.arrows) == 5 * 252 // 2
    results = verify.run_verify([("nak5", algebra)], props=["reduction"])
    assert [r for r in results if not r.ok] == []
    assert len(results) == sum(2 ** len(lat.out_of[t]) for t in range(len(lat)))
    assert len(results) == 1683


def test_a_failed_verdict_reports_as_before(monkeypatch, lat_of):
    # a wideness verdict that raises is a FAIL line of each interval
    # property and of serre-count at its top, and aborts reduction after the
    # wide intervals before it
    lat = lat_of("a2")
    ivs = list(lat.all_intervals())
    bad = ivs[len(ivs) // 2]
    bad_nodes = (lat.nodes[bad.bottom], lat.nodes[bad.top])
    is_wide_interval = widelab.is_wide_interval

    def failing(lat, iv):
        if (lat.nodes[iv.bottom], lat.nodes[iv.top]) == bad_nodes:
            raise TheoremViolation("planted disagreement")
        return is_wide_interval(lat, iv)

    monkeypatch.setattr(widelab, "is_wide_interval", failing)
    props = ["reduction", "wide-detect", "lower-filt", "wide-serre", "serre-count"]
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=props
    )
    name = f"[{lat.name(bad.bottom)},{lat.name(bad.top)}]"
    failed = [(r.prop, r.obj, r.witness) for r in results if not r.ok]
    assert failed == [
        ("reduction", "(setup)", "planted disagreement"),
        ("wide-detect", name, "planted disagreement"),
        ("lower-filt", name, "planted disagreement"),
        ("wide-serre", name, "planted disagreement"),
        ("serre-count", lat.name(bad.top), "planted disagreement"),
    ]
    wide_before = [
        iv for iv in ivs[: ivs.index(bad)] if is_wide_interval(lat, iv).wide
    ]
    reduced = [r.obj for r in results if r.prop == "reduction" and r.ok]
    assert reduced == [
        f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]" for iv in wide_before
    ]
    for prop in props[1:4]:
        assert sum(r.prop == prop for r in results) == len(ivs)
    assert sum(r.prop == "serre-count" for r in results) == len(lat)


def test_serre_count_compares_the_route_with_the_verdicts(monkeypatch, lat_of):
    # a Serre route that loses a bottom fails exactly at its top
    lat = lat_of("a2")
    top = lat.top_index
    route = widelab.wide_intervals_with_top

    def lossy(lat, t):
        bottoms = route(lat, t)
        return bottoms[1:] if t == top else bottoms

    monkeypatch.setattr(widelab, "wide_intervals_with_top", lossy)
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=["serre-count"]
    )
    want = len(route(lat, top))
    assert [(r.obj, r.witness) for r in results if not r.ok] == [
        (
            lat.name(top),
            f"Serre route found {want - 1} bottoms under {lat.name(top)},"
            f" the verdicts have {want}",
        )
    ]


def test_verify_releases_the_catalog(monkeypatch):
    # no reference cycle may keep the catalog alive once verify returns
    refs = []
    build_catalog = verify.build_catalog

    def tracked(*args, **kwargs):
        cat = build_catalog(*args, **kwargs)
        refs.append(weakref.ref(cat))
        return cat

    monkeypatch.setattr(verify, "build_catalog", tracked)
    gc.collect()
    gc.disable()
    try:
        results = verify.run_verify([("a3", verify.load_corpus_algebra("a3"))])
        assert results and all(r.ok for r in results)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def _verify_tampered_a2(monkeypatch, tamper, prop="wide-detect", side="tors"):
    build_lattice = verify.build_lattice

    def tampered(cat, side="tors", _tampered=side, **kwargs):
        lat = build_lattice(cat, side=side, **kwargs)
        if side == _tampered:
            tamper(cat, lat)
        return lat

    monkeypatch.setattr(verify, "build_lattice", tampered)
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=[prop]
    )
    return verify.format_report(results)


def test_a_meet_outside_the_lattice_is_a_failed_check(monkeypatch):
    # a2's node {10a,11a} shrunk to {11a} after construction: the meet of
    # that node with the top is {11a}, no node, which must be a FAIL line
    # and not an escaping error
    def shrink(cat, lat):
        k = lat.node_index[names_to_mask(cat, "10a", "11a")]
        nodes = list(lat.nodes)
        nodes[k] = names_to_mask(cat, "11a")
        lat.nodes = tuple(nodes)

    text, failures = _verify_tampered_a2(monkeypatch, shrink)
    assert failures == 3
    assert (
        "FAIL a2 wide-detect [{11a},{11a}] :: meet of {11a} is {11a}, not a node"
    ) in text
    assert (
        "FAIL a2 wide-detect [{11a},{01a,10a,11a}] :: meet of"
        " {11a} & {01a,10a,11a} is {11a}, not a node"
    ) in text


def test_a_join_outside_the_lattice_is_a_failed_check(monkeypatch):
    # the same with the node {10a,11a} dropped from the index: its own
    # interval joins to it
    def forget(cat, lat):
        del lat.node_index[names_to_mask(cat, "10a", "11a")]

    text, failures = _verify_tampered_a2(monkeypatch, forget)
    assert failures > 0
    assert (
        "FAIL a2 wide-detect [{10a,11a},{10a,11a}] :: join of {10a,11a} is"
        " {10a,11a}, not a node"
    ) in text


@pytest.mark.parametrize(
    "prop, side, name, lines",
    [
        # the arrow into zero labelled by the simple 10a starts at no node
        (
            "endpoint-arrows",
            "tors",
            "10a",
            ["into-bottom :: filt of 10a is {10a}, not a node"],
        ),
        # {01a} is the right perpendicular of the bottom of two intervals
        (
            "wide-serre",
            "torf",
            "01a",
            [
                f"[{{10a,11a}},{top}] :: perp_right of {{10a,11a}} is {{01a}},"
                " not a node"
                for top in ("{10a,11a}", "{01a,10a,11a}")
            ],
        ),
        # the canonical join at each node with the outgoing label 01a
        (
            "widely-generated",
            "tors",
            "01a",
            [
                f"{node} :: tors_gen of 01a is {{01a}}, not a node"
                for node in ("{01a}", "{01a,10a,11a}")
            ],
        ),
    ],
)
def test_a_class_outside_the_lattice_is_a_failed_check(
    monkeypatch, prop, side, name, lines
):
    # a2's class {name} dropped from the index of one side after construction
    def forget(cat, lat):
        del lat.node_index[names_to_mask(cat, name)]

    text, failures = _verify_tampered_a2(monkeypatch, forget, prop, side)
    assert failures == len(lines)
    for line in lines:
        assert f"FAIL a2 {prop} {line}" in text
