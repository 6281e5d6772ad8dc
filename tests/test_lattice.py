import hashlib
import itertools
import math
import random
import re

import pytest

import oracles
import torslat
from conftest import A7_EXPORT, NAKAYAMA_5_5, NAKAYAMA_7_7, names_to_bits, names_to_mask
from oracles import to_set
from test_acceptance import SCALE_SPECS
from torslat import lattice, subcat, widelab
from torslat import verify as verify_mod
from torslat.config import DEFAULT_CONFIG
from torslat.errors import (
    LabelNotBrick,
    LabelNotUnique,
    LatticeBlowup,
    NotAnInterval,
    NotWide,
)
from torslat.lattice import (
    HasseArrow,
    Interval,
    TorsLattice,
    build_lattice,
    dual_correspondence,
)
from torslat.quivalg import parse_algebra_text


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_node_counts(name, lat_of):
    assert len(lat_of(name)) == oracles.TORS_COUNTS[name]


def test_pentagon_nodes_and_arrows(a2cat, a2lat):
    n = names_to_mask
    assert list(oracles.node_sets(a2lat)) == [
        frozenset(),
        n(a2cat, "01a"),
        n(a2cat, "10a"),
        n(a2cat, "10a", "11a"),
        to_set(a2cat.full_mask),
    ]
    got = [
        (a2lat.name(a.src), a2lat.name(a.dst), a2cat.names[a.label])
        for a in a2lat.arrows
    ]
    assert got == [
        ("{01a}", "{}", "01a"),
        ("{10a}", "{}", "10a"),
        ("{10a,11a}", "{10a}", "11a"),
        ("{01a,10a,11a}", "{01a}", "10a"),
        ("{01a,10a,11a}", "{10a,11a}", "01a"),
    ]


def test_joins_and_meets_are_nodes(lat_of):
    lat = lat_of("a3")
    for i, j in itertools.combinations(range(len(lat)), 2):
        assert 0 <= lat.join(subcat.bits([i, j])) < len(lat)
        assert 0 <= oracles.meet(lat, [i, j]) < len(lat)


def test_pentagon_shape(a2lat):
    s2, s1, fac_p1 = 1, 2, 3
    top, bottom = a2lat.top_index, a2lat.bottom_index
    assert a2lat.join(subcat.bits([s1, s2])) == top
    assert a2lat.join(subcat.bits([s2, fac_p1])) == top
    assert oracles.meet(a2lat, [s2, fac_p1]) == bottom
    assert oracles.meet(a2lat, [top, fac_p1]) == fac_p1
    assert a2lat.join(0) == bottom
    assert oracles.meet(a2lat, []) == top


def test_interval_membership(a2lat):
    iv = a2lat.interval(0, 3)
    assert subcat.indices(a2lat.interval_bits(iv)) == [0, 2, 3]
    with pytest.raises(NotAnInterval):
        a2lat.interval(3, 2)


@pytest.mark.parametrize("bottom,top,bad", [(-1, 4, -1), (0, 99, 99), (5, 0, 5)])
def test_an_interval_end_outside_the_nodes_raises(a2lat, bottom, top, bad):
    # a usage error, exit code 3, before the containment test: a negative
    # index would pick a node from the end, and is_wide_interval on it
    # would report a failed verification
    with pytest.raises(NotAnInterval, match=rf"node {bad} is outside 0\.\.4$"):
        a2lat.interval(bottom, top)


def _bits(nodes):
    return sum(1 << i for i in nodes)


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_cover_bitsets_match_the_masks(name, side, lat_of):
    lat = lat_of(name, side)
    nodes = oracles.node_sets(lat)
    for i, m in enumerate(nodes):
        assert lat.down_sets[i] >> i & 1 and lat.up_sets[i] >> i & 1
        assert lat.down_sets[i] == _bits(j for j, o in enumerate(nodes) if o <= m)
        assert lat.up_sets[i] == _bits(j for j, o in enumerate(nodes) if o >= m)
    for iv in lat.intervals:
        got = subcat.indices(lat.interval_bits(iv))
        assert got == oracles.interval_nodes_by_subsets(nodes, iv)


def test_interval_nodes_match_the_subset_scan_on_a7(a7lat):
    # 2,000 intervals under random tops of the 1430-node lattice
    rng = random.Random(0)
    nodes = oracles.node_sets(a7lat)
    sizes = set()
    for _ in range(2000):
        t = rng.randrange(len(nodes))
        b = rng.choice([i for i, m in enumerate(nodes) if m <= nodes[t]])
        iv = a7lat.interval(b, t)
        got = subcat.indices(a7lat.interval_bits(iv))
        assert got == oracles.interval_nodes_by_subsets(nodes, iv)
        sizes.add(len(got))
    assert len(nodes) == 1430 and max(sizes) > 100


# linear A5 at p = 2, a copy of the benchmark's a5p2 spec
A5_P2 = "vertices 5\narrow a1 1 2\narrow a2 2 3\narrow a3 3 4\narrow a4 4 5\nprime 2\n"


def test_intervals_match_the_subset_scan_on_a5():
    # the bottoms read off down_sets against the scan over every node pair
    lat = build_lattice(torslat.build_catalog(parse_algebra_text(A5_P2)))
    assert len(lat) == math.comb(12, 6) // 7 == 132
    assert [(iv.bottom, iv.top) for iv in lat.intervals] == (
        oracles.intervals_by_subsets(lat)
    )


def test_an_interval_is_its_plain_pair(lat_of):
    # as HasseArrow: an Interval equals, and hashes as, (bottom, top), so a
    # dict keyed by intervals answers a plain pair
    lat = lat_of("a4")
    assert len(lat.intervals) > len(lat)
    assert all(type(iv) is Interval for iv in lat.intervals)
    assert list(lat.intervals) == oracles.intervals_by_subsets(lat)
    by_pair = dict.fromkeys(lat.intervals)
    for iv in lat.intervals:
        pair = (iv.bottom, iv.top)
        assert iv == pair and hash(iv) == hash(pair) and pair in by_pair
    iv = lat.interval(lat.bottom_index, lat.top_index)
    assert iv == Interval(lat.bottom_index, lat.top_index) == tuple(iv)


def test_interval_count_on_pentagon(a2lat):
    assert len(a2lat.intervals) == 13


def test_upper_and_lower_sets(a2lat):
    iv = a2lat.interval(0, 3)
    assert a2lat.lower_set(iv) == subcat.bits([0, 2])
    assert a2lat.upper_set(iv) == subcat.bits([2, 3])
    full = a2lat.interval(0, 4)
    assert a2lat.upper_set(full) == subcat.bits([4, 1, 3])
    assert a2lat.lower_set(full) == subcat.bits([0, 1, 2])
    point = a2lat.interval(2, 2)
    assert a2lat.upper_set(point) == subcat.bits([2])
    assert a2lat.lower_set(point) == subcat.bits([2])


def test_labels_of_sets(a2cat, a2lat):
    full = a2lat.interval(0, 4)
    assert a2lat.labels_of(a2lat.upper_set(full)) == subcat.bits(
        a2cat.simple_indices
    )
    iv = a2lat.interval(0, 3)
    assert a2lat.labels_of(a2lat.lower_set(iv)) == names_to_bits(a2cat, "10a")


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_endpoint_arrows(name, cat_of, lat_of):
    cat, lat = cat_of(name), lat_of(name)
    into_zero = {(a.src, a.label) for a in lat.into[lat.bottom_index]}
    expected = {
        (lat.bits_index[subcat.filt(cat, 1 << s)], s)
        for s in cat.simple_indices
    }
    assert into_zero == expected
    assert lat.out_labels(lat.top_index) == subcat.bits(cat.simple_indices)


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_duality_holds(name, cat_of, lat_of):
    mapping, node_checks, arrow_checks = dual_correspondence(
        lat_of(name), lat_of(name, "torf")
    )
    for desc, ok, witness in node_checks + arrow_checks:
        assert ok, f"{desc}: {witness}"
    assert sorted(mapping) == list(range(len(lat_of(name))))


def test_duality_fails_on_a_torsion_free_node_shrunk_after_construction(a2cat):
    # a2's torsion-free class {01a,11a}, the dual of {10a}, shrunk to {11a}
    # in node_bits but not in bits_index: the node map still finds it, but
    # its mask is no longer {10a}^perp, so the node line of {10a} fails, and
    # the order reversal derived from the node lines with it
    lat, flat = build_lattice(a2cat), build_lattice(a2cat, side="torf")
    k = flat.bits_index[names_to_bits(a2cat, "01a", "11a")]
    nodes = list(flat.node_bits)
    nodes[k] = names_to_bits(a2cat, "11a")
    flat.node_bits = tuple(nodes)
    _, node_checks, _ = dual_correspondence(lat, flat)
    failed = [(desc, witness) for desc, ok, witness in node_checks if not ok]
    assert failed == [
        ("node {10a}", "torsion-free node {11a} is not {01a,11a}"),
        ("order reversal", "inclusions not reversed"),
    ]


def _assert_rows_are_the_member_unions(lat):
    # reach and _closed_bits, built along the covers, against the OR of
    # every member's row cut down to the ambient
    cat = lat.cat
    tors = lat.side == "tors"
    for rows, got in (
        (cat.out_bits if tors else cat.in_bits, lat.reach),
        (cat.quotient_bits if tors else cat.sub_bits, lat._closed_bits),
    ):
        want = []
        for b in lat.node_bits:
            acc = 0
            for x in subcat.indices(b):
                acc |= rows[x]
            want.append(acc & lat.ambient)
        assert got == tuple(want)


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_rows_along_the_covers_are_the_member_unions(name, side, lat_of):
    _assert_rows_are_the_member_unions(lat_of(name, side))


def test_relative_rows_along_the_covers_are_the_member_unions(cat_of):
    cat = cat_of("a4")
    for w in widelab.enumerate_wide_subcats(cat):
        _assert_rows_are_the_member_unions(build_lattice(cat, within=w))


@pytest.mark.parametrize("side", ["tors", "torf"])
def test_rows_along_the_covers_read_nodes_altered_after_construction(a2cat, side):
    # a2's class {10a,11a} shrunk to {01a} after construction ({01a,11a} to
    # {10a} on the torsion-free side): its one lower cover, {10a} ({01a}),
    # does not lie in its mask, and maps to (from) a member its new mask
    # does not reach, so its rows must be the OR over its own members; the
    # full class above it builds its rows on the shrunk node's
    lat = build_lattice(a2cat, side=side)
    pair, alone = (("10a", "11a"), "01a") if side == "tors" else (("01a", "11a"), "10a")
    k = lat.bits_index[names_to_bits(a2cat, *pair)]
    nodes = list(lat.node_bits)
    nodes[k] = names_to_bits(a2cat, alone)
    lat.node_bits = tuple(nodes)
    assert all(nodes[a.dst] & ~nodes[k] for a in lat.out_of[k])
    _assert_rows_are_the_member_unions(lat)


def _duality_failures(lat, flat):
    _, node_checks, arrow_checks = dual_correspondence(lat, flat)
    checks = node_checks + arrow_checks
    return [(desc, witness) for desc, ok, witness in checks if not ok]


def _with_arrows(flat, arrows):
    return TorsLattice(flat.cat, flat.side, flat.ambient, flat.node_bits, tuple(arrows))


REVERSAL_FAILS = ("order reversal", "inclusions not reversed")


def test_duality_fails_on_a_relabelled_torsion_free_arrow(a2cat):
    # a2's torf arrow {01a,11a}->{01a}, the dual of {10a,11a}->{10a}, with
    # the label 10a for 11a: that arrow line fails, and the order reversal
    # derived from it
    lat, flat = build_lattice(a2cat), build_lattice(a2cat, side="torf")
    n = {name: i for i, name in enumerate(flat.names)}
    label = {name: i for i, name in enumerate(a2cat.names)}
    src, dst = n["{01a,11a}"], n["{01a}"]
    arrows = list(flat.arrows)
    k = arrows.index(HasseArrow(src, dst, label["11a"]))
    arrows[k] = HasseArrow(src, dst, label["10a"])
    assert _duality_failures(lat, _with_arrows(flat, arrows)) == [
        REVERSAL_FAILS,
        ("arrow {10a,11a}->{10a}", "label 10a != 11a"),
    ]


def test_duality_fails_on_a_dropped_torsion_free_arrow(a2cat):
    # a2's torf arrow {01a,10a,11a}->{10a}, the dual of {01a}->{}, dropped:
    # that arrow line and the arrow count fail, and the order reversal
    lat, flat = build_lattice(a2cat), build_lattice(a2cat, side="torf")
    n = {name: i for i, name in enumerate(flat.names)}
    arrows = [
        a for a in flat.arrows if (a.src, a.dst) != (n["{01a,10a,11a}"], n["{10a}"])
    ]
    assert len(arrows) == len(flat.arrows) - 1
    assert _duality_failures(lat, _with_arrows(flat, arrows)) == [
        REVERSAL_FAILS,
        ("arrow {01a}->{}", "no dual arrow"),
        ("arrow count", "5 != 4"),
    ]


def test_duality_fails_on_a_torsion_free_node_missing_from_the_index(a2cat):
    # a2's torf class {01a,11a}, the dual of {10a}, dropped from bits_index:
    # the node line of {10a}, the bijection, and the arrows at {10a} fail,
    # and the order reversal with them
    lat, flat = build_lattice(a2cat), build_lattice(a2cat, side="torf")
    del flat.bits_index[names_to_bits(a2cat, "01a", "11a")]
    assert _duality_failures(lat, flat) == [
        ("node {10a}", "{01a,11a} is not torsion-free"),
        ("node bijection", "map is not a bijection"),
        REVERSAL_FAILS,
        ("arrow {10a}->{}", "endpoint missing in dual"),
        ("arrow {10a,11a}->{10a}", "endpoint missing in dual"),
    ]


def test_torf_side_counts(lat_of):
    for name in verify_mod.CORPUS:
        assert len(lat_of(name, "torf")) == oracles.TORS_COUNTS[name]


def test_relative_lattice_inside_wide(a2cat):
    w = names_to_bits(a2cat, "11a")
    lat = build_lattice(a2cat, within=w)
    assert len(lat) == 2
    assert len(lat.arrows) == 1
    assert a2cat.names[lat.arrows[0].label] == "11a"


@pytest.mark.parametrize("side", ["Tors", "bogus"])
def test_a_side_that_is_neither_tors_nor_torf_raises(side, a2cat, monkeypatch):
    # raised before any work: before the ambient is checked for wideness,
    # and before the walk reads a class
    def reading(*args):
        raise AssertionError("the walk read a class")

    monkeypatch.setattr(lattice, "_class_rows", reading)
    for within in (None, names_to_bits(a2cat, "10a", "11a")):
        with pytest.raises(ValueError, match="'tors' or 'torf', not '"):
            build_lattice(a2cat, side=side, within=within)


def test_exports_are_stable(cat_of):
    import torslat

    cat1 = torslat.build_catalog(verify_mod.load_corpus_algebra("a3s"))
    cat2 = torslat.build_catalog(verify_mod.load_corpus_algebra("a3s"))
    l1, l2 = build_lattice(cat1), build_lattice(cat2)
    assert l1.to_dot() == l2.to_dot()
    assert l1.to_json() == l2.to_json()


def test_dot_mentions_every_node_and_label(a2cat, a2lat):
    dot = a2lat.to_dot()
    assert dot.startswith("digraph tors {")
    for b in a2lat.node_bits:
        assert f'"{a2cat.mask_name(b)}";' in dot
    assert 'label="11 #2"' in dot
    assert dot.count("->") == len(a2lat.arrows)


def test_json_export_shape(a2lat):
    import json

    data = json.loads(a2lat.to_json())
    assert data["side"] == "tors"
    assert len(data["nodes"]) == 5
    assert len(data["arrows"]) == 5
    assert data["nodes"][0] == []
    assert all(isinstance(a[2], int) for a in data["arrows"])


def test_node_budget():
    budget = DEFAULT_CONFIG.with_overrides(node_budget=3)
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a3"), budget)
    with pytest.raises(LatticeBlowup):
        build_lattice(cat)


def test_the_semibrick_search_raises_at_the_lattice_budget():
    # a3 has 14 torsion classes and 14 semibricks, the empty one and the
    # zero class counted: budget 13 stops both, naming the flag, 14 builds
    for budget, raises in ((13, True), (14, False)):
        config = DEFAULT_CONFIG.with_overrides(node_budget=budget)
        cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a3"), config)
        for build in (build_lattice, widelab.enumerate_semibricks):
            if raises:
                with pytest.raises(LatticeBlowup, match=r"\(--node-budget\)"):
                    build(cat)
            else:
                assert len(build(cat)) == 14


def _cover_pairs(lat):
    return [(a.src, a.dst) for a in lat.arrows]


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_cover_walk_matches_oracles(name, side, cat_of, lat_of):
    cat, lat = cat_of(name), lat_of(name, side)
    by_filtering = (
        oracles.tors_masks_by_filtering
        if side == "tors"
        else oracles.torf_masks_by_filtering
    )
    nodes = oracles.node_sets(lat)
    assert set(nodes) == by_filtering(cat)
    assert _cover_pairs(lat) == oracles.hasse_covers(nodes)


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_relative_cover_walk_matches_oracles(name, cat_of):
    cat = cat_of(name)
    for w in widelab.enumerate_wide_subcats(cat):
        lat = build_lattice(cat, within=w)
        members = subcat.indices(w)
        subsets = (
            frozenset(c)
            for r in range(len(members) + 1)
            for c in itertools.combinations(members, r)
        )
        nodes = oracles.node_sets(lat)
        assert set(nodes) == {
            m for m in subsets if oracles.is_torsion_class(cat, m, within=to_set(w))
        }
        assert _cover_pairs(lat) == oracles.hasse_covers(nodes)


def test_label_checks_are_live():
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a2"))
    cat.bricks = (False,) * len(cat.ind)
    with pytest.raises(LabelNotBrick, match="no brick between"):
        build_lattice(cat)
    # a member that maps to nothing leaves both simples of ss2 in a gap
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("ss2"))
    cat.out_bits = (0,) * len(cat.ind)
    with pytest.raises(LabelNotUnique, match="2 bricks between"):
        build_lattice(cat)
    # closure rows that every mask satisfies make each Filt(B) everything
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a2"))
    cat.closure_rows = tuple((1 << j, (0,)) for j in range(len(cat.ind)))
    cat.op_cache.clear()
    with pytest.raises(LabelNotBrick, match="does not generate the gap"):
        build_lattice(cat)


# the algebras beyond the corpus that the lattice-only oracles read
_ORACLE_SPECS = {
    "a5p2": A5_P2,
    "d4p3": SCALE_SPECS["d4p3"],
    "nak3p2": SCALE_SPECS["nak3p2"],
    "nak55": NAKAYAMA_5_5,
}


def _oracle_catalog(name, cat_of):
    """The catalog of a corpus algebra, or of a scale spec or an oracle spec
    by name."""
    text = _ORACLE_SPECS.get(name) or SCALE_SPECS.get(name)
    if text is None:
        return cat_of(name)
    return torslat.build_catalog(parse_algebra_text(text))


def _assert_same_lattice(got, want):
    assert got.node_bits == want.node_bits
    assert got.arrows == want.arrows
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "name", verify_mod.CORPUS + ("d4p3", "kx3p2", "nak3p2", "a5p2", "nak55")
)
def test_cover_walk_matches_the_unfiltered_walk(name, cat_of):
    cat = _oracle_catalog(name, cat_of)
    for side in ("tors", "torf"):
        _assert_same_lattice(
            build_lattice(cat, side=side), oracles.cover_walk(cat, side)
        )


@pytest.mark.parametrize("name", ["a3", "a4", "nak3", "d4p3", "a5p2", "nak55"])
def test_relative_cover_walk_matches_the_unfiltered_walk(name, cat_of):
    cat = _oracle_catalog(name, cat_of)
    for w in widelab.enumerate_wide_subcats(cat):
        _assert_same_lattice(
            build_lattice(cat, within=w), oracles.cover_walk(cat, within=to_set(w))
        )


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_cover_walk_skips_candidates(name, side, cat_of, monkeypatch):
    # the filter is not vacuous: the walk forms fewer candidates T & perp-x
    # (F & x^perp) than its nodes have members, one per member unfiltered
    cat = cat_of(name)
    read, candidates, members = lattice._class_rows, [], []

    def counting(node, amb, reach, minimal):
        rows = read(node, amb, reach, minimal)
        candidates.append(rows[1].bit_count())
        members.append(len(rows[2]))
        return rows

    monkeypatch.setattr(lattice, "_class_rows", counting)
    lat = build_lattice(cat, side=side)
    assert sum(members) == sum(b.bit_count() for b in lat.node_bits)
    assert 0 < sum(candidates) < sum(members)


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_the_walk_lists_each_class_once(name, side, cat_of, monkeypatch):
    # the walk reads each class, the ambient included, in one pass over its
    # bits, and the TorsLattice constructor no node; a class's member list,
    # its perpendicular, minimality test and sort key all come from that
    # pass, and no subcat.indices call
    cat = cat_of(name)
    listed, calls = subcat.indices, []
    read, classes = lattice._class_rows, []

    def counting(b):
        calls.append(b)
        return listed(b)

    def reading(node, amb, reach, minimal):
        classes.append(node)
        return read(node, amb, reach, minimal)

    monkeypatch.setattr(subcat, "indices", counting)
    monkeypatch.setattr(lattice, "_class_rows", reading)
    lat = build_lattice(cat, side=side)
    assert calls == []
    assert sorted(classes) == sorted(lat.node_bits)


@pytest.mark.parametrize("name", ["a4", "d4p3"])
def test_the_walk_closes_each_label_once(name, cat_of, monkeypatch):
    # with the wide table built, the walks' only extension closures are the
    # label checks' Filt(B), one subcat.filt entry per brick B: at most one
    # per distinct label over both sides, and none on a second build or
    # inside a wide subcategory
    if name in SCALE_SPECS:
        algebra = parse_algebra_text(SCALE_SPECS[name])
    else:
        algebra = verify_mod.load_corpus_algebra(name)
    cat = torslat.build_catalog(algebra)
    subcat.wide_table(cat)
    close, calls = subcat.extension_closure, []

    def counting(cur, rows):
        calls.append(cur)
        return close(cur, rows)

    monkeypatch.setattr(subcat, "extension_closure", counting)
    labels = {
        1 << a.label
        for side in ("tors", "torf")
        for a in build_lattice(cat, side).arrows
    }
    assert 0 < len(calls) == len(set(calls)) and set(calls) <= labels
    calls.clear()
    build_lattice(cat, "tors")
    build_lattice(cat, "torf")
    for w in widelab.enumerate_wide_subcats(cat):
        build_lattice(cat, "tors", w)
    assert calls == []


# the a7@p2 torsion lattice export of the benchmark, read only
A7_TORS = A7_EXPORT.with_name("a7p2.tors.json")


def test_a7_lattice_matches_the_bench_export(a7lat):
    assert a7lat.to_json() == A7_TORS.read_text()


def _bench_catalog(name):
    """A catalog loaded from the benchmark's export of it, read only."""
    return torslat.from_json(A7_EXPORT.with_name(f"{name}.catalog.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the lattice exports the benchmark checks, as in its
# LATTICE_DIGESTS
@pytest.mark.parametrize(
    "name,side,digest",
    [
        ("a6p2", "torf", "89af01979fc98720e934e4d087d2358e668ad7e6fea02cfe4e0dca776f245104"),
        ("d4p3", "tors", "e0b8dc548351713af4b9bbb4803a41e455343af6bf993a49be2e8ed41618407e"),
        ("d4p3", "torf", "5d5688cc8e33151075836892f1b4600144544865911d355aea80d4fe807d939c"),
    ],
)
def test_the_bench_lattices_keep_their_digests(name, side, digest):
    assert _sha256(build_lattice(_bench_catalog(name), side).to_json()) == digest


def test_the_relative_walks_keep_their_digest():
    # the torsion lattice of each wide subcategory of the d4@p3 export, in
    # enumeration order, exported and joined
    cat = _bench_catalog("d4p3")
    wides = widelab.enumerate_wide_subcats(cat)
    assert len(wides) == 50
    text = "".join(build_lattice(cat, "tors", w).to_json() for w in wides)
    assert _sha256(text) == (
        "929e61583f0593ecdd1d760dcd357cf02393b8a6b657a99ee0bb99260f06fae1"
    )


# an arrow with one end outside the 50 nodes, or the last arrow given twice
@pytest.mark.parametrize(
    "field,end",
    [pytest.param(f, e, id=f"{f}-{e}") for f in ("dst", "src") for e in (-1, 50)]
    + [pytest.param(None, None, id="repeated")],
)
def test_an_arrow_outside_the_nodes_raises(field, end):
    lat = build_lattice(_bench_catalog("d4p3"))
    assert len(lat) == 50
    if field is None:
        bad, why = lat.arrows[-1], "repeats the arrow"
    else:
        bad, why = HasseArrow(1, 0, 0)._replace(**{field: end}), "outside 0..49"
    with pytest.raises(ValueError, match=re.escape(f"{bad}") + ".* " + why):
        TorsLattice(lat.cat, lat.side, lat.ambient, lat.node_bits, lat.arrows + (bad,))


def test_a2_with_its_last_arrow_repeated_raises_at_construction(a2lat):
    # the constructor is the one check of the arrows: a repeated pair passes
    # the reduction's pair-based arrow check, so it must stop here
    last = a2lat.arrows[-1]
    arrows = a2lat.arrows + (last,)
    with pytest.raises(ValueError, match=re.escape(f"({last.src}, {last.dst})")):
        TorsLattice(a2lat.cat, a2lat.side, a2lat.ambient, a2lat.node_bits, arrows)


def test_the_frozenset_view_is_built_on_first_read(cat_of):
    cat = cat_of("a3")
    w = widelab.enumerate_wide_subcats(cat)[-2]
    assert w not in (0, cat.full_mask)
    for lat in (
        build_lattice(cat),
        build_lattice(cat, "torf"),
        build_lattice(cat, "tors", w),
    ):
        assert "node_index" not in vars(lat)
        nodes = oracles.node_sets(lat)
        assert lat.node_index == {m: i for i, m in enumerate(nodes)}
        assert "node_index" in vars(lat)
        assert len(lat.node_index) == len(lat)


def _relative_torf_lattice(cat_of):
    """The torsion-free lattice of a4 inside a proper wide subcategory."""
    cat = cat_of("a4")
    w = widelab.enumerate_wide_subcats(cat)[-2]
    assert w not in (0, cat.full_mask)
    return build_lattice(cat, "torf", w)


@pytest.mark.parametrize("which", ["a7", "a4-relative-torf"])
def test_node_sets_match_the_frozenset_oracles(which, cat_of):
    # every interval's upper and lower sets, as node bitsets, against the
    # oracles on the node masks; labels_of on each distinct set and join on
    # each distinct lower set, the oracle's gen memoised by the union.  The
    # a7 lattice is a fresh one: the joins fill its catalog's op_cache
    if which == "a7":
        lat = build_lattice(torslat.from_json(A7_EXPORT.read_text()))
    else:
        lat = _relative_torf_lattice(cat_of)
    nodes = oracles.node_sets(lat)
    sets, lowers = {}, {}
    for iv in lat.intervals:
        got, want = lat.upper_set(iv), oracles.upper_set(lat, nodes, iv)
        assert got == subcat.bits(want)
        sets[got] = want
        got, want = lat.lower_set(iv), oracles.lower_set(lat, nodes, iv)
        assert got == subcat.bits(want)
        sets[got] = lowers[got] = want
    for got, want in sets.items():
        assert lat.labels_of(got) == subcat.bits(oracles.labels_of(lat, want))
    gens = {}
    for got, want in lowers.items():
        union = frozenset().union(*(nodes[i] for i in want))
        if union not in gens:
            gens[union] = oracles.join(lat, nodes, want)
        assert lat.join(got) == gens[union] is not None


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name,count", [("a2", 3), ("a3", 50)])
def test_a_walk_inside_a_mask_that_is_not_wide_raises(name, count, side):
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra(name))
    masks = range(1 << len(cat.ind))
    bad = [b for b in masks if not oracles.is_wide(cat, to_set(b))]
    assert len(bad) == count
    for b in bad:
        with pytest.raises(NotWide):
            build_lattice(cat, side, within=b)


def _lattices_and_relatives(name, cat_of):
    """Both lattices of the named algebra, then the torsion lattice of each
    of its wide subcategories."""
    cat = _oracle_catalog(name, cat_of)
    yield build_lattice(cat, "tors")
    yield build_lattice(cat, "torf")
    for w in widelab.enumerate_wide_subcats(cat):
        yield build_lattice(cat, "tors", w)


@pytest.mark.parametrize("name", verify_mod.CORPUS + tuple(_ORACLE_SPECS))
def test_the_wide_table_matches_the_oracles(name, cat_of):
    # every mask of the corpus and of d4@p3, every distinct gap of the
    # larger torsion lattices: wideness and the simples agree with the
    # candidate-simples reference, and the wide subcategories number the
    # torsion classes
    cat = _oracle_catalog(name, cat_of)
    lat = build_lattice(cat)
    every_mask = len(cat) <= 12
    masks = range(1 << len(cat)) if every_mask else {lat.gap(iv) for iv in lat.intervals}
    table = subcat.wide_table(cat)
    wide = 0
    for b in masks:
        m = to_set(b)
        assert (b in table) == oracles.is_wide(cat, m), m
        if b in table:
            assert to_set(subcat.simples_of_wide(cat, b)) == (
                oracles.candidate_simples(cat, m)
            )
            wide += 1
    assert len(widelab.enumerate_wide_subcats(cat)) == len(lat)
    if every_mask:
        assert wide == len(lat)


@pytest.mark.parametrize("name", verify_mod.CORPUS + tuple(_ORACLE_SPECS))
def test_the_hasse_diagram_is_regular(name, cat_of):
    # a support tau-tilting module has as many summands as there are simples,
    # one mutation per summand, so every node has that many covering arrows,
    # up or down (Adachi-Iyama-Reiten, arXiv:1210.1036); inside a wide W,
    # W's simples count
    walks = 0
    for lat in _lattices_and_relatives(name, cat_of):
        rank = len(oracles.candidate_simples(lat.cat, to_set(lat.ambient)))
        degrees = {len(lat.out_of[i]) + len(lat.into[i]) for i in range(len(lat))}
        assert degrees == {rank}, (lat.side, lat.ambient)
        walks += 1
    assert walks > 2


@pytest.mark.parametrize("name", verify_mod.CORPUS + tuple(_ORACLE_SPECS))
def test_join_irreducibles_are_the_classes_of_one_brick(name, cat_of):
    # on the torsion side the nodes with one arrow out are the tors_gen(B),
    # one per brick B of the ambient, and that arrow is labelled B
    # (Demonet-Iyama-Reading-Reiten-Thomas, arXiv:1711.01785)
    for lat in _lattices_and_relatives(name, cat_of):
        if lat.side != "tors":
            continue
        cat = lat.cat
        irreducible = {i for i in range(len(lat)) if len(lat.out_of[i]) == 1}
        bricks = [x for x in subcat.indices(lat.ambient) if cat.bricks[x]]
        by_brick = {}
        for b in bricks:
            node = lat.bits_index[lat.gen(1 << b)]
            by_brick[node] = b
        assert set(by_brick) == irreducible and len(by_brick) == len(bricks)
        assert all(lat.out_of[i][0].label == b for i, b in by_brick.items())


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_gen_matches_the_frozenset_oracles(name, cat_of):
    # inside every wide W, on both sides: gen of each singleton of W and of
    # each node mask is the literal relative closure, filt after fac
    # (sub_cl) inside W
    cat = cat_of(name)
    for w in widelab.enumerate_wide_subcats(cat):
        w_set = to_set(w)
        for side, close in (("tors", oracles.fac), ("torf", oracles.sub_cl)):
            lat = build_lattice(cat, side, within=w)
            assert lat.ambient == w
            masks = [1 << x for x in subcat.indices(w)] + list(lat.node_bits)
            for b in masks:
                want = oracles.filt(cat, close(cat, to_set(b), w_set), w_set)
                assert to_set(lat.gen(b)) == want, (side, w, b)


def test_relative_walk_on_a7_matches_the_unfiltered_walk(a7lat):
    # 100 seeded wide subcategories of a7 of rank at most 4; the walk adds to
    # op_cache at most the wide table, which validates W, on the whole
    # category and inside each W: its label closures, one per brick, are
    # already there from a7lat's walk
    cat = a7lat.cat
    small = [
        w
        for w in widelab.enumerate_wide_subcats(cat)
        if subcat.simples_of_wide(cat, w).bit_count() <= 4
    ]
    sample = random.Random(0).sample(small, 100)
    assert {subcat.simples_of_wide(cat, w).bit_count() for w in sample} == {
        1, 2, 3, 4
    }
    keys = set(cat.op_cache)
    assert build_lattice(cat).to_json() == a7lat.to_json()
    walks = [build_lattice(cat, within=w) for w in sample]
    assert set(cat.op_cache) - keys <= {("wide",)}
    for w, lat in zip(sample, walks):
        _assert_same_lattice(lat, oracles.cover_walk(cat, within=to_set(w)))


def _contains(w, pattern):
    """Whether some three entries of w, in order, rank as the pattern."""
    return any(
        tuple(sorted(sub).index(v) for v in sub) == pattern
        for sub in itertools.combinations(w, 3)
    )


@pytest.mark.parametrize("size", range(1, 7))
def test_the_pattern_avoiders_are_the_brute_force_ones(size):
    values = tuple(range(size))
    # 231 and 312, ranked from 0
    for gen, pattern in (
        (oracles.avoiding_231, (1, 2, 0)),
        (oracles.avoiding_312, (2, 0, 1)),
    ):
        got = list(gen(values))
        assert len(got) == len(set(got)) == math.comb(2 * size, size) // (size + 1)
        assert set(got) == {
            w for w in itertools.permutations(values) if not _contains(w, pattern)
        }


@pytest.mark.parametrize("n", range(3, 9))
def test_linear_a_lattices_are_the_tamari_lattices(n):
    # 1 -> ... -> n: the torsion classes are the inversion sets of the
    # 231-avoiding permutations of {0, ..., n}, the torsion-free classes
    # those of the 312-avoiding ones, Catalan(n + 1) of each
    text = f"vertices {n}\n" + "".join(
        f"arrow a{v} {v} {v + 1}\n" for v in range(1, n)
    ) + "prime 2\n"
    cat = torslat.build_catalog(parse_algebra_text(text))
    values = tuple(range(n + 1))
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
    for side, gen in (("tors", oracles.avoiding_231), ("torf", oracles.avoiding_312)):
        lat = build_lattice(cat, side)
        assert len(lat) == catalan
        assert set(lat.node_bits) == {oracles.inversion_mask(cat, w) for w in gen(values)}


def test_the_self_injective_nakayama_algebra_n7_is_pinned():
    # N_7^7: n*r = 49 indecomposables, C(2n, n) = 3432 torsion classes
    # (Adachi, arXiv:1309.2216) and as many wide subcategories, n*N/2 Hasse
    # arrows
    cat = torslat.build_catalog(parse_algebra_text(NAKAYAMA_7_7))
    lat = build_lattice(cat)
    assert len(cat) == 49
    assert len(lat) == math.comb(14, 7) == 3432
    assert len(lat.arrows) == 7 * 3432 // 2 == 12012
    assert len(widelab.enumerate_wide_subcats(cat)) == 3432
