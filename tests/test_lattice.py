import itertools
import random

import pytest

import oracles
import torslat
from conftest import A7_EXPORT, names_to_mask
from test_acceptance import SCALE_SPECS
from torslat import lattice, subcat, widelab
from torslat import verify as verify_mod
from torslat.config import DEFAULT_CONFIG
from torslat.errors import LabelNotBrick, LatticeBlowup, NotAnInterval
from torslat.lattice import build_lattice, dual_correspondence
from torslat.quivalg import parse_algebra_text


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_node_counts(name, lat_of):
    assert len(lat_of(name)) == oracles.TORS_COUNTS[name]


def test_pentagon_nodes_and_arrows(a2cat, a2lat):
    n = names_to_mask
    assert list(a2lat.nodes) == [
        frozenset(),
        n(a2cat, "01a"),
        n(a2cat, "10a"),
        n(a2cat, "10a", "11a"),
        a2cat.full_mask,
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
        assert 0 <= lat.join([i, j]) < len(lat)
        assert 0 <= lat.meet([i, j]) < len(lat)


def test_pentagon_shape(a2lat):
    s2, s1, fac_p1 = 1, 2, 3
    top, bottom = a2lat.top_index, a2lat.bottom_index
    assert a2lat.join([s1, s2]) == top
    assert a2lat.join([s2, fac_p1]) == top
    assert a2lat.meet([s2, fac_p1]) == bottom
    assert a2lat.meet([top, fac_p1]) == fac_p1
    assert a2lat.join([]) == bottom
    assert a2lat.meet([]) == top


def test_interval_membership(a2lat):
    iv = a2lat.interval(0, 3)
    assert sorted(a2lat.interval_nodes(iv)) == [0, 2, 3]
    with pytest.raises(NotAnInterval):
        a2lat.interval(3, 2)


def _bits(nodes):
    return sum(1 << i for i in nodes)


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_cover_bitsets_match_the_masks(name, side, lat_of):
    lat = lat_of(name, side)
    nodes = lat.nodes
    for i, m in enumerate(nodes):
        assert lat.down_sets[i] >> i & 1 and lat.up_sets[i] >> i & 1
        assert lat.down_sets[i] == _bits(j for j, o in enumerate(nodes) if o <= m)
        assert lat.up_sets[i] == _bits(j for j, o in enumerate(nodes) if o >= m)
    for iv in lat.all_intervals():
        assert lat.interval_nodes(iv) == oracles.interval_nodes_by_subsets(lat, iv)


def test_interval_nodes_match_the_subset_scan_on_a7(a7lat):
    # 2,000 intervals under random tops of the 1430-node lattice
    rng = random.Random(0)
    nodes = a7lat.nodes
    sizes = set()
    for _ in range(2000):
        t = rng.randrange(len(nodes))
        b = rng.choice([i for i, m in enumerate(nodes) if m <= nodes[t]])
        iv = a7lat.interval(b, t)
        got = a7lat.interval_nodes(iv)
        assert got == oracles.interval_nodes_by_subsets(a7lat, iv)
        sizes.add(len(got))
    assert len(nodes) == 1430 and max(sizes) > 100


def test_interval_count_on_pentagon(a2lat):
    assert sum(1 for _ in a2lat.all_intervals()) == 13


def test_upper_and_lower_sets(a2lat):
    iv = a2lat.interval(0, 3)
    assert a2lat.lower_set(iv) == {0, 2}
    assert a2lat.upper_set(iv) == {2, 3}
    full = a2lat.interval(0, 4)
    assert a2lat.upper_set(full) == {4, 1, 3}
    assert a2lat.lower_set(full) == {0, 1, 2}
    point = a2lat.interval(2, 2)
    assert a2lat.upper_set(point) == {2}
    assert a2lat.lower_set(point) == {2}


def test_labels_of_sets(a2cat, a2lat):
    full = a2lat.interval(0, 4)
    assert a2lat.labels_of(a2lat.upper_set(full)) == frozenset(
        a2cat.simple_indices
    )
    iv = a2lat.interval(0, 3)
    assert a2lat.labels_of(a2lat.lower_set(iv)) == names_to_mask(a2cat, "10a")


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_endpoint_arrows(name, cat_of, lat_of):
    cat, lat = cat_of(name), lat_of(name)
    into_zero = {(a.src, a.label) for a in lat.into[lat.bottom_index]}
    expected = {
        (lat.node_index[subcat.filt(cat, frozenset((s,)))], s)
        for s in cat.simple_indices
    }
    assert into_zero == expected
    assert lat.out_labels(lat.top_index) == frozenset(cat.simple_indices)


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_duality_holds(name, cat_of, lat_of):
    mapping, node_checks, arrow_checks = dual_correspondence(
        lat_of(name), lat_of(name, "torf")
    )
    for desc, ok, witness in node_checks + arrow_checks:
        assert ok, f"{desc}: {witness}"
    assert sorted(mapping) == list(range(len(lat_of(name))))


def test_torf_side_counts(lat_of):
    for name in verify_mod.CORPUS:
        assert len(lat_of(name, "torf")) == oracles.TORS_COUNTS[name]


def test_relative_lattice_inside_wide(a2cat):
    w = names_to_mask(a2cat, "11a")
    lat = build_lattice(a2cat, within=w)
    assert len(lat) == 2
    assert len(lat.arrows) == 1
    assert a2cat.names[lat.arrows[0].label] == "11a"


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
    for mask in a2lat.nodes:
        assert f'"{a2cat.mask_name(mask)}";' in dot
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


def test_node_budget(cat_of):
    with pytest.raises(LatticeBlowup):
        build_lattice(
            cat_of("a3"),
            config=DEFAULT_CONFIG.with_overrides(node_budget=3),
        )


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
    assert set(lat.nodes) == by_filtering(cat)
    assert _cover_pairs(lat) == oracles.hasse_covers(lat.nodes)


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_relative_cover_walk_matches_oracles(name, cat_of):
    cat = cat_of(name)
    for w in widelab.enumerate_wide_subcats(cat):
        lat = build_lattice(cat, within=w)
        subsets = (
            frozenset(c)
            for r in range(len(w) + 1)
            for c in itertools.combinations(sorted(w), r)
        )
        assert set(lat.nodes) == {
            m for m in subsets if oracles.is_torsion_class(cat, m, within=w)
        }
        assert _cover_pairs(lat) == oracles.hasse_covers(lat.nodes)


def test_label_checks_are_live():
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a2"))
    cat.bricks = (False,) * len(cat.ind)
    with pytest.raises(LabelNotBrick):
        build_lattice(cat)


def _assert_same_lattice(got, want):
    assert got.nodes == want.nodes
    assert got.arrows == want.arrows
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("d4p3", "kx3p2", "nak3p2"))
def test_cover_walk_matches_the_unfiltered_walk(name, cat_of):
    if name in SCALE_SPECS:
        cat = torslat.build_catalog(parse_algebra_text(SCALE_SPECS[name]))
    else:
        cat = cat_of(name)
    for side in ("tors", "torf"):
        _assert_same_lattice(
            build_lattice(cat, side=side), oracles.cover_walk(cat, side)
        )


@pytest.mark.parametrize("name", ["a3", "a4", "nak3"])
def test_relative_cover_walk_matches_the_unfiltered_walk(name, cat_of):
    cat = cat_of(name)
    for w in widelab.enumerate_wide_subcats(cat):
        _assert_same_lattice(
            build_lattice(cat, within=w), oracles.cover_walk(cat, within=w)
        )


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_cover_walk_skips_candidates(name, side, cat_of, monkeypatch):
    # the filter is not vacuous: the walk forms fewer candidates gen(T + x)
    # than the unfiltered walk, which forms one per x of the orthogonal of T
    cat = cat_of(name)
    pick, closures = lattice._quotient_minimal, []

    def counting(*args):
        xs = pick(*args)
        closures.extend(xs)
        return xs

    monkeypatch.setattr(lattice, "_quotient_minimal", counting)
    build_lattice(cat, side=side)
    filtered = len(closures)
    op = "tors_gen" if side == "tors" else "torf_gen"
    gen, calls = getattr(subcat, op), []

    def counting_gen(*args):
        calls.append(args)
        return gen(*args)

    monkeypatch.setattr(subcat, op, counting_gen)
    oracles.cover_walk(cat, side)
    assert 0 < filtered < len(calls)


# the a7@p2 torsion lattice export of the benchmark, read only
A7_TORS = A7_EXPORT.with_name("a7p2.tors.json")


def test_a7_lattice_matches_the_bench_export(a7lat):
    assert a7lat.to_json() == A7_TORS.read_text()


def test_relative_walk_on_a7_matches_the_unfiltered_walk(a7lat):
    # 100 seeded wide subcategories of a7 of rank at most 4; the walk leaves
    # op_cache as it found it, on the whole category and inside each W
    cat = a7lat.cat
    small = [
        w
        for w in widelab.enumerate_wide_subcats(cat)
        if len(subcat.candidate_simples(cat, w)) <= 4
    ]
    sample = random.Random(0).sample(small, 100)
    assert {len(subcat.candidate_simples(cat, w)) for w in sample} == {1, 2, 3, 4}
    keys = set(cat.op_cache)
    assert build_lattice(cat).to_json() == a7lat.to_json()
    walks = [build_lattice(cat, within=w) for w in sample]
    assert set(cat.op_cache) == keys
    for w, lat in zip(sample, walks):
        _assert_same_lattice(lat, oracles.cover_walk(cat, within=w))
