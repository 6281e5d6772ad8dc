import random

import pytest

import oracles
from conftest import names_to_mask
from torslat import subcat, widelab
from torslat.errors import NotSerre, NotWide, NotWideInterval, TheoremViolation
from torslat.lattice import HasseArrow, TorsLattice


def _interval(lat, b, t):
    return lat.interval(b, t)


def test_wide_interval_census_on_pentagon(a2lat):
    verdicts = {}
    for iv in a2lat.all_intervals():
        report = widelab.is_wide_interval(a2lat, iv)
        verdicts[(iv.bottom, iv.top)] = report.wide
    assert len(verdicts) == 13
    assert sum(verdicts.values()) == 11
    assert verdicts[(0, 3)] is False
    assert verdicts[(2, 4)] is False


def test_gap_masks(a2cat, a2lat):
    iv = _interval(a2lat, 2, 3)
    report = widelab.is_wide_interval(a2lat, iv)
    assert report.wide is True
    assert report.wide_mask == names_to_mask(a2cat, "11a")
    full = widelab.is_wide_interval(a2lat, _interval(a2lat, 1, 4))
    assert full.wide_mask == names_to_mask(a2cat, "10a")


def test_tors_of_wide(a2cat):
    w = names_to_mask(a2cat, "11a")
    wlat = widelab.tors_of_wide(a2cat, w)
    assert len(wlat) == 2 and len(wlat.arrows) == 1
    with pytest.raises(NotWide):
        widelab.tors_of_wide(a2cat, names_to_mask(a2cat, "10a", "11a"))


def test_reduce_point_and_full(a2cat, a2lat):
    whole = widelab.reduce_interval(a2lat, _interval(a2lat, 0, 4))
    assert len(whole.wide_lattice) == 5
    assert all(
        a2lat.nodes[v] == whole.wide_lattice.nodes[whole.phi[v]]
        for v in whole.phi
    )
    point = widelab.reduce_interval(a2lat, _interval(a2lat, 2, 2))
    assert len(point.wide_lattice) == 1
    assert point.phi == {2: 0}


def test_reduce_small_wide_interval(a2cat, a2lat):
    red = widelab.reduce_interval(a2lat, _interval(a2lat, 2, 3))
    wlat = red.wide_lattice
    assert len(wlat) == 2 and len(wlat.arrows) == 1
    assert a2cat.names[wlat.arrows[0].label] == "11a"
    assert red.phi[2] == wlat.bottom_index
    assert red.phi[3] == wlat.top_index
    assert red.psi == {wlat.bottom_index: 2, wlat.top_index: 3}


def test_reduce_rejects_non_wide(a2lat):
    with pytest.raises(NotWideInterval):
        widelab.reduce_interval(a2lat, _interval(a2lat, 0, 3))


@pytest.mark.parametrize("tamper", ("relabel", "drop"))
def test_reduce_rejects_a_tampered_gap_lattice(tamper, a2cat, a2lat, monkeypatch):
    # with the order loop gone, the arrow checks must still catch a wide
    # lattice whose covers differ from the interval's
    tors_of_wide = widelab.tors_of_wide

    def tampered(cat, w_mask, config=None):
        wlat = tors_of_wide(cat, w_mask, config)
        first, *rest = wlat.arrows
        if tamper == "relabel":
            other = (first.label + 1) % len(cat.ind)
            rest.insert(0, HasseArrow(first.src, first.dst, other))
        return TorsLattice(cat, wlat.side, wlat.within, wlat.nodes, tuple(rest))

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    with pytest.raises(TheoremViolation):
        widelab.reduce_interval(a2lat, _interval(a2lat, 0, 4))


def merge_the_bottom_into_a_cover(wlat):
    """The gap lattice with its zero node merged into the first node that
    covers it.  phi then sends two interval nodes to one gap node but still
    hits every gap node, every covering arrow still has an image with its
    label (the merged arrow as a loop), and phi inverted still sends each gap
    node to its extension product with the bottom."""
    assert wlat.bottom_index == 0
    cover = wlat.into[0][0].src

    def moved(i):
        return (cover if i == 0 else i) - 1

    arrows = tuple(
        HasseArrow(moved(a.src), moved(a.dst), a.label) for a in wlat.arrows
    )
    merged = TorsLattice(wlat.cat, wlat.side, wlat.within, wlat.nodes[1:], arrows)
    merged.node_index[frozenset()] = cover - 1
    return merged


def test_reduce_rejects_a_phi_that_is_not_injective(a2lat, monkeypatch):
    tors_of_wide = widelab.tors_of_wide

    def tampered(cat, w_mask, config=None):
        return merge_the_bottom_into_a_cover(tors_of_wide(cat, w_mask, config))

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    with pytest.raises(TheoremViolation, match="phi is not a bijection onto"):
        widelab.reduce_interval(a2lat, _interval(a2lat, 0, 4))


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_psi_is_the_extension_product_over_the_bottom(name, cat_of, lat_of):
    # what the removed rebuild checked: psi(X) = tors_gen(U | X) = star(U, X)
    cat, lat = cat_of(name), lat_of(name)
    for iv in lat.all_intervals():
        if not widelab.is_wide_interval(lat, iv).wide:
            continue
        red = widelab.reduce_interval(lat, iv)
        u_mask, wlat = lat.nodes[iv.bottom], red.wide_lattice
        assert sorted(red.psi) == list(range(len(wlat)))
        assert sorted(red.phi) == lat.interval_nodes(iv)
        for x, v in red.psi.items():
            x_mask = wlat.nodes[x]
            assert red.phi[v] == x
            assert lat.nodes[v] == subcat.tors_gen(cat, u_mask | x_mask)
            assert lat.nodes[v] == oracles.star(cat, u_mask, x_mask)


def test_reduce_makes_no_star_entry_and_no_tors_gen_call(monkeypatch, a7lat):
    # the wide intervals under ten random tops of a7
    lat, cat = a7lat, a7lat.cat
    tops = random.Random(0).sample(range(len(lat)), 10)
    wide = [
        lat.interval(b, t) for t in tops for b in widelab.wide_intervals_with_top(lat, t)
    ]
    state = {"in_reduce": False, "inside": 0, "outside": 0}
    tors_gen, reduce_onto = subcat.tors_gen, widelab._reduce_onto

    def counting_gen(*args, **kwargs):
        state["inside" if state["in_reduce"] else "outside"] += 1
        return tors_gen(*args, **kwargs)

    def flagged_reduce(*args, **kwargs):
        state["in_reduce"] = True
        try:
            return reduce_onto(*args, **kwargs)
        finally:
            state["in_reduce"] = False

    monkeypatch.setattr(subcat, "tors_gen", counting_gen)
    monkeypatch.setattr(widelab, "_reduce_onto", flagged_reduce)
    stars = sum(key[0] == "star" for key in cat.op_cache)
    for iv in wide:
        widelab.reduce_interval(lat, iv)
    assert len(wide) > 10 and state["outside"] > 0
    assert state["inside"] == 0
    assert sum(key[0] == "star" for key in cat.op_cache) == stars


def test_reduce_needs_the_torsion_side(lat_of):
    flat = lat_of("a2", "torf")
    with pytest.raises(ValueError):
        widelab.reduce_interval(flat, _interval(flat, 0, 0))


def test_reduce_scans_the_perpendicular_once(monkeypatch, lat_of):
    # perp_right calls made by reduce_interval itself, not by the walk that
    # builds the gap's own lattice
    state = {"calls": 0, "in_walk": False}
    perp_right, build_lattice = subcat.perp_right, widelab.build_lattice

    def counting_perp(*args, **kwargs):
        state["calls"] += not state["in_walk"]
        return perp_right(*args, **kwargs)

    def quiet_walk(*args, **kwargs):
        state["in_walk"] = True
        try:
            return build_lattice(*args, **kwargs)
        finally:
            state["in_walk"] = False

    lat = lat_of("a4")
    wide = [
        iv for iv in lat.all_intervals() if widelab.is_wide_interval(lat, iv).wide
    ]
    monkeypatch.setattr(subcat, "perp_right", counting_perp)
    monkeypatch.setattr(widelab, "build_lattice", quiet_walk)
    per_call = []
    for iv in wide:
        before = state["calls"]
        widelab.reduce_interval(lat, iv)
        per_call.append(state["calls"] - before)
    assert wide and per_call == [1] * len(wide)


def test_left_wide_per_node(a2cat, a2lat):
    n = names_to_mask
    expected = {
        0: frozenset(),
        1: n(a2cat, "01a"),
        2: n(a2cat, "10a"),
        3: n(a2cat, "11a"),
        4: a2cat.full_mask,
    }
    for node, want in expected.items():
        assert widelab.left_wide(a2lat, node) == want


def test_left_wide_needs_tors_side(lat_of):
    with pytest.raises(ValueError):
        widelab.left_wide(lat_of("a2", "torf"), 0)
    with pytest.raises(ValueError):
        widelab.right_wide(lat_of("a2"), 0)


def test_right_wide_on_torf_side(a2cat, lat_of):
    flat = lat_of("a2", "torf")
    tops = widelab.right_wide(flat, flat.top_index)
    assert tops == a2cat.full_mask


def test_serre_mutation_examples(a2cat, a2lat):
    n = names_to_mask
    u = widelab.serre_mutation(a2lat, 4, n(a2cat, "01a"))
    assert a2lat.nodes[u] == n(a2cat, "10a", "11a")
    u = widelab.serre_mutation(a2lat, 4, n(a2cat, "10a"))
    assert a2lat.nodes[u] == n(a2cat, "01a")
    u = widelab.serre_mutation(a2lat, 4, a2cat.full_mask)
    assert u == a2lat.bottom_index
    u = widelab.serre_mutation(a2lat, 4, frozenset())
    assert u == a2lat.top_index


def test_serre_mutation_rejects_non_serre(a2cat, a2lat):
    with pytest.raises(NotSerre):
        widelab.serre_mutation(a2lat, 4, names_to_mask(a2cat, "11a"))
    with pytest.raises(NotSerre):
        widelab.serre_mutation(a2lat, 3, names_to_mask(a2cat, "10a"))


@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_serre_mutation_rebuilds_the_top_as_the_extension_product(name, cat_of, lat_of):
    cat, lat = cat_of(name), lat_of(name)
    stars = sum(key[0] == "star" for key in cat.op_cache)
    pieces = 0
    for t in range(len(lat)):
        for w in subcat.serre_list(cat, widelab.left_wide(lat, t)):
            u = widelab.serre_mutation(lat, t, w)
            assert oracles.star(cat, lat.nodes[u], w) == lat.nodes[t]
            pieces += 1
    assert pieces > len(lat)
    assert sum(key[0] == "star" for key in cat.op_cache) == stars


def test_serre_mutation_rejects_a_piece_outside_the_top(a2cat, a2lat, monkeypatch):
    # a left wide subcategory that leaves the top {10a,11a}: its whole
    # Serre piece is no subcategory of the top
    monkeypatch.setattr(widelab, "left_wide", lambda lat, node: a2cat.full_mask)
    with pytest.raises(TheoremViolation, match="is not inside"):
        widelab.serre_mutation(a2lat, 3, a2cat.full_mask)


def test_wide_intervals_with_top(a2lat):
    assert widelab.wide_intervals_with_top(a2lat, 4) == [0, 1, 3, 4]
    assert widelab.wide_intervals_with_top(a2lat, 3) == [2, 3]
    assert widelab.wide_intervals_with_top(a2lat, 0) == [0]


def test_wide_interval_counts_follow_outdegree(lat_of):
    lat = lat_of("a3")
    for t in range(len(lat)):
        bottoms = widelab.wide_intervals_with_top(lat, t)
        assert len(bottoms) == 2 ** len(lat.out_of[t])


def test_widely_generated_everywhere(lat_of):
    for name in ("a2", "ppa2", "nak3"):
        lat = lat_of(name)
        for t in range(len(lat)):
            report = widelab.is_widely_generated(lat, t)
            assert report.holds
            assert report.via_labels and report.via_covers
            assert report.canonical_join is True


def test_semibrick_enumeration(a2cat):
    sbs = widelab.enumerate_semibricks(a2cat)
    assert len(sbs) == 5
    assert frozenset() in sbs
    assert frozenset(a2cat.simple_indices) in sbs
    assert all(subcat.is_semibrick(a2cat, s) for s in sbs)


def test_wide_subcat_enumeration(a2cat):
    wides = widelab.enumerate_wide_subcats(a2cat)
    assert len(wides) == 5
    n = names_to_mask
    assert wides == [
        frozenset(),
        n(a2cat, "01a"),
        n(a2cat, "10a"),
        n(a2cat, "11a"),
        a2cat.full_mask,
    ]


def roundtrip(cat, lat):
    """(W, node of T(W)) per wide subcategory W, asserting L(T(W)) = W."""
    pairs = []
    for w in widelab.enumerate_wide_subcats(cat):
        node = lat.node_index.get(subcat.tors_gen(cat, w))
        assert node is not None, f"{cat.mask_name(w)} generated a non-torsion-class"
        assert widelab.left_wide(lat, node) == w
        pairs.append((w, node))
    return pairs


def test_roundtrip_on_pentagon(a2cat, a2lat):
    pairs = roundtrip(a2cat, a2lat)
    assert len(pairs) == 5
    w_to_node = dict(pairs)
    assert w_to_node[names_to_mask(a2cat, "11a")] == 3
    assert w_to_node[a2cat.full_mask] == 4


def test_roundtrip_across_corpus(cat_of, lat_of):
    for name in ("a3s", "ppa2", "nak3"):
        pairs = roundtrip(cat_of(name), lat_of(name))
        assert len(pairs) == len(widelab.enumerate_wide_subcats(cat_of(name)))
