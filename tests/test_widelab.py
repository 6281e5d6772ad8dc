import random

import pytest

import oracles
import torslat
from conftest import A7_EXPORT, NAKAYAMA_5_5, names_to_bits
from oracles import to_set
from test_acceptance import SCALE_SPECS
from test_lattice import A5_P2
from torslat import subcat, widelab
from torslat import verify as verify_mod
from torslat.errors import NotSerre, NotWide, NotWideInterval, TheoremViolation
from torslat.lattice import HasseArrow, TorsLattice, build_lattice
from torslat.quivalg import parse_algebra_text


def _interval(lat, b, t):
    return lat.interval(b, t)


def test_wide_interval_census_on_pentagon(a2lat):
    verdicts = {}
    for iv in a2lat.intervals:
        gap = widelab.is_wide_interval(a2lat, iv)
        verdicts[(iv.bottom, iv.top)] = gap is not None
    assert len(verdicts) == 13
    assert sum(verdicts.values()) == 11
    assert verdicts[(0, 3)] is False
    assert verdicts[(2, 4)] is False


def test_gap_masks(a2cat, a2lat):
    iv = _interval(a2lat, 2, 3)
    assert widelab.is_wide_interval(a2lat, iv) == names_to_bits(a2cat, "11a")
    assert a2lat.gap(iv) == names_to_bits(a2cat, "11a")
    full = _interval(a2lat, 1, 4)
    assert widelab.is_wide_interval(a2lat, full) == names_to_bits(a2cat, "10a")
    # the trivial interval is wide with gap 0, a verdict that is falsy
    point = _interval(a2lat, 2, 2)
    assert widelab.is_wide_interval(a2lat, point) == 0 == a2lat.gap(point)


def test_tors_of_wide(a2cat):
    w = names_to_bits(a2cat, "11a")
    wlat = widelab.tors_of_wide(a2cat, w)
    assert len(wlat) == 2 and len(wlat.arrows) == 1
    with pytest.raises(NotWide):
        widelab.tors_of_wide(a2cat, names_to_bits(a2cat, "10a", "11a"))


def test_reduce_point_and_full(a2cat, a2lat):
    whole = widelab.reduce_interval(a2lat, _interval(a2lat, 0, 4))
    assert len(whole.wide_lattice) == 5
    wide_bits = whole.wide_lattice.node_bits
    assert all(a2lat.node_bits[v] == wide_bits[whole.phi[v]] for v in whole.phi)
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

    def tampered(cat, w_mask):
        wlat = tors_of_wide(cat, w_mask)
        first, *rest = wlat.arrows
        if tamper == "relabel":
            other = (first.label + 1) % len(cat.ind)
            rest.insert(0, HasseArrow(first.src, first.dst, other))
        return TorsLattice(cat, wlat.side, wlat.ambient, wlat.node_bits, tuple(rest))

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
    merged = TorsLattice(wlat.cat, wlat.side, wlat.ambient, wlat.node_bits[1:], arrows)
    merged.bits_index[0] = cover - 1
    return merged


def test_reduce_rejects_a_node_that_is_no_extension_product(a2cat):
    # a2's class {10a,11a} grown to the full class after construction: on
    # [{10a}, it] phi and the covering arrows still match the gap {11a},
    # but 01a is no extension of a part of {11a} by a part of {10a}
    lat = build_lattice(a2cat)
    n = names_to_bits
    u, t = lat.bits_index[n(a2cat, "10a")], lat.bits_index[n(a2cat, "10a", "11a")]
    nodes = list(lat.node_bits)
    nodes[t] = a2cat.full_mask
    lat.node_bits = tuple(nodes)
    w = names_to_bits(a2cat, "11a")
    with pytest.raises(TheoremViolation, match="differs from the extension product"):
        widelab._reduce_onto(lat, lat.interval(u, t), w, widelab.tors_of_wide(a2cat, w))


def test_reduce_rejects_a_phi_that_is_not_injective(a2lat, monkeypatch):
    tors_of_wide = widelab.tors_of_wide

    def tampered(cat, w_mask):
        return merge_the_bottom_into_a_cover(tors_of_wide(cat, w_mask))

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    with pytest.raises(TheoremViolation, match="phi is not a bijection onto"):
        widelab.reduce_interval(a2lat, _interval(a2lat, 0, 4))


def _with_one_arrow_changed(root, w, tamper):
    """root with one arrow of the down-set D of w relabelled or dropped: an
    arrow into a node that another arrow of D enters too, so that D, and
    with it phi, stays as it was."""
    down = root.down_sets[root.bits_index[w]]

    def in_down(a):
        return down >> a.src & 1

    arrow = next(
        a for a in root.arrows if in_down(a) and sum(map(in_down, root.into[a.dst])) > 1
    )
    arrows = [a for a in root.arrows if a != arrow]
    if tamper == "relabel":
        other = (arrow.label + 1) % len(root.cat.ind)
        arrows.append(HasseArrow(arrow.src, arrow.dst, other))
    return TorsLattice(root.cat, root.side, root.ambient, root.node_bits, tuple(arrows))


@pytest.mark.parametrize(
    "tamper, message",
    [
        ("relabel", "label changed under psi"),
        ("drop", "phi is not a bijection on covering arrows"),
    ],
)
def test_the_arrow_check_from_the_gap_side_names_what_it_rejects(
    tamper, message, lat_of
):
    # the full interval of a2 against its own walk, where D is the whole
    # gap lattice, and a wide interval of a4 whose gap w is a proper
    # down-set of its root: an arrow of D relabelled is caught under psi,
    # one dropped by the count of the interval's internal arrows
    a2, a4 = lat_of("a2"), lat_of("a4")
    top = a4.bits_index[names_to_bits(a4.cat, "0001a", "0010a", "1000a", "0011a")]
    for lat, iv, proper in (
        (a2, a2.interval(a2.bottom_index, a2.top_index), False),
        (a4, a4.interval(a4.bottom_index, top), True),
    ):
        w = widelab.is_wide_interval(lat, iv)
        ((_, root),) = widelab.serre_roots(lat, [w])
        assert (w != root.ambient) == proper
        widelab._reduce_onto(lat, iv, w, root)
        with pytest.raises(TheoremViolation, match=message):
            widelab._reduce_onto(lat, iv, w, _with_one_arrow_changed(root, w, tamper))


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_psi_is_the_extension_product_over_the_bottom(name, cat_of, lat_of):
    # what the removed rebuild checked: psi(X) = gen(U | X) = star(U, X)
    cat, lat = cat_of(name), lat_of(name)
    nodes = oracles.node_sets(lat)
    for iv in lat.intervals:
        if widelab.is_wide_interval(lat, iv) is None:
            continue
        red = widelab.reduce_interval(lat, iv)
        u_mask, wlat = nodes[iv.bottom], red.wide_lattice
        assert sorted(red.psi) == list(range(len(wlat)))
        assert sorted(red.phi) == subcat.indices(lat.interval_bits(iv))
        for x, v in red.psi.items():
            x_mask = to_set(wlat.node_bits[x])
            assert red.phi[v] == x
            gen = lat.gen(subcat.bits(u_mask | x_mask))
            assert nodes[v] == to_set(gen)
            assert nodes[v] == oracles.star(cat, u_mask, x_mask)


def test_reduce_makes_no_star_entry_and_no_tors_gen_call(monkeypatch):
    # the wide intervals under ten random tops of a7: reduce_interval adds
    # joins to op_cache and nothing else (the Serre route below has built
    # the wide table, and a closure would add a filt entry), and the checks
    # after the verdict take no closure: _reduce_onto calls no
    # TorsLattice.gen.  The lattice is a fresh one, so no earlier test has
    # put those joins in its catalog's op_cache
    lat = build_lattice(torslat.from_json(A7_EXPORT.read_text()))
    cat = lat.cat
    tops = random.Random(0).sample(range(len(lat)), 10)
    wide = [
        lat.interval(b, t) for t in tops for b in widelab.wide_intervals_with_top(lat, t)
    ]
    state = {"in_reduce": False, "inside": 0, "outside": 0}
    gen, reduce_onto = TorsLattice.gen, widelab._reduce_onto

    def counting_gen(*args, **kwargs):
        state["inside" if state["in_reduce"] else "outside"] += 1
        return gen(*args, **kwargs)

    def flagged_reduce(*args, **kwargs):
        state["in_reduce"] = True
        try:
            return reduce_onto(*args, **kwargs)
        finally:
            state["in_reduce"] = False

    monkeypatch.setattr(TorsLattice, "gen", counting_gen)
    monkeypatch.setattr(widelab, "_reduce_onto", flagged_reduce)
    before = set(cat.op_cache)
    for iv in wide:
        widelab.reduce_interval(lat, iv)
    assert len(wide) > 10
    assert ("wide",) in before
    assert {key[0] for key in set(cat.op_cache) - before} == {"filt"}
    assert state["inside"] == 0


def test_reduce_needs_the_torsion_side(lat_of):
    flat = lat_of("a2", "torf")
    with pytest.raises(ValueError):
        widelab.reduce_interval(flat, _interval(flat, 0, 0))


def test_reduce_scans_the_perpendicular_once(monkeypatch, lat_of):
    # the gap of each reduced interval is read once, as the verdict of its
    # one bottom, so TorsLattice.gap is not called
    state = {"bottoms": [], "gap": 0}
    gap = TorsLattice.gap
    verdicts = widelab.wide_verdicts

    def counting_verdicts(lat, t, bottoms):
        state["bottoms"].append(len(bottoms))
        return verdicts(lat, t, bottoms)

    def counting_gap(*args, **kwargs):
        state["gap"] += 1
        return gap(*args, **kwargs)

    lat = lat_of("a4")
    wide = [
        iv for iv in lat.intervals if widelab.is_wide_interval(lat, iv) is not None
    ]
    monkeypatch.setattr(widelab, "wide_verdicts", counting_verdicts)
    monkeypatch.setattr(TorsLattice, "gap", counting_gap)
    per_call = []
    for iv in wide:
        state["bottoms"] = []
        widelab.reduce_interval(lat, iv)
        per_call.append(state["bottoms"])
    assert wide and per_call == [[1]] * len(wide)
    assert state["gap"] == 0


def test_reduce_interval_reads_no_order_bitsets_of_its_gap_lattice(lat_of):
    # the gap lattice is the whole of its walk, so no down-set is read
    lat = lat_of("a4")
    wide = [
        iv for iv in lat.intervals if widelab.is_wide_interval(lat, iv) is not None
    ]
    for iv in wide:
        wlat = widelab.reduce_interval(lat, iv).wide_lattice
        assert "down_sets" not in vars(wlat)


_SCALE = {"d4p3": SCALE_SPECS["d4p3"], "nak55": NAKAYAMA_5_5}
_SCALE_CATS = {}


def _oracle_lattice(name, side, lat_of):
    if name not in _SCALE:
        return lat_of(name, side)
    if name not in _SCALE_CATS:
        _SCALE_CATS[name] = torslat.build_catalog(parse_algebra_text(_SCALE[name]))
    return build_lattice(_SCALE_CATS[name], side=side)


def _wide_count_matching_the_oracle(lat):
    """The number of wide intervals, once every verdict matches the oracle."""
    assert [(iv.bottom, iv.top) for iv in lat.intervals] == (
        oracles.intervals_by_subsets(lat)
    )
    nodes = oracles.node_sets(lat)
    wide = 0
    for iv in lat.intervals:
        w = widelab.is_wide_interval(lat, iv)
        # the oracle reads the three verdicts apart; the verdict is one
        is_wide = w is not None
        assert (to_set(lat.gap(iv)), is_wide, is_wide, is_wide) == (
            oracles.is_wide_interval(lat, nodes, iv)
        )
        assert w in (None, lat.gap(iv))
        wide += is_wide
    return wide


@pytest.mark.parametrize("side", ["tors", "torf"])
@pytest.mark.parametrize("name", ["a2", "a4", "nak3", "d4p3", "nak55"])
def test_verdicts_match_the_mask_oracle(name, side, lat_of):
    lat = _oracle_lattice(name, side, lat_of)
    assert 0 < _wide_count_matching_the_oracle(lat) < len(lat.intervals)


@pytest.mark.parametrize("name", ["a4", "nak55"])
def test_relative_verdicts_match_the_mask_oracle(name, lat_of):
    # inside the largest proper wide subcategory
    cat = _oracle_lattice(name, "tors", lat_of).cat
    w = max(
        (m for m in widelab.enumerate_wide_subcats(cat) if m != cat.full_mask),
        key=lambda m: (m.bit_count(), subcat.indices(m)),
    )
    wlat = widelab.tors_of_wide(cat, w)
    assert len(wlat) > 5 and _wide_count_matching_the_oracle(wlat) > 0
    # the torsion-free side: its joins close over the rows of the whole
    # catalog, which stay inside W
    flat = build_lattice(cat, side="torf", within=w)
    assert len(flat) == len(wlat) and _wide_count_matching_the_oracle(flat) > 0


@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_reduction_maps_match_the_mask_oracle(name, lat_of):
    lat = lat_of(name)
    nodes = oracles.node_sets(lat)
    wide = [
        iv for iv in lat.intervals if widelab.is_wide_interval(lat, iv) is not None
    ]
    for iv in wide:
        red = widelab.reduce_interval(lat, iv)
        maps = oracles.reduction_maps(lat, nodes, iv, red.wide_lattice)
        assert (red.phi, red.psi) == maps
    assert len(wide) > len(lat)


# the walks that a lattice read off a down-set is checked against
_SERRE_SPECS = {
    "d4p3": SCALE_SPECS["d4p3"],
    "nak3p2": SCALE_SPECS["nak3p2"],
    "a5p2": A5_P2,
    "nak55": NAKAYAMA_5_5,
}


def _assert_same_lattice(got, want):
    assert got.ambient == want.ambient
    assert got.to_json() == want.to_json()
    assert [(a.src, a.dst, a.label) for a in got.arrows] == [
        (a.src, a.dst, a.label) for a in want.arrows
    ]


@pytest.mark.parametrize("name", verify_mod.CORPUS + tuple(_SERRE_SPECS))
def test_down_set_lattices_match_their_own_walks(name, cat_of):
    # tors W read off tors W*, for W* = filt(S | b) with S the simples of W
    # and b a brick orthogonal to them, and off each root serre_roots gives,
    # against the walk inside W
    if name in _SERRE_SPECS:
        cat = torslat.build_catalog(parse_algebra_text(_SERRE_SPECS[name]))
    else:
        cat = cat_of(name)
    walks = {}

    def walk(w):
        if w not in walks:
            walks[w] = build_lattice(cat, "tors", w)
        return walks[w]

    bricks = subcat.bits(i for i in range(len(cat.ind)) if cat.bricks[i])
    wides = widelab.enumerate_wide_subcats(cat)
    pairs = 0
    for w in wides:
        s = subcat.simples_of_wide(cat, w)
        for b in subcat.indices(bricks & ~s):
            if subcat.is_semibrick(cat, s | 1 << b):
                root = walk(subcat.filt(cat, s | 1 << b))
                assert w in root.bits_index and w != root.ambient
                _assert_same_lattice(oracles.down_set_lattice(root, w), walk(w))
                pairs += 1
    assert pairs > 0
    seen = []
    for w, root in widelab.serre_roots(build_lattice(cat), wides):
        seen.append(w)
        _assert_same_lattice(oracles.down_set_lattice(root, w), walk(w))
    assert sorted(seen) == sorted(wides)


def test_a_gap_that_is_no_node_of_its_root_fails(a2cat, a2lat):
    # the wide interval [{10a}, {10a,11a}] against the whole of a2 as root,
    # where its gap {11a} is no torsion class
    n = names_to_bits
    u, t = a2lat.bits_index[n(a2cat, "10a")], a2lat.bits_index[n(a2cat, "10a", "11a")]
    w = n(a2cat, "11a")
    assert a2lat.gap(a2lat.interval(u, t)) == w
    with pytest.raises(TheoremViolation, match="is not a torsion class of"):
        widelab._reduce_onto(a2lat, a2lat.interval(u, t), w, a2lat)


def test_a_failed_root_walk_walks_its_gaps_on_their_own(monkeypatch, lat_of):
    # the walk of the a4 root with the most gaps fails, and so does the walk
    # of one gap under it: those two gaps get the failures, the others of
    # the group their own walks
    lat = lat_of("a4")
    cat = lat.cat
    wides = widelab.enumerate_wide_subcats(cat)
    bricks = subcat.bits(i for i in range(len(cat.ind)) if cat.bricks[i])
    groups = {}
    for w in wides:
        sb = widelab._grown_semibrick(cat, subcat.simples_of_wide(cat, w), bricks)
        groups.setdefault(subcat.filt(cat, sb), []).append(w)
    root = max(
        (r for r in groups if r != cat.full_mask), key=lambda r: len(groups[r])
    )
    victim = max(
        (w for w in groups[root] if w != root),
        key=lambda w: (w.bit_count(), subcat.indices(w)),
    )
    assert len(groups[root]) > 3
    walked = []
    tors_of_wide = widelab.tors_of_wide

    def failing(cat, w):
        walked.append(w)
        if w in (root, victim):
            raise TheoremViolation(f"walk of {cat.mask_name(w)}")
        return tors_of_wide(cat, w)

    monkeypatch.setattr(widelab, "tors_of_wide", failing)
    got = dict(widelab.serre_roots(lat, wides))
    assert sorted(got) == sorted(wides)
    # the root is a gap of its own group, so its walk fails twice
    for w in (root, victim):
        assert str(got[w]) == f"walk of {cat.mask_name(w)}"
    assert walked.count(root) == 2
    assert set(groups[root]) <= set(walked)
    for w in wides:
        if w not in (root, victim):
            got_lattice = oracles.down_set_lattice(got[w], w)
            _assert_same_lattice(got_lattice, build_lattice(cat, "tors", w))
        if w in groups[root] and w not in (root, victim):
            assert got[w].ambient == w


def test_left_wide_per_node(a2cat, a2lat):
    n = names_to_bits
    expected = {
        0: 0,
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
    n = names_to_bits
    u = widelab.serre_mutation(a2lat, 4, n(a2cat, "01a"))
    assert a2lat.node_bits[u] == n(a2cat, "10a", "11a")
    u = widelab.serre_mutation(a2lat, 4, n(a2cat, "10a"))
    assert a2lat.node_bits[u] == n(a2cat, "01a")
    u = widelab.serre_mutation(a2lat, 4, a2cat.full_mask)
    assert u == a2lat.bottom_index
    u = widelab.serre_mutation(a2lat, 4, 0)
    assert u == a2lat.top_index


def test_serre_mutation_rejects_non_serre(a2cat, a2lat):
    with pytest.raises(NotSerre):
        widelab.serre_mutation(a2lat, 4, names_to_bits(a2cat, "11a"))
    with pytest.raises(NotSerre):
        widelab.serre_mutation(a2lat, 3, names_to_bits(a2cat, "10a"))


@pytest.mark.parametrize("name", ["a4", "nak3"])
def test_serre_mutation_rebuilds_the_top_as_the_extension_product(name, cat_of, lat_of):
    # the extension product is checked by a scan that leaves no op_cache
    # entry beside the bottom's own memo
    cat, lat = cat_of(name), lat_of(name)
    pieces = 0
    for t in range(len(lat)):
        for w in subcat.serre_list(cat, widelab.left_wide(lat, t)):
            before = set(cat.op_cache)
            u = widelab.serre_mutation(lat, t, w)
            assert set(cat.op_cache) - before <= {
                ("mutation", "tors", cat.full_mask, lat.node_bits[t], w)
            }
            star = oracles.star(cat, to_set(lat.node_bits[u]), to_set(w))
            assert star == to_set(lat.node_bits[t])
            pieces += 1
    assert pieces > len(lat)


def test_serre_mutation_rejects_a_piece_outside_the_top(a2cat, a2lat, monkeypatch):
    # a left wide subcategory that leaves the top {10a,11a}: its whole
    # Serre piece is no subcategory of the top
    monkeypatch.setattr(widelab, "left_wide", lambda lat, node: a2cat.full_mask)
    with pytest.raises(TheoremViolation, match="is not inside"):
        widelab.serre_mutation(a2lat, 3, a2cat.full_mask)


def test_serre_mutation_rejects_a_top_that_is_no_extension_product():
    # a2's class {10a,11a} grown by 01a after construction, on a catalog of
    # its own (the grown mask would key the top's memos): the piece {11a}
    # has the bottom {10a}, and 01a is no extension of a part of {11a} by a
    # part of {10a}
    cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a2"))
    lat = build_lattice(cat)
    t = lat.bits_index[names_to_bits(cat, "10a", "11a")]
    nodes = list(lat.node_bits)
    nodes[t] = cat.full_mask
    lat.node_bits = tuple(nodes)
    with pytest.raises(TheoremViolation, match=r"over \{10a\} misses the top"):
        widelab.serre_mutation(lat, t, names_to_bits(cat, "11a"))


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
            # the three readings and the canonical join are checked inside
            assert widelab.is_widely_generated(lat, t) is True


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("a5p2", "d4p3", "nak55"))
def test_covers_reading_matches_the_pair_scan(name, lat_of):
    # mask_down_sets against a subset test on every pair of node masks, and
    # the covers reading of widely generated against the pair scan
    if name in _SERRE_SPECS:
        lat = build_lattice(torslat.build_catalog(parse_algebra_text(_SERRE_SPECS[name])))
    else:
        lat = lat_of(name)
    nb = lat.node_bits
    for t, t_mask in enumerate(nb):
        below = subcat.bits(i for i, u in enumerate(nb) if u & t_mask == u)
        assert lat.mask_down_sets[t] == below
        held = widelab.is_widely_generated(lat, t)
        assert held == oracles.covers_by_pairs(lat, t)


def test_semibrick_enumeration(a2cat):
    sbs = widelab.enumerate_semibricks(a2cat)
    assert len(sbs) == 5
    assert 0 in sbs
    assert subcat.bits(a2cat.simple_indices) in sbs
    assert all(subcat.is_semibrick(a2cat, s) for s in sbs)


def test_wide_subcat_enumeration(a2cat):
    wides = widelab.enumerate_wide_subcats(a2cat)
    assert len(wides) == 5
    n = names_to_bits
    assert wides == [
        0,
        n(a2cat, "01a"),
        n(a2cat, "10a"),
        n(a2cat, "11a"),
        a2cat.full_mask,
    ]


def roundtrip(cat, lat):
    """(W, node of T(W)) per wide subcategory W, asserting L(T(W)) = W."""
    pairs = []
    for w in widelab.enumerate_wide_subcats(cat):
        node = lat.bits_index.get(lat.gen(w))
        assert node is not None, f"{cat.mask_name(w)} generated a non-torsion-class"
        assert widelab.left_wide(lat, node) == w
        pairs.append((w, node))
    return pairs


def test_roundtrip_on_pentagon(a2cat, a2lat):
    pairs = roundtrip(a2cat, a2lat)
    assert len(pairs) == 5
    w_to_node = dict(pairs)
    assert w_to_node[names_to_bits(a2cat, "11a")] == 3
    assert w_to_node[a2cat.full_mask] == 4


def test_roundtrip_across_corpus(cat_of, lat_of):
    for name in ("a3s", "ppa2", "nak3"):
        pairs = roundtrip(cat_of(name), lat_of(name))
        assert len(pairs) == len(widelab.enumerate_wide_subcats(cat_of(name)))
