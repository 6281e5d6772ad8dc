import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import torslat
from conftest import names_to_bits, names_to_mask
from oracles import to_set
from torslat import subcat, widelab
from torslat import verify as verify_mod
from torslat.errors import NotWide, TheoremViolation
from torslat.modrep import direct_sum

masks_a3 = st.integers(0, (1 << 6) - 1)


def test_fac_and_sub_on_a2(a2cat):
    p1 = names_to_bits(a2cat, "11a")
    assert subcat.fac(a2cat, p1) == names_to_bits(a2cat, "11a", "10a")
    assert subcat.sub_cl(a2cat, p1) == names_to_bits(a2cat, "11a", "01a")


def test_filt_builds_everything_from_simples(a2cat):
    simples = subcat.bits(a2cat.simple_indices)
    assert subcat.filt(a2cat, simples) == a2cat.full_mask
    assert subcat.filt(a2cat, 0) == 0


def test_tors_gen_examples(a2cat, a2lat):
    # the lattice's closure against the reference filt of fac
    s2 = names_to_bits(a2cat, "01a")
    p1 = names_to_bits(a2cat, "11a")
    assert a2lat.gen(s2) == s2
    assert a2lat.gen(p1) == names_to_bits(a2cat, "11a", "10a")
    for b in (s2, p1):
        ref = oracles.filt(a2cat, oracles.fac(a2cat, to_set(b)))
        assert to_set(a2lat.gen(b)) == ref


def test_perp_right_on_a2(a2cat, a2lat):
    # the lattice's perpendicular of a node against the hom_dim reference
    s1 = names_to_bits(a2cat, "10a")
    node = a2lat.bits_index[s1]
    assert a2lat.perp(node) == names_to_bits(a2cat, "01a", "11a")
    assert a2lat.perp(a2lat.top_index) == 0
    for i, b in enumerate(a2lat.node_bits):
        assert to_set(a2lat.perp(i)) == oracles.perp_right(a2cat, to_set(b))
    assert subcat.perp_left(a2cat, 0) == a2cat.full_mask


def test_star_endpoint_cases(a2cat):
    p1 = names_to_mask(a2cat, "11a")
    assert oracles.star(a2cat, frozenset(), p1) == p1
    assert oracles.star(a2cat, p1, frozenset()) == p1
    # S2 under P1 assembles the whole category
    s2 = names_to_mask(a2cat, "01a")
    s1 = names_to_mask(a2cat, "10a")
    assert oracles.star(a2cat, s2, s1) == to_set(a2cat.full_mask)


def test_torsion_classes_of_a2_by_hand(a2cat):
    expected = {
        frozenset(),
        names_to_mask(a2cat, "01a"),
        names_to_mask(a2cat, "10a"),
        names_to_mask(a2cat, "10a", "11a"),
        to_set(a2cat.full_mask),
    }
    got = {
        m
        for m in (
            frozenset(s)
            for s in _powerset(range(3))
        )
        if oracles.is_torsion_class(a2cat, m)
    }
    assert got == expected


def _powerset(items):
    items = list(items)
    for bits in range(1 << len(items)):
        yield [x for i, x in enumerate(items) if bits >> i & 1]


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_torsion_classes_match_definitional_filtering(name, cat_of):
    """Closure-table classes equal brute subset filtering on raw modules."""
    cat = cat_of(name)
    brute = oracles.tors_masks_by_filtering(cat)
    mine = {
        m
        for m in (frozenset(s) for s in _powerset(range(len(cat.ind))))
        if oracles.is_torsion_class(cat, m)
    }
    assert mine == brute
    assert len(brute) == oracles.TORS_COUNTS[name]


@pytest.mark.parametrize("name", ("a2", "a3s", "ppa2", "nak3"))
def test_torsion_free_classes_match_definitional_filtering(name, cat_of):
    cat = cat_of(name)
    brute = oracles.torf_masks_by_filtering(cat)
    mine = {
        m
        for m in (frozenset(s) for s in _powerset(range(len(cat.ind))))
        if oracles.is_torsion_free_class(cat, m)
    }
    assert mine == brute
    # anti-isomorphic to the torsion side, so same count
    assert len(brute) == oracles.TORS_COUNTS[name]


@given(masks_a3)
def test_closure_operators_are_idempotent(mask):
    # masks are int bitsets: bit i for catalog index i
    cat = _a3()
    assert subcat.fac(cat, subcat.fac(cat, mask)) == subcat.fac(cat, mask)
    assert subcat.filt(cat, subcat.filt(cat, mask)) == subcat.filt(cat, mask)
    assert subcat.sub_cl(cat, subcat.sub_cl(cat, mask)) == subcat.sub_cl(cat, mask)


_A3 = []


def _a3():
    return _a3_lattices()[0]


def _a3_lattices():
    """The a3 catalog with its torsion and torsion-free lattices."""
    if not _A3:
        cat = torslat.build_catalog(verify_mod.load_corpus_algebra("a3"))
        _A3.append(cat)
        _A3.extend(torslat.build_lattice(cat, side) for side in ("tors", "torf"))
    return _A3


@given(masks_a3)
def test_tors_gen_lands_on_torsion_classes(mask):
    cat, lat, flat = _a3_lattices()
    t = lat.gen(mask)
    assert mask & t == mask
    assert oracles.is_torsion_class(cat, to_set(t))
    assert to_set(t) == oracles.filt(cat, oracles.fac(cat, to_set(mask)))
    f = flat.gen(mask)
    assert oracles.is_torsion_free_class(cat, to_set(f))
    assert to_set(f) == oracles.filt(cat, oracles.sub_cl(cat, to_set(mask)))


@given(masks_a3)
def test_perp_antitone_and_closed(mask):
    # the perpendicular of the mask is that of the torsion class it
    # generates, a lattice node, and a torsion-free class
    cat, lat, _ = _a3_lattices()
    f = oracles.perp_right(cat, to_set(mask))
    assert oracles.is_torsion_free_class(cat, f)
    assert to_set(lat.perp(lat.bits_index[lat.gen(mask)])) == f


@given(masks_a3, masks_a3)
def test_star_contains_both_sides(left, right):
    cat = _a3()
    left, right = to_set(left), to_set(right)
    got = oracles.star(cat, left, right)
    assert left <= got and right <= got


def test_torsion_pair_witness(a2cat, a2lat):
    # (T, T^perp) is a torsion pair: T is the left perpendicular of T^perp
    t = names_to_bits(a2cat, "10a", "11a")
    free = a2lat.perp(a2lat.bits_index[t])
    assert to_set(free) == oracles.perp_right(a2cat, to_set(t))
    assert subcat.perp_left(a2cat, free) == t
    # (T, T) is not: T^perp differs from T
    assert free != t


def test_semibrick_detection(a2cat):
    assert subcat.is_semibrick(a2cat, 0)
    assert subcat.is_semibrick(a2cat, subcat.bits(a2cat.simple_indices))
    # S2 maps into P1, so the pair is not Hom-orthogonal
    assert not subcat.is_semibrick(a2cat, names_to_bits(a2cat, "01a", "11a"))


def test_wide_detection_on_a2(a2cat):
    table = subcat.wide_table(a2cat)
    assert 0 in table
    assert a2cat.full_mask in table
    assert names_to_bits(a2cat, "11a") in table
    assert names_to_bits(a2cat, "10a", "11a") not in table
    assert subcat.simples_of_wide(a2cat, a2cat.full_mask) == subcat.bits(
        a2cat.simple_indices
    )
    with pytest.raises(NotWide):
        subcat.simples_of_wide(a2cat, names_to_bits(a2cat, "10a", "11a"))


def test_serre_list_of_full_category(cat_of):
    cat = cat_of("a3")
    serres = subcat.serre_list(cat, cat.full_mask)
    assert len(serres) == 8
    assert serres[0] == 0
    assert serres[-1] == cat.full_mask
    for w in serres:
        assert w in subcat.wide_table(cat)
        # Serre pieces are closed under subfactors, not just extensions
        assert subcat.fac(cat, w) == w
        assert subcat.sub_cl(cat, w) == w


def test_serre_list_sizes_are_powers_of_two(cat_of):
    for name in ("a2", "ppa2", "nak3"):
        cat = cat_of(name)
        assert len(subcat.serre_list(cat, cat.full_mask)) == 2 ** len(
            cat.simple_indices
        )


def test_canonical_sequence_against_submodule_scan(cat_of, lat_of):
    for name in ("a2", "ppa2"):
        cat = cat_of(name)
        lat = lat_of(name)
        probes = list(cat.ind) + [
            direct_sum(cat.ind[0], cat.ind[-1]),
            direct_sum(cat.ind[-1], cat.ind[-1]),
        ]
        for t_mask in oracles.node_sets(lat):
            for x in probes:
                tpart, fpart = oracles.canonical_sequence(cat, x, t_mask)
                want_dims, _ = oracles.submodule_sum_torsion_part(cat, x, t_mask)
                assert tpart.dims == want_dims
                assert tuple(
                    a + b for a, b in zip(tpart.dims, fpart.dims)
                ) == x.dims
                assert set(oracles.decompose_indices(cat, tpart)) <= t_mask
                for i in sorted(t_mask):
                    assert oracles.brute_hom_dim(cat.ind[i], fpart) == 0


def test_canonical_sequence_requires_torsion_class(a2cat):
    with pytest.raises(ValueError):
        oracles.canonical_sequence(
            a2cat, a2cat.ind[2], names_to_mask(a2cat, "11a")
        )


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_set_algebra_operators_match_oracles(name, cat_of, lat_of):
    cat = cat_of(name)
    nodes = sorted(
        set(oracles.node_sets(lat_of(name, "tors")))
        | set(oracles.node_sets(lat_of(name, "torf"))),
        key=lambda m: (len(m), sorted(m)),
    )
    # inside every wide subcategory W, the whole category first: the
    # perpendiculars, fac and sub_cl cut down to W by hand are those inside
    # W, and filt, which needs no cut, is the closure inside W
    withins = [to_set(cat.full_mask)]
    withins += [to_set(w) for w in widelab.enumerate_wide_subcats(cat)]
    for m in nodes:
        for within in withins:
            x = m & within
            xb = subcat.bits(x)
            for op in ("perp_left", "fac", "sub_cl"):
                got = to_set(getattr(subcat, op)(cat, xb)) & within
                assert got == getattr(oracles, op)(cat, x, within), (op, x, within)
            got = to_set(subcat.filt(cat, xb))
            assert got == oracles.filt(cat, x, within), ("filt", x, within)


def test_serre_list_is_computed_once(cat_of):
    cat = cat_of("a3")
    first = subcat.serre_list(cat, cat.full_mask)
    assert isinstance(first, tuple)
    assert subcat.serre_list(cat, cat.full_mask) is first


def test_verify_keeps_one_serre_entry_per_left_wide_mask(monkeypatch):
    built, calls = [], []
    build_catalog, serre_list = verify_mod.build_catalog, subcat.serre_list

    def capturing_build(*args, **kwargs):
        built.append(build_catalog(*args, **kwargs))
        return built[-1]

    def counting_serre_list(cat, members):
        calls.append(members)
        return serre_list(cat, members)

    monkeypatch.setattr(verify_mod, "build_catalog", capturing_build)
    monkeypatch.setattr(subcat, "serre_list", counting_serre_list)
    results = verify_mod.run_verify([("a4", verify_mod.load_corpus_algebra("a4"))])
    assert all(r.ok for r in results)
    (cat,) = built
    lat = torslat.build_lattice(cat)
    left_wide = {widelab.left_wide(lat, t) for t in range(len(lat))}
    serre_keys = [k for k in cat.op_cache if k[0] == "serre"]
    assert len(serre_keys) == len(left_wide)
    assert {k[1] for k in serre_keys} == left_wide
    assert set(calls) == left_wide
    assert len(calls) > len(serre_keys)


def test_verify_keeps_one_filt_entry_per_mask(monkeypatch):
    # relative and absolute closures of one mask share an entry, and no
    # per-ambient rows are cached
    built = []
    build_catalog = verify_mod.build_catalog

    def capturing_build(*args, **kwargs):
        built.append(build_catalog(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify_mod, "build_catalog", capturing_build)
    results = verify_mod.run_verify([("a4", verify_mod.load_corpus_algebra("a4"))])
    assert all(r.ok for r in results)
    (cat,) = built
    assert not [k for k in cat.op_cache if k[0] == "rows"]
    filts = [k for k in cat.op_cache if k[0] == "filt"]
    assert filts
    for key in filts:
        assert len(key) == 2 and isinstance(key[1], int)
        assert to_set(cat.op_cache[key]) == oracles.filt(cat, to_set(key[1]))


# sha256 of the a3 report when the semibrick search fails: every interval
# keeps its own failed verdict (68 each of wide-detect, lower-filt and
# wide-serre), none turns into one (setup) failure
FAILED_SEARCH_A3_SHA256 = (
    "b5a6d898fd07d513bb105091140dc1096d2650ee6a44f02025b1fbdba24877b3"
)


def test_a_failed_semibrick_search_runs_once(monkeypatch):
    # the ("wide",) entry keeps the search's error, and every read raises
    # it: an a3 verify runs the failing search once and reports as a verify
    # that runs it again on every read of wideness
    runs = []

    def failing(cat):
        runs.append(cat)
        raise TheoremViolation("semibricks S1 and S2 close to one mask")

    monkeypatch.setattr(subcat, "_semibrick_search", failing)
    algebra = [("a3", verify_mod.load_corpus_algebra("a3"))]
    kept, failures = verify_mod.format_report(verify_mod.run_verify(algebra))
    (cat,) = runs
    assert hashlib.sha256(kept.encode()).hexdigest() == FAILED_SEARCH_A3_SHA256
    assert failures == 236
    assert kept.endswith("checks run: 346\nfailures: 236\n")
    entry = cat.op_cache[("wide",)]
    assert isinstance(entry, TheoremViolation)
    with pytest.raises(TheoremViolation) as first:
        subcat.wide_table(cat)
    with pytest.raises(TheoremViolation) as again:
        subcat.simples_of_wide(cat, 0)
    assert first.value is again.value is entry
    assert len(runs) == 1

    monkeypatch.setattr(subcat, "wide_table", failing)
    rerun, _ = verify_mod.format_report(verify_mod.run_verify(algebra))
    assert len(runs) > 2
    assert rerun == kept
