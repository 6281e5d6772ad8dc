import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import torslat
from conftest import names_to_mask
from torslat import subcat, widelab
from torslat import verify as verify_mod
from torslat.errors import NotWide
from torslat.modrep import direct_sum

ALL = frozenset
masks_a3 = st.frozensets(st.integers(0, 5))


def test_fac_and_sub_on_a2(a2cat):
    p1 = names_to_mask(a2cat, "11a")
    assert subcat.fac(a2cat, p1) == names_to_mask(a2cat, "11a", "10a")
    assert subcat.sub_cl(a2cat, p1) == names_to_mask(a2cat, "11a", "01a")


def test_filt_builds_everything_from_simples(a2cat):
    simples = frozenset(a2cat.simple_indices)
    assert subcat.filt(a2cat, simples) == a2cat.full_mask
    assert subcat.filt(a2cat, frozenset()) == frozenset()


def test_tors_gen_examples(a2cat):
    s2 = names_to_mask(a2cat, "01a")
    p1 = names_to_mask(a2cat, "11a")
    assert subcat.tors_gen(a2cat, s2) == s2
    assert subcat.tors_gen(a2cat, p1) == names_to_mask(a2cat, "11a", "10a")


def test_perp_right_on_a2(a2cat):
    s1 = names_to_mask(a2cat, "10a")
    assert subcat.perp_right(a2cat, s1) == names_to_mask(a2cat, "01a", "11a")
    assert subcat.perp_right(a2cat, a2cat.full_mask) == frozenset()
    assert subcat.perp_left(a2cat, frozenset()) == a2cat.full_mask


def test_star_endpoint_cases(a2cat):
    p1 = names_to_mask(a2cat, "11a")
    assert oracles.star(a2cat, frozenset(), p1) == p1
    assert oracles.star(a2cat, p1, frozenset()) == p1
    # S2 under P1 assembles the whole category
    s2 = names_to_mask(a2cat, "01a")
    s1 = names_to_mask(a2cat, "10a")
    assert oracles.star(a2cat, s2, s1) == a2cat.full_mask


def test_torsion_classes_of_a2_by_hand(a2cat):
    expected = {
        frozenset(),
        names_to_mask(a2cat, "01a"),
        names_to_mask(a2cat, "10a"),
        names_to_mask(a2cat, "10a", "11a"),
        a2cat.full_mask,
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
    cat = _a3()
    assert subcat.fac(cat, subcat.fac(cat, mask)) == subcat.fac(cat, mask)
    assert subcat.filt(cat, subcat.filt(cat, mask)) == subcat.filt(cat, mask)
    assert subcat.sub_cl(cat, subcat.sub_cl(cat, mask)) == subcat.sub_cl(cat, mask)


_A3 = []


def _a3():
    if not _A3:
        import torslat

        _A3.append(torslat.build_catalog(verify_mod.load_corpus_algebra("a3")))
    return _A3[0]


@given(masks_a3)
def test_tors_gen_lands_on_torsion_classes(mask):
    cat = _a3()
    t = subcat.tors_gen(cat, mask)
    assert mask <= t
    assert oracles.is_torsion_class(cat, t)
    f = subcat.torf_gen(cat, mask)
    assert oracles.is_torsion_free_class(cat, f)


@given(masks_a3)
def test_perp_antitone_and_closed(mask):
    cat = _a3()
    f = subcat.perp_right(cat, mask)
    assert oracles.is_torsion_free_class(cat, f)
    assert subcat.perp_right(cat, subcat.tors_gen(cat, mask)) == f


@given(masks_a3, masks_a3)
def test_star_contains_both_sides(left, right):
    cat = _a3()
    got = oracles.star(cat, left, right)
    assert left <= got and right <= got


def test_torsion_pair_witness(a2cat):
    # (T, T^perp) is a torsion pair: T is the left perpendicular of T^perp
    t = names_to_mask(a2cat, "10a", "11a")
    free = subcat.perp_right(a2cat, t)
    assert subcat.perp_left(a2cat, free) == t
    # (T, T) is not: T^perp differs from T
    assert free != t


def test_semibrick_detection(a2cat):
    assert subcat.is_semibrick(a2cat, frozenset())
    assert subcat.is_semibrick(a2cat, frozenset(a2cat.simple_indices))
    # S2 maps into P1, so the pair is not Hom-orthogonal
    assert not subcat.is_semibrick(a2cat, names_to_mask(a2cat, "01a", "11a"))


def test_wide_detection_on_a2(a2cat):
    assert subcat.is_wide(a2cat, frozenset())
    assert subcat.is_wide(a2cat, a2cat.full_mask)
    assert subcat.is_wide(a2cat, names_to_mask(a2cat, "11a"))
    assert not subcat.is_wide(a2cat, names_to_mask(a2cat, "10a", "11a"))
    assert subcat.simples_of_wide(a2cat, a2cat.full_mask) == frozenset(
        a2cat.simple_indices
    )
    with pytest.raises(NotWide):
        subcat.simples_of_wide(a2cat, names_to_mask(a2cat, "10a", "11a"))


def test_serre_list_of_full_category(cat_of):
    cat = cat_of("a3")
    serres = subcat.serre_list(cat, cat.full_mask)
    assert len(serres) == 8
    assert serres[0] == frozenset()
    assert serres[-1] == cat.full_mask
    for w in serres:
        assert subcat.is_wide(cat, w)
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
        for t_mask in lat.nodes:
            for x in probes:
                tpart, fpart = oracles.canonical_sequence(cat, x, t_mask)
                want_dims, _ = oracles.submodule_sum_torsion_part(cat, x, t_mask)
                assert tpart.dims == want_dims
                assert tuple(
                    a + b for a, b in zip(tpart.dims, fpart.dims)
                ) == x.dims
                assert set(cat.decompose_indices(tpart)) <= t_mask
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
        set(lat_of(name, "tors").nodes) | set(lat_of(name, "torf").nodes),
        key=lambda m: (len(m), sorted(m)),
    )
    # inside every wide subcategory W: fac and sub_cl are the closures cut
    # down to W, and filt, which takes no W, is the closure inside W
    withins = [None] + widelab.enumerate_wide_subcats(cat)
    for m in nodes:
        for within in withins:
            x = m if within is None else m & within
            for op in ("perp_right", "perp_left", "fac", "sub_cl"):
                got = getattr(subcat, op)(cat, x, within)
                assert got == getattr(oracles, op)(cat, x, within), (op, x, within)
            got = subcat.filt(cat, x)
            assert got == oracles.filt(cat, x, within), ("filt", x, within)
        assert subcat.candidate_simples(cat, m) == oracles.candidate_simples(cat, m)


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
        assert len(key) == 2 and isinstance(key[1], frozenset)
        assert cat.op_cache[key] == oracles.filt(cat, key[1])
