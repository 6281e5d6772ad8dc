import json
from collections import Counter

import pytest

import oracles
from torslat import modrep, widelab
from torslat import verify as verify_mod
from torslat.catalog import (
    build_catalog,
    from_json,
    to_json,
)
from torslat.config import DEFAULT_CONFIG
from torslat.errors import NotClosed
from torslat.lattice import build_lattice
from torslat.quivalg import (
    Arrow,
    Quiver,
    build_algebra,
    parse_algebra_text,
    projective_module,
)


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_indecomposable_counts(name, cat_of):
    assert len(cat_of(name).ind) == oracles.IND_COUNTS[name]


def test_a2_canonical_names(a2cat):
    assert a2cat.names == ("01a", "10a", "11a")
    assert a2cat.simple_indices == (0, 1)


def test_a3_canonical_order(cat_of):
    cat = cat_of("a3")
    dims = [m.dims for m in cat.ind]
    assert dims == sorted(dims, key=lambda d: (sum(d), d))
    assert cat.names == ("001a", "010a", "100a", "011a", "110a", "111a")


def test_equal_dims_get_distinct_letters(cat_of):
    cat = cat_of("ppa2")
    assert cat.names == ("01a", "10a", "11a", "11b")
    assert len(set(cat.names)) == 4


def test_bricks_everywhere_in_corpus(cat_of):
    # every indecomposable of these representation-finite algebras is a brick
    for name in verify_mod.CORPUS:
        assert all(cat_of(name).bricks)


def test_hom_nonzero_agrees_with_dims(cat_of):
    cat = cat_of("a3s")
    n = len(cat.ind)
    for i in range(n):
        for j in range(n):
            assert (j in cat.maps_out[i]) == (cat.hom_dim[i][j] > 0)
            assert (i in cat.maps_in[j]) == (cat.hom_dim[i][j] > 0)
    assert cat.full_mask == frozenset(range(n))


def test_subfactor_pairs_are_length_additive(cat_of):
    cat = cat_of("a3")
    for j, pairs in enumerate(cat.subfactors):
        total = cat.ind[j].total_dim
        for u_parts, q_parts in pairs:
            got = sum(cat.ind[i].total_dim for i in u_parts) + sum(
                cat.ind[i].total_dim for i in q_parts
            )
            assert got == total


def test_subfactors_include_trivial_splittings(cat_of):
    cat = cat_of("a4")
    for j in range(len(cat.ind)):
        pairs = set(cat.subfactors[j])
        assert ((), (j,)) in pairs
        assert ((j,), ()) in pairs


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("a7p2",))
def test_every_row_has_both_trivial_pairs(name, cat_of, a7lat):
    # reduce_interval counts a member of U or of X in star(U, X) through
    # these two pairs without scanning its row
    cat = a7lat.cat if name == "a7p2" else cat_of(name)
    for j, pairs in enumerate(cat.subfactor_sets):
        assert (frozenset((j,)), frozenset()) in pairs
        assert (frozenset(), frozenset((j,))) in pairs


def test_quotients_derived_from_subfactors(cat_of):
    cat = cat_of("nak3")
    for j in range(len(cat.ind)):
        assert cat.subfactor_sets[j] == tuple(
            (frozenset(u), frozenset(q)) for u, q in cat.subfactors[j]
        )


def test_decompose_indices_sorted(a2cat):
    from torslat.modrep import direct_sum

    big = direct_sum(a2cat.ind[2], a2cat.ind[0], a2cat.ind[2])
    assert a2cat.decompose_indices(big) == (0, 2, 2)


def test_mask_name(a2cat):
    assert a2cat.mask_name(frozenset()) == "{}"
    assert a2cat.mask_name(frozenset((2, 0))) == "{01a,11a}"


def test_json_round_trip_is_byte_exact(cat_of):
    for name in ("a2", "ppa2", "nak3"):
        cat = cat_of(name)
        text = to_json(cat)
        again = from_json(text)
        assert to_json(again) == text
        assert again.names == cat.names
        assert again.hom_dim == cat.hom_dim
        assert again.bricks == cat.bricks
        assert again.subfactors == cat.subfactors


def _rows(cat):
    return (
        cat.maps_out,
        cat.maps_in,
        cat.subfactor_sets,
        cat.full_mask,
        cat.quotient_rows,
        cat.sub_rows,
        cat.extension_rows,
    )


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("d4p3",))
def test_json_round_trip_keeps_rows(name, cat_of):
    if name == "d4p3":
        cat = build_catalog(parse_algebra_text(CLOSED_FORM_SPECS["d4"].format(p=3)))
    else:
        cat = cat_of(name)
    assert _rows(from_json(to_json(cat))) == _rows(cat)
    for j, pairs in enumerate(cat.subfactors):
        assert cat.quotient_rows[j] == {k for _, q in pairs for k in q}
        assert cat.sub_rows[j] == {k for u, _ in pairs for k in u}
        # one int bitset per distinct u | q, bit k for catalog index k
        assert set(cat.extension_rows[j]) == {
            sum(1 << k for k in set(u) | set(q)) for u, q in pairs if u and q
        }
        assert len(set(cat.extension_rows[j])) == len(cat.extension_rows[j])


def test_tables_must_match_the_members(a2cat):
    again = from_json(to_json(a2cat))
    with pytest.raises(ValueError):
        again.set_tables(a2cat.hom_dim[:2], a2cat.bricks, a2cat.subfactors)
    with pytest.raises(ValueError):
        again.set_tables(
            tuple(row[:2] for row in a2cat.hom_dim), a2cat.bricks, a2cat.subfactors
        )


def test_json_is_canonical(cat_of):
    text = to_json(cat_of("a2"))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_rebuild_is_deterministic():
    a = build_catalog(verify_mod.load_corpus_algebra("a3s"))
    b = build_catalog(verify_mod.load_corpus_algebra("a3s"))
    assert to_json(a) == to_json(b)


def test_representation_infinite_hits_closure_error():
    q = Quiver(2, (Arrow("a", 0, 1), Arrow("b", 0, 1)))
    alg = build_algebra(q, (), 2)
    with pytest.raises(NotClosed):
        build_catalog(alg, DEFAULT_CONFIG.with_overrides(dim_bound=4))


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_closure_scans_each_input_once(name, monkeypatch):
    ext_calls, sub_calls = Counter(), Counter()
    all_extensions, submodules = modrep.all_extensions, modrep.submodules

    def counting_extensions(q_mod, u_mod, config=None):
        ext_calls[id(q_mod), id(u_mod)] += 1
        return all_extensions(q_mod, u_mod, config)

    def counting_submodules(x, config=None):
        sub_calls[id(x)] += 1
        return submodules(x, config)

    monkeypatch.setattr(modrep, "all_extensions", counting_extensions)
    monkeypatch.setattr(modrep, "submodules", counting_submodules)
    cat = build_catalog(verify_mod.load_corpus_algebra(name))
    members = [id(m) for m in cat.ind]
    assert ext_calls == Counter({(q, u): 1 for q in members for u in members})
    assert sub_calls == Counter({x: 1 for x in members})
    assert not hasattr(cat, "_subquotients")


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_closure_decomposes_each_module_once(name, monkeypatch):
    # top-level calls only: decompose recurses through the module attribute
    calls, depth = Counter(), [0]
    decompose = modrep.decompose

    def counting_decompose(x, config=None):
        if not depth[0]:
            calls[x.key()] += 1
        depth[0] += 1
        try:
            return decompose(x, config)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(modrep, "decompose", counting_decompose)
    # the fixpoint and build_tables' subfactor decompositions together
    build_catalog(verify_mod.load_corpus_algebra(name))
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_extensions_match_cocycle_oracle(name, cat_of):
    cat = cat_of(name)
    for u in cat.ind:
        for q in cat.ind:
            fast = {cat.decompose_indices(z) for z in modrep.all_extensions(q, u)}
            # element 0 of the oracle is the split middle
            slow = {
                cat.decompose_indices(z)
                for z in oracles.extensions_by_cocycles(q, u)[1:]
            }
            assert fast == slow


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_local_ring_iso_agrees_with_search(name, cat_of):
    cat = cat_of(name)
    pieces = list(cat.ind)
    for x in cat.ind:
        for sub, inc in modrep.submodules(x):
            pieces += [sub, modrep.quotient_by(inc)[0]]
    for x in cat.ind:
        for y in pieces:
            if y.dims == x.dims:
                fast = modrep.is_isomorphic_indecomposable(x, y)
                assert fast == oracles.is_isomorphic(x, y)


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_index_of_rejects_non_members(name, cat_of):
    cat = cat_of(name)
    for x in cat.ind:
        for y in cat.ind:
            with pytest.raises(NotClosed):
                cat.index_of(modrep.direct_sum(x, y))


# Gabriel: A_n has n(n+1)/2 indecomposables and D_n has n(n-1), in every
# orientation; k[x]/x^n has its n Jordan blocks
CLOSED_FORM_SPECS = {
    "a4": "vertices 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\nprime {p}\n",
    # the central vertex 2 is the target of two arrows and the source of one
    "d4": "vertices 4\narrow a 1 2\narrow b 3 2\narrow c 2 4\nprime {p}\n",
    # D5 and D6: two arms of length one meet at vertex 3, then a tail
    "d5": "vertices 5\narrow a 1 3\narrow b 2 3\narrow c3 3 4\narrow c4 4 5\nprime {p}\n",
    "d6": (
        "vertices 6\narrow a 1 3\narrow b 2 3\narrow c3 3 4\narrow c4 4 5"
        "\narrow c5 5 6\nprime {p}\n"
    ),
    "kx3": "vertices 1\narrow x 1 1\nrelation x x x\nprime {p}\n",
    "kx4": "vertices 1\narrow x 1 1\nrelation x x x x\nprime {p}\n",
}
# torsion classes: the W-Catalan number of the root system (Ingalls-Thomas),
# Catalan(n+1) for A_n and (3n-2)/n * C(2n-2, n-1) for D_n, and only 0 and
# everything over a local algebra
CLOSED_FORM_TORS = {"a4": 42, "d4": 50, "d5": 182, "d6": 672, "kx3": 2, "kx4": 2}
# the highest root of D6 has total dimension 9
CLOSED_FORM_CONFIG = {"d6": DEFAULT_CONFIG.with_overrides(dim_bound=9)}


@pytest.mark.parametrize(
    "name,prime,count",
    [("a4", p, 10) for p in (2, 3, 5, 7)]
    + [("d4", p, 12) for p in (2, 3, 5, 7)]
    + [("d5", 2, 20), ("d6", 2, 30)]
    + [("kx3", p, 3) for p in (2, 3, 5)]
    + [("kx4", 2, 4)],
)
def test_closed_form_counts(name, prime, count):
    alg = parse_algebra_text(CLOSED_FORM_SPECS[name].format(p=prime))
    cat = build_catalog(alg, CLOSED_FORM_CONFIG.get(name))
    assert len(cat) == count
    n = alg.quiver.vertex_count
    for v in range(n):
        cat.index_of(projective_module(alg, v))
        cat.index_of(oracles.injective_module(alg, v))
    lat = build_lattice(cat)
    assert len(lat) == CLOSED_FORM_TORS[name]
    # every torsion class has n covers in all (Adachi-Iyama-Reiten), and
    # wide subcategories are as many as torsion classes (Ingalls-Thomas)
    assert len(lat.arrows) == n * len(lat) // 2
    assert len(widelab.enumerate_wide_subcats(cat)) == len(lat)
