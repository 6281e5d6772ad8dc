import hashlib
import json
from collections import Counter
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torslat import linalg, modrep, subcat, widelab
from torslat import verify as verify_mod
from torslat.catalog import (
    Catalog,
    HomProfile,
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
from conftest import NAKAYAMA_5_5
from test_acceptance import SCALE_SPECS


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
            assert bool(cat.out_bits[i] >> j & 1) == (cat.hom_dim[i][j] > 0)
            assert bool(cat.in_bits[j] >> i & 1) == (cat.hom_dim[i][j] > 0)
    assert cat.full_mask == subcat.bits(range(n))


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
    for j, pairs in enumerate(cat.pair_bits):
        assert (1 << j, 0) in pairs
        assert (0, 1 << j) in pairs


def test_quotients_derived_from_subfactors(cat_of):
    cat = cat_of("nak3")
    for j in range(len(cat.ind)):
        assert cat.pair_bits[j] == tuple(
            (subcat.bits(u), subcat.bits(q)) for u, q in cat.subfactors[j]
        )


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("d4p3",))
def test_decompose_indices_match_the_hom_dimension_oracle(name, cat_of):
    # the subfactor pairs of every member: each submodule and its quotient,
    # split by H^-1 times their Hom vectors
    if name == "d4p3":
        spec = "vertices 4\narrow a 2 1\narrow b 3 1\narrow c 4 1\nprime 3\n"
        cat = build_catalog(parse_algebra_text(spec))
    else:
        cat = cat_of(name)
    h_inv = oracles.exact_inverse(cat.hom_dim)
    assert h_inv is not None
    seen = 0
    for x, pairs in zip(cat.ind, cat.subfactors):
        want = set()
        for sub, inc in modrep.submodules(x, cat.config):
            quot = modrep.quotient_by(inc)[0]
            want.add(
                (
                    oracles.decompose_by_hom_dims(cat, sub, h_inv),
                    oracles.decompose_by_hom_dims(cat, quot, h_inv),
                )
            )
            seen += 1
        assert pairs == tuple(sorted(want))
    assert seen > len(cat)


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("kx3p2", "d4p3"))
def test_hom_table_is_the_or_of_the_ray_profiles(name, cat_of):
    # every ordered pair; k[x]/x^3 (a three-dimensional End) and d4@p3 (a
    # two-dimensional Hom into the member with dims (2,1,1,1)) have pairs whose
    # rays differ in shape, so their entries are genuine ORs
    if name in SCALE_SPECS:
        cat = build_catalog(parse_algebra_text(SCALE_SPECS[name]))
    else:
        cat = cat_of(name)
    p = cat.algebra.prime
    mixed = 0
    for i in range(len(cat)):
        for j in range(len(cat)):
            rays = oracles.hom_ray_profiles(cat, i, j)
            d = cat.hom_dim[i][j]
            assert len(rays) == (p**d - 1) // (p - 1)
            want = HomProfile(
                subcat.bits(k for r in rays for k in r.kernel),
                subcat.bits(k for r in rays for k in r.image),
                subcat.bits(k for r in rays for k in r.cokernel),
                all(r.epi for r in rays),
            )
            assert cat.hom_table[i][j] == want
            mixed += len(set(rays)) > 1
    assert (mixed > 0) == (name in ("kx3p2", "d4p3"))


def _hom_spec(name):
    # N_5^5, k[x]/x^4 at p = 5 (a four-dimensional End), linear A5, nak3 and
    # D5 at p = 2
    texts = {
        "nak55": NAKAYAMA_5_5,
        "kx4p5": CLOSED_FORM_SPECS["kx4"].format(p=5),
        "a5p2": "vertices 5\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 5\nprime 2\n",
        "nak3p2": SCALE_SPECS["nak3p2"],
        "d5p2": CLOSED_FORM_SPECS["d5"].format(p=2),
    }
    return build_catalog(parse_algebra_text(texts[name]))


@pytest.mark.parametrize("name", ["nak55", "kx4p5", "a5p2", "nak3p2", "d5p2"])
def test_hom_table_is_the_or_of_the_rays_past_the_corpus(name):
    cat = _hom_spec(name)
    for i in range(len(cat)):
        for j in range(len(cat)):
            rays = oracles.hom_ray_profiles(cat, i, j)
            assert cat.hom_table[i][j] == HomProfile(
                subcat.bits(k for r in rays for k in r.kernel),
                subcat.bits(k for r in rays for k in r.image),
                subcat.bits(k for r in rays for k in r.cokernel),
                all(r.epi for r in rays),
            )


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("d4p3",))
def test_hom_is_nonzero_exactly_when_a_subfactor_matches(name, cat_of):
    # a nonzero map ind[i] -> ind[j] is a quotient of ind[i] that is a
    # submodule of ind[j]: a nonempty q of a pair (u, q) of i and (q, c) of j
    if name in SCALE_SPECS:
        cat = build_catalog(parse_algebra_text(SCALE_SPECS[name]))
    else:
        cat = cat_of(name)
    for i in range(len(cat)):
        quotients = {q for _, q in cat.subfactors[i] if q}
        for j in range(len(cat)):
            subs = {u for u, _ in cat.subfactors[j] if u}
            assert bool(cat.hom_dim[i][j]) == bool(quotients & subs)


@pytest.mark.parametrize(
    "text", [verify_mod.corpus_text("a4"), SCALE_SPECS["d4p3"]], ids=["a4", "d4p3"]
)
def test_the_hom_table_solves_no_linear_algebra(text, monkeypatch):
    # the constructor builds the table: rebuild it from a built catalog's
    # tables while modrep's solvers refuse
    cat = build_catalog(parse_algebra_text(text))
    for name in ("hom_basis", "kernel", "image", "quotient_by"):
        def refuse(*args, name=name, **kw):
            raise AssertionError(f"the Hom table called modrep.{name}")

        monkeypatch.setattr(modrep, name, refuse)
    again = Catalog(
        cat.algebra, cat.config, cat.ind, cat.names, cat.hom_dim, cat.subfactors
    )
    assert again.hom_table == cat.hom_table
    zero = HomProfile(0, 0, 0, True)
    for row, dims in zip(again.hom_table, cat.hom_dim):
        assert [p != zero for p in row] == [d > 0 for d in dims]


def test_oracle_decompose_indices_sorted(a2cat):
    from torslat.modrep import direct_sum

    big = direct_sum(a2cat.ind[2], a2cat.ind[0], a2cat.ind[2])
    assert oracles.decompose_indices(a2cat, big) == (0, 2, 2)


def test_mask_name(a2cat):
    assert a2cat.mask_name(0) == "{}"
    assert a2cat.mask_name(subcat.bits((2, 0))) == "{01a,11a}"


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
        cat.full_mask,
        cat.closure_rows,
        cat.out_bits,
        cat.in_bits,
        cat.quotient_bits,
        cat.sub_bits,
        cat.pair_bits,
    )


def _bits(mask):
    return sum(1 << k for k in set(mask))


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("d4p3",))
def test_json_round_trip_keeps_rows(name, cat_of):
    if name == "d4p3":
        cat = build_catalog(parse_algebra_text(CLOSED_FORM_SPECS["d4"].format(p=3)))
    else:
        cat = cat_of(name)
    assert _rows(from_json(to_json(cat))) == _rows(cat)
    # closure_rows omits the members without a nontrivial pair
    uqs_of = {bit.bit_length() - 1: uqs for bit, uqs in cat.closure_rows}
    assert all(uqs_of.values())
    for j, pairs in enumerate(cat.subfactors):
        # bit k for catalog index k
        assert cat.quotient_bits[j] == _bits(k for _, q in pairs for k in q)
        assert cat.sub_bits[j] == _bits(k for u, _ in pairs for k in u)
        assert cat.out_bits[j] == _bits(k for k, d in enumerate(cat.hom_dim[j]) if d)
        assert cat.in_bits[j] == _bits(k for k, row in enumerate(cat.hom_dim) if row[j])
        # one bitset per distinct u | q
        uqs = uqs_of.get(j, ())
        assert set(uqs) == {
            sum(1 << k for k in set(u) | set(q)) for u, q in pairs if u and q
        }
        assert len(set(uqs)) == len(uqs)
        assert cat.pair_bits[j] == tuple((_bits(u), _bits(q)) for u, q in pairs)


def _with_pair(subfactors, i, extra):
    """The table with `extra` appended to the q part of member i's first pair."""
    (u, q), *rest = subfactors[i]
    row = ((u, q + (extra,)), *rest)
    return subfactors[:i] + (row,) + subfactors[i + 1:]


def test_tables_must_match_the_members(a2cat):
    hom_dim, subfactors = a2cat.hom_dim, a2cat.subfactors
    negative = (hom_dim[0], (hom_dim[1][0], -1, hom_dim[1][2]), hom_dim[2])
    cases = [
        (hom_dim[:2], subfactors, "tables do not match the 3 catalog members"),
        (tuple(row[:2] for row in hom_dim), subfactors, "tables do not match"),
        (hom_dim, subfactors[:2], "tables do not match"),
        (hom_dim, _with_pair(subfactors, 2, 99), r"^member 2: .* names 99, not one of"),
        (hom_dim, _with_pair(subfactors, 1, -1), r"^member 1: .* names -1, not one of"),
        (hom_dim, _with_pair(subfactors, 0, "0"), r"^member 0: .* names '0', not one of"),
        (negative, subfactors, r"^member 1: Hom dimension -1 is not a natural number$"),
    ]
    for bad_hom, bad_sub, message in cases:
        with pytest.raises(ValueError, match=message):
            Catalog(a2cat.algebra, a2cat.config, a2cat.ind, a2cat.names, bad_hom, bad_sub)
    assert Catalog(
        a2cat.algebra, a2cat.config, a2cat.ind, a2cat.names, hom_dim, subfactors
    ).pair_bits == a2cat.pair_bits
    # the same checks on outside input: d4p3's export with a pair of member 5
    # naming 99 or -1, or with a negative Hom dimension in its row
    export = Path(__file__).resolve().parent.parent / "bench" / "data" / "d4p3.catalog.json"
    doc = json.loads(export.read_text())
    _, q = doc["tables"]["subfactors"][5][0]
    for bad in (99, -1):
        q.append(bad)
        with pytest.raises(ValueError, match=rf"^member 5: .* names {bad}, not one of the 12"):
            from_json(json.dumps(doc))
        q.pop()
    # member 11 has pairs ([3], [0, 9]) and ([3], [1, 8]): a string or null
    # index in the first q is met while sorting the row, before the checks
    _, q = doc["tables"]["subfactors"][11][1]
    for bad in ("0", None):
        q[0] = bad
        with pytest.raises(ValueError, match=r"^member 11: subfactor pairs "):
            from_json(json.dumps(doc))
    # its summands 1000a, 0100a and 1110a add up to 2210, not to 2111a
    q[0] = 2
    with pytest.raises(ValueError, match=r"^member 11: subfactor pair .* not \(2, 1, 1, 1\)$"):
        from_json(json.dumps(doc))
    q[0] = 0
    # a Hom dimension must be zero exactly when no pair of the source has a
    # q that is the u of a pair of the target: Hom(0, 1) is zero, and
    # Hom(3, 4) is not
    hom = doc["tables"]["hom_dim"]
    for i, j, bad in ((0, 1, 1), (3, 4, 0)):
        good, hom[i][j] = hom[i][j], bad
        with pytest.raises(ValueError, match=rf"^members {i} and {j}: Hom dimension {bad}, "):
            from_json(json.dumps(doc))
        hom[i][j] = good
    hom[5][0] = -1
    with pytest.raises(ValueError, match=r"^member 5: Hom dimension -1 "):
        from_json(json.dumps(doc))


def test_json_is_canonical(cat_of):
    text = to_json(cat_of("a2"))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_rebuild_is_deterministic():
    a = build_catalog(verify_mod.load_corpus_algebra("a3s"))
    b = build_catalog(verify_mod.load_corpus_algebra("a3s"))
    assert to_json(a) == to_json(b)


def test_a_submodule_outside_the_closure_raises_not_closed(monkeypatch):
    # a3 without the extensions of 010a by 001a: the closure never meets
    # 011a, yet reaches 111a through 110a, and 011a is a submodule of 111a
    # that matches no member when the tables are built
    alg = verify_mod.load_corpus_algebra("a3")
    ext_scan = modrep.ext_scan

    def without_011(q_mod, u_mod, config=None):
        if (q_mod.dims, u_mod.dims) == ((0, 1, 0), (0, 0, 1)):
            return ext_scan(q_mod, u_mod, config)._replace(middles=[])
        return ext_scan(q_mod, u_mod, config)

    monkeypatch.setattr(modrep, "ext_scan", without_011)
    with pytest.raises(NotClosed, match=r"^module with dims \(0, 1, 1\) is not in the catalog$"):
        build_catalog(alg)


def test_representation_infinite_hits_closure_error():
    q = Quiver(2, (Arrow("a", 0, 1), Arrow("b", 0, 1)))
    alg = build_algebra(q, (), 2)
    with pytest.raises(NotClosed):
        build_catalog(alg, DEFAULT_CONFIG.with_overrides(dim_bound=4))


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_closure_scans_each_input_once(name, monkeypatch):
    # Ext^1(P, -) and Ext^1(-, I) vanish: the closure settles a pair with a
    # projective source or an injective target without a scan
    ext_calls, sub_calls = Counter(), Counter()
    ext_scan, submodules = modrep.ext_scan, modrep.submodules

    def counting_extensions(q_mod, u_mod, config=None):
        ext_calls[id(q_mod), id(u_mod)] += 1
        return ext_scan(q_mod, u_mod, config)

    def counting_submodules(x, config=None):
        sub_calls[id(x)] += 1
        return submodules(x, config)

    monkeypatch.setattr(modrep, "ext_scan", counting_extensions)
    monkeypatch.setattr(modrep, "submodules", counting_submodules)
    alg = verify_mod.load_corpus_algebra(name)
    cat = build_catalog(alg)
    monkeypatch.undo()
    n = alg.quiver.vertex_count
    projective = {oracles.index_of(cat, projective_module(alg, v)) for v in range(n)}
    injective = {
        oracles.index_of(cat, oracles.injective_module(alg, v)) for v in range(n)
    }
    members = [id(m) for m in cat.ind]
    assert ext_calls == Counter({
        (q, u): 1
        for i, q in enumerate(members)
        for j, u in enumerate(members)
        if i not in projective and j not in injective
    })
    assert sub_calls == Counter({x: 1 for x in members})


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
    # the fixpoint's decompositions and those of the submodules for the tables
    build_catalog(verify_mod.load_corpus_algebra(name))
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", verify_mod.CORPUS)
def test_extensions_match_cocycle_oracle(name, cat_of):
    cat = cat_of(name)
    for u in cat.ind:
        for q in cat.ind:
            fast = {oracles.decompose_indices(cat, z) for z in modrep.ext_scan(q, u).middles}
            # element 0 of the oracle is the split middle
            slow = {
                oracles.decompose_indices(cat, z)
                for z in oracles.extensions_by_cocycles(q, u)[1:]
            }
            assert fast == slow


@pytest.mark.parametrize("name", verify_mod.CORPUS + ("kx3p2",))
def test_ext_scan_on_every_pair(name, cat_of, monkeypatch):
    # nak3, ppa2 and k[x]/x^3 carry relations, which cut the cocycles out of
    # the cochains but leave the coboundary map, whose kernel is Hom, alone
    if name in SCALE_SPECS:
        cat = build_catalog(parse_algebra_text(SCALE_SPECS[name]))
    else:
        cat = cat_of(name)
    arrows = cat.algebra.quiver.arrows
    trivial = []
    for q in cat.ind:
        for u in cat.ind:
            scan = modrep.ext_scan(q, u)
            assert scan.hom_dim == len(modrep.hom_basis(q, u))
            fast = {oracles.decompose_indices(cat, z) for z in scan.middles}
            # element 0 of the oracle is the split middle
            slow = {
                oracles.decompose_indices(cat, z)
                for z in oracles.extensions_by_cocycles(q, u)[1:]
            }
            assert fast == slow
            if not any(q.dims[a.source] * u.dims[a.target] for a in arrows):
                trivial.append((q, u))
    # every loop of k[x]/x^3 meets every nonzero pair
    assert bool(trivial) == (name != "kx3p2")

    def refuse(*args):
        raise AssertionError("a scan with no cochains built a system")

    monkeypatch.setattr(modrep, "_intertwining_system", refuse)
    monkeypatch.setattr(linalg, "reduce_rows", refuse)
    for q, u in trivial:
        assert modrep.ext_scan(q, u) == (sum(map(mul, q.dims, u.dims)), [])


@pytest.mark.parametrize(
    "name", verify_mod.CORPUS + tuple(SCALE_SPECS) + ("a5p2",)
)
def test_closure_hom_dims_match_hom_basis(name, cat_of):
    # the closure reads every Hom dimension off an Ext scan; hom_basis
    # solves the intertwining system on its own
    if name in SCALE_SPECS:
        cat = build_catalog(parse_algebra_text(SCALE_SPECS[name]))
    elif name == "a5p2":
        cat = _hom_spec(name)
    else:
        cat = cat_of(name)
    for i, x in enumerate(cat.ind):
        for j, y in enumerate(cat.ind):
            assert cat.hom_dim[i][j] == len(modrep.hom_basis(x, y)), (
                cat.names[i],
                cat.names[j],
            )


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
    # the oracle's class lookup, oracles.index_of; the library's own lookup
    # is pinned by test_a_submodule_outside_the_closure_raises_not_closed
    cat = cat_of(name)
    for x in cat.ind:
        for y in cat.ind:
            with pytest.raises(NotClosed):
                oracles.index_of(cat, modrep.direct_sum(x, y))


# Gabriel: A_n has n(n+1)/2 indecomposables, D_n has n(n-1) and E6 36, in
# every orientation; k[x]/x^n has its n Jordan blocks
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
    # E6: arms 1->2->3 and 5->4->3 and the short arm 6->3
    "e6": (
        "vertices 6\narrow a 1 2\narrow b 2 3\narrow c 5 4\narrow d 4 3"
        "\narrow e 6 3\nprime {p}\n"
    ),
    "kx3": "vertices 1\narrow x 1 1\nrelation x x x\nprime {p}\n",
    "kx4": "vertices 1\narrow x 1 1\nrelation x x x x\nprime {p}\n",
}
# torsion classes: the W-Catalan number of the root system (Ingalls-Thomas),
# Catalan(n+1) for A_n, (3n-2)/n * C(2n-2, n-1) for D_n and 833 for E6, and
# only 0 and everything over a local algebra
CLOSED_FORM_TORS = {
    "a4": 42, "d4": 50, "d5": 182, "d6": 672, "e6": 833, "kx3": 2, "kx4": 2
}
# the highest roots of D6 and E6 have total dimension 9 and 11
E6_P2_CATALOG_SHA256 = (
    "0c8bca896a7b740e32ff46ad9e5fbd0e3082c6757971782ab595729ab45de73e"
)
CLOSED_FORM_CONFIG = {
    "d6": DEFAULT_CONFIG.with_overrides(dim_bound=9),
    "e6": DEFAULT_CONFIG.with_overrides(dim_bound=11),
}


@pytest.mark.parametrize(
    "name,prime,count",
    [("a4", p, 10) for p in (2, 3, 5, 7)]
    + [("d4", p, 12) for p in (2, 3, 5, 7)]
    + [("d5", 2, 20), ("d6", 2, 30), ("e6", 2, 36)]
    + [("kx3", p, 3) for p in (2, 3, 5)]
    + [("kx4", 2, 4)],
)
def test_closed_form_counts(name, prime, count):
    alg = parse_algebra_text(CLOSED_FORM_SPECS[name].format(p=prime))
    cat = build_catalog(alg, CLOSED_FORM_CONFIG.get(name))
    assert len(cat) == count
    if name in ("kx3", "kx4"):
        # End of the Jordan block of size l is k[x]/x^l, a field for l = 1 only
        assert cat.bricks == tuple(m.total_dim == 1 for m in cat.ind)
    else:
        # Gabriel: the dimension vectors are the positive roots, each once,
        # and every indecomposable of a Dynkin quiver is a brick
        assert sorted(m.dims for m in cat.ind) == oracles.positive_roots(alg.quiver)
        assert all(cat.bricks)
    n = alg.quiver.vertex_count
    for v in range(n):
        oracles.index_of(cat, projective_module(alg, v))
        oracles.index_of(cat, oracles.injective_module(alg, v))
    lat = build_lattice(cat)
    assert len(lat) == CLOSED_FORM_TORS[name]
    # every torsion class has n covers in all (Adachi-Iyama-Reiten), and
    # wide subcategories are as many as torsion classes (Ingalls-Thomas)
    assert len(lat.arrows) == n * len(lat) // 2
    assert len(widelab.enumerate_wide_subcats(cat)) == len(lat)
    if (name, prime) == ("e6", 2):
        # the one pinned export of a tree quiver; a change to the closure's
        # discovery order may change its matrices
        assert hashlib.sha256(to_json(cat).encode()).hexdigest() == E6_P2_CATALOG_SHA256


# Dynkin path algebras in several orientations: D4 with its center 1 the
# target of every arm, the source of every arm, or mixed; A5 alternating
DYNKIN_SPECS = {
    "a4": CLOSED_FORM_SPECS["a4"],
    "d4-in": "vertices 4\narrow a 2 1\narrow b 3 1\narrow c 4 1\nprime {p}\n",
    "d4-out": "vertices 4\narrow a 1 2\narrow b 1 3\narrow c 1 4\nprime {p}\n",
    "d4-mixed": CLOSED_FORM_SPECS["d4"],
    "a5-alt": (
        "vertices 5\narrow a 1 2\narrow b 3 2\narrow c 3 4\narrow d 5 4\nprime {p}\n"
    ),
    "d5": CLOSED_FORM_SPECS["d5"],
}


@pytest.mark.parametrize("prime", (2, 3))
@pytest.mark.parametrize("name", DYNKIN_SPECS)
def test_hom_and_ext_follow_the_euler_form(name, prime):
    # over a Dynkin quiver dim Hom - dim Ext^1 is the Euler form, and Hom and
    # Ext^1 between indecomposables are never both nonzero (Auslander-Reiten:
    # Ext^1(X, Y) = D Hom(Y, tau X), and a representation-directed algebra
    # has no cycle X -> Y -> tau X -> X).  So dim Hom(X, Y) = max(0, <x, y>),
    # and the Ext scan finds one middle term per ray of Ext^1(X, Y), of
    # dimension e = max(0, -<x, y>)
    alg = parse_algebra_text(DYNKIN_SPECS[name].format(p=prime))
    cat = build_catalog(alg)
    assert sorted(m.dims for m in cat.ind) == oracles.positive_roots(alg.quiver)
    for i, x in enumerate(cat.ind):
        for j, y in enumerate(cat.ind):
            form = oracles.euler_form(alg.quiver, x.dims, y.dims)
            assert cat.hom_dim[i][j] == max(0, form), (i, j)
            e = max(0, -form)
            rays = (prime**e - 1) // (prime - 1)
            assert len(modrep.ext_scan(x, y).middles) == rays, (i, j)


# the underlying graphs of the orientation test, as edges between vertices
# 1..n: A_n a path, D_n two arms of length one meeting at vertex 3, then a
# tail; and their torsion class counts, the W-Catalan numbers
# (Ingalls-Thomas), which do not depend on the orientation
DYNKIN_GRAPHS = {f"a{n}": [(v, v + 1) for v in range(1, n)] for n in range(1, 6)}
DYNKIN_GRAPHS.update(
    {f"d{n}": [(1, 3), (2, 3)] + [(v, v + 1) for v in range(3, n)] for n in (4, 5)}
)
DYNKIN_TORS = {"a1": 2, "a2": 5, "a3": 14, "a4": 42, "a5": 132, "d4": 50, "d5": 182}


@st.composite
def oriented_dynkin(draw):
    """(graph name, spec text): a graph of DYNKIN_GRAPHS, each edge drawn
    in one of its two directions, at p = 2 or 3."""
    name = draw(st.sampled_from(sorted(DYNKIN_GRAPHS)))
    lines = [f"vertices {int(name[1:])}"]
    for k, (u, v) in enumerate(DYNKIN_GRAPHS[name]):
        if draw(st.booleans()):
            u, v = v, u
        lines.append(f"arrow x{k} {u} {v}")
    lines.append(f"prime {draw(st.sampled_from((2, 3)))}")
    return name, "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(oriented_dynkin())
def test_every_orientation_follows_gabriel_and_the_euler_form(drawn):
    # Gabriel: the dimension vectors are the positive roots, each once, and
    # every indecomposable is a brick; the torsion classes number the
    # W-Catalan number; and dim Hom(X, Y) = max(0, <x, y>), as in
    # test_hom_and_ext_follow_the_euler_form
    name, spec = drawn
    alg = parse_algebra_text(spec)
    cat = build_catalog(alg)
    assert sorted(m.dims for m in cat.ind) == oracles.positive_roots(alg.quiver)
    assert all(cat.bricks)
    assert len(build_lattice(cat)) == DYNKIN_TORS[name]
    for i, x in enumerate(cat.ind):
        for j, y in enumerate(cat.ind):
            form = oracles.euler_form(alg.quiver, x.dims, y.dims)
            assert cat.hom_dim[i][j] == max(0, form), (spec, i, j)


# the representation-finite scale specs of the benchmark, read only; the
# Kronecker quiver of kronp2 is representation-infinite
BENCH_SPECS = Path(__file__).resolve().parent.parent / "bench" / "specs"
CLOSING_BENCH_SPECS = sorted(
    path.stem for path in BENCH_SPECS.glob("*.alg") if path.stem != "kronp2"
)
# N_3^5@p2 and N_2^4@p3, whose non-bricks number 6 of 15 and 4 of 8
NAKAYAMA_NONBRICKS = {"nak35p2": (3, 5, 2), "nak24p3": (2, 4, 3)}


def _reference_catalog(source):
    kind, name = source
    if kind == "corpus":
        return build_catalog(verify_mod.load_corpus_algebra(name))
    if kind == "bench":
        text = (BENCH_SPECS / f"{name}.alg").read_text()
    else:
        text = oracles.nakayama_spec(*NAKAYAMA_NONBRICKS[name])
    return build_catalog(parse_algebra_text(text))


@pytest.mark.parametrize(
    "source",
    [("corpus", n) for n in verify_mod.CORPUS]
    + [("bench", n) for n in CLOSING_BENCH_SPECS]
    + [("nakayama", n) for n in NAKAYAMA_NONBRICKS],
    ids=lambda source: f"{source[0]}-{source[1]}",
)
def test_brick_flags_match_the_ray_scan(source):
    # the Catalog constructor reads the flags off the subfactor table; the reference
    # checks every ray of each member's End for an invertible map
    cat = _reference_catalog(source)
    assert cat.bricks == tuple(oracles.is_brick(m) for m in cat.ind)
    if source[0] == "nakayama":
        n, length, _ = NAKAYAMA_NONBRICKS[source[1]]
        assert cat.bricks.count(False) == n * (length - n)


@pytest.mark.parametrize(
    "source",
    [("corpus", n) for n in verify_mod.CORPUS]
    # a5p2 is linear A5 at p = 2
    + [("bench", n) for n in CLOSING_BENCH_SPECS]
    + [("closed-form", "e6")],
    ids=lambda source: f"{source[0]}-{source[1]}",
)
def test_settled_pairs_match_their_scans(source, monkeypatch):
    # Ext^1(P_v, -) = 0 with dim Hom(P_v, Y) = dim Y_v, and Ext^1(-, I_w) = 0
    # with dim Hom(X, I_w) = dim X_w; the closure scans no such pair, so its
    # projective and injective members are those it scans no pair from and
    # to, and they must be the oracle's
    kind, name = source
    if kind == "corpus":
        alg, config = verify_mod.load_corpus_algebra(name), None
    elif kind == "bench":
        alg, config = parse_algebra_text((BENCH_SPECS / f"{name}.alg").read_text()), None
    else:
        alg = parse_algebra_text(CLOSED_FORM_SPECS[name].format(p=2))
        config = CLOSED_FORM_CONFIG.get(name)
    scanned = set()
    ext_scan = modrep.ext_scan

    def recording(q_mod, u_mod, config=None):
        scanned.add((id(q_mod), id(u_mod)))
        return ext_scan(q_mod, u_mod, config)

    monkeypatch.setattr(modrep, "ext_scan", recording)
    cat = build_catalog(alg, config)
    monkeypatch.undo()
    n = alg.quiver.vertex_count
    projective = {oracles.index_of(cat, projective_module(alg, v)): v for v in range(n)}
    injective = {
        oracles.index_of(cat, oracles.injective_module(alg, v)): v for v in range(n)
    }
    assert len(projective) == len(injective) == n
    members = [id(m) for m in cat.ind]
    assert {
        i for i, q in enumerate(members) if not any((q, u) in scanned for u in members)
    } == set(projective)
    assert {
        j for j, u in enumerate(members) if not any((q, u) in scanned for q in members)
    } == set(injective)
    for i, v in projective.items():
        for j, y in enumerate(cat.ind):
            assert modrep.ext_scan(cat.ind[i], y) == modrep.ExtScan(y.dims[v], [])
            assert cat.hom_dim[i][j] == y.dims[v]
    for j, w in injective.items():
        for i, x in enumerate(cat.ind):
            assert modrep.ext_scan(x, cat.ind[j]) == modrep.ExtScan(x.dims[w], [])
            assert cat.hom_dim[i][j] == x.dims[w]


def test_from_json_rejects_a_flipped_brick_flag():
    cat = _reference_catalog(("nakayama", "nak24p3"))
    for i in (0, cat.bricks.index(False)):
        doc = json.loads(to_json(cat))
        doc["tables"]["bricks"][i] = not cat.bricks[i]
        with pytest.raises(ValueError, match=rf"member {cat.names[i]} is"):
            from_json(json.dumps(doc))
    doc = json.loads(to_json(cat))
    doc["tables"]["bricks"].pop()
    with pytest.raises(ValueError, match="flags for 8 members"):
        from_json(json.dumps(doc))


def test_from_json_rejects_a_matrix_of_the_wrong_shape():
    # member 11 of the d4p3 export is 2111a, whose arrow a: 2 -> 1 is 2 x 1;
    # the same entries as one row of two no longer load
    export = Path(__file__).resolve().parent.parent / "bench" / "data" / "d4p3.catalog.json"
    doc = json.loads(export.read_text())
    assert doc["ind"][11]["mats"][0] == [[0], [1]]
    doc["ind"][11]["mats"][0] = [[0, 1]]
    with pytest.raises(ValueError, match=r"^member 11: matrix for arrow 'a' is not 2 x 1$"):
        from_json(json.dumps(doc))


def test_from_json_rejects_a_names_list_of_the_wrong_length():
    # the d4p3 export has 12 members; without its last name it used to load,
    # and the first mask_name reaching member 11 raised IndexError
    export = Path(__file__).resolve().parent.parent / "bench" / "data" / "d4p3.catalog.json"
    doc = json.loads(export.read_text())
    assert len(doc["ind"]) == len(doc["names"]) == 12
    names = doc["names"]
    for wrong, count in ((names[:-1], 11), (names + ["extra"], 13)):
        doc["names"] = wrong
        with pytest.raises(ValueError, match=rf"^names lists {count} names for 12 members$"):
            from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "n,length,prime",
    [(5, 5, 2), (3, 5, 2), (2, 4, 3)],
    ids=["nak55", "nak35p2", "nak24p3"],
)
def test_nakayama_uniserial_closed_forms(n, length, prime):
    # every indecomposable of N_n^length is a uniserial M(i, l), 1 <= l <=
    # length, with top i and l composition factors i, i + 1, ... (mod n)
    cat = build_catalog(parse_algebra_text(oracles.nakayama_spec(n, length, prime)))
    index = {(oracles.uniserial_top(m), m.total_dim): x for x, m in enumerate(cat.ind)}
    assert len(cat) == len(index)
    assert sorted(index) == [(i, l) for i in range(n) for l in range(1, length + 1)]
    for (i, l), x in index.items():
        assert cat.bricks[x] == (l <= n)
        # the submodules of M(i, l) are M(i + l - k, k), 0 <= k <= l
        subs = {(index[(i + l - k) % n, k],) if k else () for k in range(l + 1)}
        assert {u for u, _ in cat.subfactors[x]} == subs
        # a map M(i, l) -> M(j, m) with image of length k has image M(i, k),
        # a quotient of the source, equal to M(j + m - k, k), a submodule of
        # the target
        for (j, m), y in index.items():
            hom = sum((j + m - k - i) % n == 0 for k in range(1, min(l, m) + 1))
            assert cat.hom_dim[x][y] == hom


def test_linear_a3_intervals_have_their_top_at_the_path_source():
    # the convention of the closed form below, on 1 -> 2 -> 3: the
    # projective P(1) is the interval [1, 3], with top S(1) and socle S(3)
    alg = parse_algebra_text(oracles.linear_a_spec(3, 2))
    cat = build_catalog(alg)
    index = {oracles.linear_a_interval(m): x for x, m in enumerate(cat.ind)}
    p1, s1, s3 = index[1, 3], index[1, 1], index[3, 3]
    assert oracles.index_of(cat, projective_module(alg, 0)) == p1
    assert (cat.hom_dim[p1][s1], cat.hom_dim[s1][p1]) == (1, 0)
    assert (cat.hom_dim[s3][p1], cat.hom_dim[p1][s3]) == (1, 0)


@pytest.mark.parametrize(
    "text",
    [
        CLOSED_FORM_SPECS["a4"].format(p=3),
        oracles.linear_a_spec(6, 3),
        (BENCH_SPECS / "a5p2.alg").read_text(),
    ],
    ids=["a4p3", "a6p3", "a5p2"],
)
def test_linear_a_hom_table_is_the_interval_closed_form(text):
    # the indecomposables of linear A_n are the intervals [a, b], 1 <= a <= b
    # <= n; a nonzero map [a, b] -> [c, d] has image [a, d], a quotient of
    # the source and a submodule of the target, so Hom is one-dimensional
    # when c <= a <= d <= b and zero otherwise; no linear algebra involved
    cat = build_catalog(parse_algebra_text(text))
    n = len(cat.ind[0].dims)
    intervals = [oracles.linear_a_interval(m) for m in cat.ind]
    assert sorted(intervals) == [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    for x, (a, b) in enumerate(intervals):
        for y, (c, d) in enumerate(intervals):
            assert cat.hom_dim[x][y] == (c <= a <= d <= b)
