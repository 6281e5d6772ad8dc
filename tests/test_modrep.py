import numpy as np
import pytest

import oracles
from oracles import hom_rays, is_brick, is_isomorphic, ray_count
import torslat
from torslat import linalg, modrep, verify as verify_mod
from torslat.config import DEFAULT_CONFIG
from torslat.errors import DecomposeBlowup, SubspaceBlowup
from torslat.modrep import (
    Module,
    Morphism,
    decompose,
    direct_sum,
    ext_scan,
    hom_basis,
    image,
    kernel,
    quotient_by,
    submodules,
    zero_module,
)
from torslat.quivalg import (
    Arrow,
    Quiver,
    build_algebra,
    parse_algebra_text,
    projective_module,
    simple_module,
)

KRONECKER_P3 = "vertices 2\narrow a 1 2\narrow b 1 2\nprime 3\n"
D4_P3 = "vertices 4\narrow a 2 1\narrow b 3 1\narrow c 4 1\nprime 3\n"
# the loop puts both blocks of its row block into the same columns
KX3_P2 = "vertices 1\narrow x 1 1\nrelation x x x\nprime 2\n"


@pytest.fixture(scope="module")
def a2():
    return verify_mod.load_corpus_algebra("a2")


def test_module_rejects_relation_violation():
    alg = verify_mod.load_corpus_algebra("ppa2")
    one = ((1,),)
    with pytest.raises(ValueError):
        Module(alg, (1, 1), (one, one))


def test_module_rejects_shape_mismatch(a2):
    with pytest.raises(ValueError):
        Module(a2, (1, 1), (((0,), (0,)),))


def test_hom_dims_match_brute_force_everywhere():
    for name in ("a2", "a3s", "ppa2", "nak3"):
        alg = verify_mod.load_corpus_algebra(name)
        cat = torslat.build_catalog(alg)
        for i, x in enumerate(cat.ind):
            for j, y in enumerate(cat.ind):
                assert cat.hom_dim[i][j] == oracles.brute_hom_dim(x, y), (
                    name,
                    cat.names[i],
                    cat.names[j],
                )


def _kernel_image_cokernel(f):
    """The three modules of f, the cokernel as the quotient by the image."""
    ker, _ = kernel(f)
    im, inclusion = image(f)
    coker, _ = quotient_by(inclusion)
    return ker, im, coker


def test_kernel_image_cokernel_exactness(a2):
    p1 = projective_module(a2, 0)
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    (f,) = hom_basis(p1, s1)
    ker, im, coker = _kernel_image_cokernel(f)
    assert ker.dims == s2.dims
    assert is_isomorphic(ker, s2)
    assert im.dims == s1.dims
    assert coker.is_zero


def test_zero_and_identity_maps(a2):
    p1 = projective_module(a2, 0)
    z = Morphism(p1, p1, tuple(((0,) * d,) * d for d in p1.dims))
    ker, im, coker = _kernel_image_cokernel(z)
    assert ker.dims == p1.dims
    assert im.is_zero
    assert coker.dims == p1.dims
    ident = Morphism(p1, p1, tuple(linalg.identity(d) for d in p1.dims))
    ker, _, coker = _kernel_image_cokernel(ident)
    assert ker.is_zero
    assert coker.is_zero


def test_length_additivity_over_all_hom_bases():
    alg = verify_mod.load_corpus_algebra("a3")
    cat = torslat.build_catalog(alg)
    for x in cat.ind:
        for y in cat.ind:
            for f in hom_basis(x, y):
                ker, im, coker = _kernel_image_cokernel(f)
                assert ker.total_dim + im.total_dim == x.total_dim
                assert im.total_dim + coker.total_dim == y.total_dim


def test_direct_sum_decomposes_back(a2):
    s1 = simple_module(a2, 0)
    p1 = projective_module(a2, 0)
    big = direct_sum(s1, p1, s1)
    parts = decompose(big)
    assert sorted(m.dims for m in parts) == [(1, 0), (1, 0), (1, 1)]


def test_decompose_zero_module(a2):
    assert decompose(zero_module(a2)) == []


def test_indecomposable_stays_whole(a2):
    p1 = projective_module(a2, 0)
    assert [m.dims for m in decompose(p1)] == [(1, 1)]


def test_local_endomorphisms_and_budget():
    q = Quiver(2, (Arrow("a", 0, 1), Arrow("b", 0, 1)))
    alg = build_algebra(q, (), 2)
    jordan = Module(
        alg,
        (2, 2),
        (((1, 0), (0, 1)), ((0, 1), (0, 0))),
    )
    # indecomposable with a two-dimensional local endomorphism ring
    assert [m.dims for m in decompose(jordan)] == [(2, 2)]
    assert not is_brick(jordan)
    with pytest.raises(DecomposeBlowup):
        decompose(jordan, DEFAULT_CONFIG.with_overrides(iso_budget=2))


def test_hom_rays_one_per_ray():
    alg = parse_algebra_text(KRONECKER_P3)
    s1, s2 = simple_module(alg, 0), simple_module(alg, 1)
    s11 = direct_sum(s1, s1)
    mods = [s1, s2, s11, direct_sum(s2, s2)] + ext_scan(s1, s2).middles
    for x in mods:
        for y in mods:
            rays = list(hom_rays(x, y))
            assert len(rays) == ray_count(len(hom_basis(x, y)), 3)
            # scaled so the first nonzero entry is 1, no two rays agree
            flat = [[x for c in f.comps for row in c for x in row] for f in rays]
            lead = [next(x for x in v if x) for v in flat]
            scaled = {tuple(x * pow(a, -1, 3) % 3 for x in v) for v, a in zip(flat, lead)}
            assert len(scaled) == len(rays)
    # Hom(S1, S1 + S1) = F_3^2 has 4 rays
    assert len(list(hom_rays(s1, s11))) == 4


def test_is_isomorphic_distinguishes(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    p1 = projective_module(a2, 0)
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)
    assert not is_isomorphic(direct_sum(s1, s2), p1)


def test_iso_invariant_under_base_change():
    alg = verify_mod.load_corpus_algebra("a3s")
    e = Module(alg, (1, 1, 1), (((1,),), ((1,),)))
    twisted = Module(alg, (1, 1, 1), (((2,),), ((3,),)))
    assert is_isomorphic(e, twisted)
    assert is_brick(e)


def test_bricks_in_ppa2():
    alg = verify_mod.load_corpus_algebra("ppa2")
    cat = torslat.build_catalog(alg)
    assert all(cat.bricks)


def test_submodule_count_against_subgroup_structure(a2):
    p1 = projective_module(a2, 0)
    subs = submodules(p1)
    # 0, socle, whole: the unique composition series
    assert len(subs) == 3
    dims = sorted(s.dims for s, _ in subs)
    assert dims == [(0, 0), (0, 1), (1, 1)]


def test_submodules_are_arrow_stable():
    alg = verify_mod.load_corpus_algebra("nak3")
    p = alg.prime
    for v in range(3):
        pv = projective_module(alg, v)
        for sub, incl in submodules(pv):
            for k, a in enumerate(alg.quiver.arrows):
                ks, kt = sub.dims[a.source], sub.dims[a.target]
                moved = linalg.matmul(pv.mats[k], incl.comps[a.source], ks, p)
                span = tuple(r + m for r, m in zip(incl.comps[a.target], moved))
                assert linalg.rank(span, kt + ks, p) == linalg.rank(
                    incl.comps[a.target], kt, p
                )


def test_submodule_budget(a2):
    p1 = projective_module(a2, 0)
    with pytest.raises(SubspaceBlowup):
        submodules(
            direct_sum(*([p1] * 8)),
            DEFAULT_CONFIG.with_overrides(subspace_budget=4),
        )


def test_quotient_by_submodule(a2):
    p1 = projective_module(a2, 0)
    for sub, incl in submodules(p1):
        q, proj = quotient_by(incl)
        assert q.total_dim == p1.total_dim - sub.total_dim
        if sub.dims == (0, 1):
            assert is_isomorphic(q, simple_module(a2, 0))


@pytest.fixture(scope="module")
def member_lists(cat_of):
    extra = [parse_algebra_text(D4_P3), parse_algebra_text(KX3_P2)]
    return [cat_of(n).ind for n in verify_mod.CORPUS] + [
        torslat.build_catalog(alg).ind for alg in extra
    ]


def test_intertwining_system_matches_kron_oracle(member_lists):
    for members in member_lists:
        for x in members:
            for y in members:
                rows, got_offsets = modrep._intertwining_system(x, y)
                want, want_offsets = oracles.intertwining_system(x, y)
                assert got_offsets == want_offsets
                # the rows hold ints read mod p, as the oracle's matrix does
                got = np.array(rows, dtype=np.int64).reshape(
                    len(rows), got_offsets[-1]
                ) % x.algebra.prime
                assert got.shape == want.shape
                assert np.array_equal(got, want)


def _assert_valid(obj):
    """An internal result passes the checks of outside input, in normal form."""
    if isinstance(obj, Module):
        assert type(obj.dims) is tuple and all(type(d) is int for d in obj.dims)
        mats, p = obj.mats, obj.algebra.prime
    else:
        mats, p = obj.comps, obj.source.algebra.prime
    assert type(mats) is tuple
    for m in mats:
        assert type(m) is tuple and all(type(row) is tuple for row in m)
        assert all(type(x) is int and 0 <= x < p for row in m for x in row)
    obj._validate()


def test_internal_results_pass_validation(member_lists):
    # check=False trusts every producer to build valid modules and maps
    # with entries in [0, p); Module and Morphism do not normalise them
    for members in member_lists:
        _assert_valid(zero_module(members[0].algebra))
        for x in members:
            for sub, incl in submodules(x):
                for obj in (sub, incl, *quotient_by(incl)):
                    _assert_valid(obj)
            for y in members:
                for f in hom_basis(x, y):
                    for obj in (f, *kernel(f), *image(f)):
                        _assert_valid(obj)
                    if x is y:
                        _assert_valid(f.compose(f))
                xy = direct_sum(x, y)
                for obj in (xy, *decompose(xy), *ext_scan(x, y).middles):
                    _assert_valid(obj)


def test_kernel_image_cokernel_match_oracle(member_lists):
    # entry for entry, on every Hom-basis element of every ordered pair
    for members in member_lists:
        for x in members:
            for y in members:
                for f in hom_basis(x, y):
                    want = oracles.kernel_image_cokernel(f)
                    ker, k_in = kernel(f)
                    im, i_in = image(f)
                    coker, c_pr = quotient_by(i_in)
                    assert ker.key() == want.kernel.key()
                    assert k_in.comps == want.kernel_inclusion.comps
                    assert im.key() == want.image.key()
                    assert i_in.comps == want.image_inclusion.comps
                    assert coker.key() == want.cokernel.key()
                    assert c_pr.comps == want.cokernel_projection.comps


def test_quotient_by_is_the_cokernel(member_lists):
    for members in member_lists:
        for x in members:
            for _, incl in submodules(x):
                q, proj = quotient_by(incl)
                want = oracles.kernel_image_cokernel(incl)
                assert q.key() == want.cokernel.key()
                assert proj.comps == want.cokernel_projection.comps
                # the cokernel hom_profile reads: the quotient by the image
                q_img, proj_img = quotient_by(image(incl)[1])
                assert q_img.key() == q.key()
                assert proj_img.comps == proj.comps


def test_extensions_of_simples_give_projective(a2):
    s1 = simple_module(a2, 0)
    s2 = simple_module(a2, 1)
    # non-split middles of 0 -> S2 -> E -> S1 -> 0: Ext^1 is a line
    (mid,) = ext_scan(s1, s2).middles
    assert is_isomorphic(mid, projective_module(a2, 0))
    # the reversed direction only splits, and the split middle is not built
    assert ext_scan(s2, s1).middles == []


def test_extension_middles_contain_sub():
    alg = verify_mod.load_corpus_algebra("a3")
    s3 = simple_module(alg, 2)
    s2 = simple_module(alg, 1)
    for e in ext_scan(s2, s3).middles:
        subs = [s for s, _ in submodules(e)]
        assert any(is_isomorphic(s, s3) for s in subs if s.total_dim == 1)


def test_extension_count_respects_prime():
    alg = verify_mod.load_corpus_algebra("a3s")
    s1 = simple_module(alg, 0)
    s2 = simple_module(alg, 1)
    # four nonsplit cocycle lines at p=5, one ray of Ext^1 up to coboundaries
    mids = ext_scan(s1, s2).middles
    assert len(mids) == 1


def test_ext_budget_counts_classes_not_cocycles(a2):
    # Z^1 is a line, but it is all coboundaries: Ext^1 vanishes, no middle is
    # built, and a budget of one element (the zero class) suffices
    p1, s2 = projective_module(a2, 0), simple_module(a2, 1)
    assert ext_scan(p1, s2, DEFAULT_CONFIG.with_overrides(ext_budget=1)).middles == []


def test_ext_budget_caps_classes_and_names_flag():
    alg = parse_algebra_text(KRONECKER_P3)
    s1, s2 = simple_module(alg, 0), simple_module(alg, 1)
    # Ext^1(S1, S2) = F_3^2: one middle per point of P^1(F_3)
    mids = ext_scan(s1, s2, DEFAULT_CONFIG.with_overrides(ext_budget=9)).middles
    assert len(mids) == ray_count(2, 3)
    with pytest.raises(
        SubspaceBlowup, match=r"^3\^2 Ext classes to scan, budget 8 \(--ext-budget\)$"
    ):
        ext_scan(s1, s2, DEFAULT_CONFIG.with_overrides(ext_budget=8))


def test_extensions_match_cocycle_oracle_on_kronecker():
    # Ext^1 between the Kronecker simples is 2-dimensional, which no corpus
    # algebra has; the regular modules of dims (1,1) have 1-dimensional
    # self-extensions inside a 2-dimensional cocycle space
    alg = parse_algebra_text(KRONECKER_P3)
    s1, s2 = simple_module(alg, 0), simple_module(alg, 1)
    mods = [s1, s2] + ext_scan(s1, s2).middles
    for q in mods:
        for u in mods:
            fast = ext_scan(q, u).middles
            # element 0 of the oracle is the split middle
            slow = oracles.extensions_by_cocycles(q, u)[1:]
            assert all(sum(is_isomorphic(f, z) for z in slow) == 1 for f in fast)
            assert all(any(is_isomorphic(f, z) for f in fast) for z in slow)
