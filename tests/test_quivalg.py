import pytest

from torslat import verify as verify_mod
from torslat.config import DEFAULT_CONFIG
from torslat.errors import BadRelation, PathBlowup, SpecParseError
from torslat.quivalg import (
    Arrow,
    Quiver,
    build_algebra,
    parse_algebra_text,
    projective_module,
    simple_module,
)


def test_a2_path_basis():
    alg = verify_mod.load_corpus_algebra("a2")
    assert alg.dim == 3
    assert sorted(p.names for p in alg.path_basis) == [(), (), ("a",)]


def test_ppa2_relations_prune_paths():
    alg = verify_mod.load_corpus_algebra("ppa2")
    # e1, e2, a, b survive; ab and ba die
    assert alg.dim == 4
    assert all(len(p.names) <= 1 for p in alg.path_basis)


def test_nak3_dimension():
    alg = verify_mod.load_corpus_algebra("nak3")
    assert alg.dim == 6
    assert alg.prime == 3


def test_loop_without_relations_blows_up():
    q = Quiver(1, (Arrow("x", 0, 0),))
    with pytest.raises(PathBlowup):
        build_algebra(q, (), 2, DEFAULT_CONFIG.with_overrides(path_budget=16))


def test_relation_names_must_exist():
    q = Quiver(2, (Arrow("a", 0, 1),))
    with pytest.raises(BadRelation):
        build_algebra(q, (("a", "zz"),), 2)


def test_relation_must_compose():
    q = Quiver(2, (Arrow("a", 0, 1),))
    with pytest.raises(BadRelation):
        build_algebra(q, (("a", "a"),), 2)


@pytest.mark.parametrize(
    "text",
    [
        "arrow a 1 2\nprime 2\n",
        "vertices 2\narrow a 1 3\nprime 2\n",
        "vertices 2\nprime 6\n",
        "vertices 2\nbogus line\nprime 2\n",
        "vertices 2\n",
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(SpecParseError):
        parse_algebra_text(text)


def test_parse_accepts_comments_and_blanks():
    alg = parse_algebra_text("# chain\n\nvertices 2\narrow a 1 2\nprime 3\n")
    assert alg.prime == 3
    assert alg.quiver.vertex_count == 2


def test_simple_module_shape():
    alg = verify_mod.load_corpus_algebra("a2")
    s = simple_module(alg, 0)
    assert s.dims == (1, 0)
    assert s.total_dim == 1


def test_projective_dims_match_paths():
    alg = verify_mod.load_corpus_algebra("a4")
    p0 = projective_module(alg, 0)
    # paths from the source reach every vertex once
    assert p0.dims == (1, 1, 1, 1)
    p3 = projective_module(alg, 3)
    assert p3.dims == (0, 0, 0, 1)


def test_projective_respects_relations():
    alg = verify_mod.load_corpus_algebra("nak3")
    for v in range(3):
        pv = projective_module(alg, v)
        assert pv.total_dim == 2
