import json
import subprocess
import sys
from importlib import resources

import pytest

from torslat import cli
from torslat.catalog import build_catalog
from torslat.config import DEFAULT_CONFIG
from torslat.errors import (
    DecomposeBlowup,
    IsoSearchBlowup,
    LatticeBlowup,
    NotClosed,
    PathBlowup,
    SubspaceBlowup,
)
from torslat.lattice import build_lattice
from torslat.quivalg import parse_algebra_text
from torslat.verify import run_verify


def corpus_path(name):
    return str(resources.files("torslat").joinpath(f"corpus/{name}.alg"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "torslat", *args],
        capture_output=True,
        text=True,
    )


def test_indec_lists_modules():
    res = run_cli("indec", corpus_path("a2"))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "3 indecomposables"
    assert lines[1] == "01a dims=0,1 total=1"
    assert lines[3] == "11a dims=1,1 total=2"


def test_indec_ppa2_count():
    res = run_cli("indec", corpus_path("ppa2"))
    assert res.stdout.splitlines()[0] == "4 indecomposables"


def test_indec_json_export(tmp_path):
    out = tmp_path / "cat.json"
    res = run_cli("indec", corpus_path("a2"), "--json", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["ind"]) == 3


def test_lattice_counts_and_exports(tmp_path):
    dot1, dot2 = tmp_path / "1.dot", tmp_path / "2.dot"
    js1, js2 = tmp_path / "1.json", tmp_path / "2.json"
    r1 = run_cli("lattice", corpus_path("a3"), "--dot", str(dot1), "--json", str(js1))
    r2 = run_cli("lattice", corpus_path("a3"), "--dot", str(dot2), "--json", str(js2))
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout.splitlines()[0] == "14 nodes, 21 arrows"
    assert dot1.read_bytes() == dot2.read_bytes()
    assert js1.read_bytes() == js2.read_bytes()


def test_lattice_ss2():
    res = run_cli("lattice", corpus_path("ss2"))
    assert res.stdout.splitlines()[0] == "4 nodes, 4 arrows"


def test_interval_check_wide():
    res = run_cli(
        "interval", corpus_path("a2"), "0", "10a,11a", "--check-wide"
    )
    assert res.returncode == 0
    assert "wide: no" in res.stdout
    assert "verdicts: direct=no join=no meet=no" in res.stdout


def test_interval_point_is_wide():
    res = run_cli("interval", corpus_path("a2"), "10a", "10a", "--check-wide")
    assert res.returncode == 0
    assert "wide: yes" in res.stdout
    assert "gap: {}" in res.stdout


def test_interval_reduce():
    res = run_cli(
        "interval", corpus_path("a2"), "10a", "10a,11a", "--reduce"
    )
    assert res.returncode == 0
    assert "reduced lattice: 2 nodes, 1 arrows" in res.stdout
    assert "phi {10a} -> {}" in res.stdout
    assert "phi {10a,11a} -> {11a}" in res.stdout


def test_interval_reduce_non_wide_is_precondition_error():
    res = run_cli("interval", corpus_path("a2"), "0", "10a,11a", "--reduce")
    assert res.returncode == 4
    assert "not wide" in res.stderr


def test_interval_not_comparable_is_usage_error():
    res = run_cli("interval", corpus_path("a2"), "10a,11a", "10a")
    assert res.returncode == 3


def test_interval_non_node_is_usage_error():
    res = run_cli("interval", corpus_path("a2"), "0", "11a")
    assert res.returncode == 3
    res = run_cli("interval", corpus_path("a2"), "0", "zz")
    assert res.returncode == 3


def test_verify_single_algebra():
    res = run_cli("verify", corpus_path("a2"), "--props", "brick-labels")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[-2] == "checks run: 5"
    assert lines[-1] == "failures: 0"
    assert all(l.startswith("PASS a2 brick-labels ") for l in lines[:-2])


def test_verify_unknown_property():
    res = run_cli("verify", corpus_path("a2"), "--props", "bogus")
    assert res.returncode == 3
    assert "unknown property" in res.stderr


def test_verify_needs_spec_or_corpus():
    res = run_cli("verify")
    assert res.returncode == 3
    res = run_cli("verify", corpus_path("a2"), "--corpus")
    assert res.returncode == 3


def test_resource_exit_code(tmp_path):
    spec = tmp_path / "loop.alg"
    spec.write_text("vertices 1\narrow x 1 1\nprime 2\n")
    res = run_cli("indec", str(spec), "--path-budget", "16")
    assert res.returncode == 2
    assert "path basis" in res.stderr


def test_ext_budget_exit_code(tmp_path, capsys):
    # Kronecker at p=3: Ext^1 between the simples has 3^2 elements
    spec = tmp_path / "kron3.alg"
    spec.write_text("vertices 2\narrow a 1 2\narrow b 1 2\nprime 3\n")
    assert cli.main(["indec", str(spec), "--ext-budget", "8"]) == 2
    assert "budget 8 (--ext-budget)" in capsys.readouterr().err


def test_bad_spec_exit_code(tmp_path):
    spec = tmp_path / "bad.alg"
    spec.write_text("vertices 2\nprime 6\n")
    res = run_cli("indec", str(spec))
    assert res.returncode == 3


def test_verify_corpus_subset_deterministic():
    r1 = run_cli("verify", corpus_path("nak3"), "--props", "reduction,duality")
    r2 = run_cli("verify", corpus_path("nak3"), "--props", "reduction,duality")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("indec", "{tmp}/missing.alg"),
        ("verify", "{tmp}"),
        ("lattice", "{tmp}/binary.alg"),
        ("indec", "{a2}", "--json", "{tmp}/no-dir/cat.json"),
        ("lattice", "{a2}", "--dot", "{tmp}/no-dir/lat.dot"),
        ("lattice", "{a2}", "--json", "{tmp}/no-dir/lat.json"),
        ("indec", "{a2}", "--dim-bound", "0"),
        ("lattice", "{a2}", "--node-budget", "-1"),
    ],
)
def test_bad_paths_and_budgets_are_usage_errors(argv, tmp_path, capsys):
    (tmp_path / "binary.alg").write_bytes(b"vertices \xff\n")
    args = [a.format(tmp=tmp_path, a2=corpus_path("a2")) for a in argv]
    assert cli.main(args) == 3
    assert capsys.readouterr().err.startswith("error: ")


# spec texts of the budget cases; a bare name is a corpus algebra
BUDGET_SPECS = {
    "kron2": "vertices 2\narrow a 1 2\narrow b 1 2\nprime 2\n",
    # D4 with three arrows into the centre: Hom(P_centre, M) is 2-dimensional
    # for the indecomposable M with dims (2,1,1,1), though every End is a field
    "d4p2": "vertices 4\narrow a 2 1\narrow b 3 1\narrow c 4 1\nprime 2\n",
    "kx3p2": "vertices 1\narrow x 1 1\nrelation x x x\nprime 2\n",
}


def _lattice_of(text, cfg):
    return build_lattice(build_catalog(parse_algebra_text(text, cfg), cfg))


def _hom_audit(text, cfg):
    return run_verify([("spec", parse_algebra_text(text, cfg))], ["hom-audit"], cfg)


@pytest.mark.parametrize(
    "flag,value,error,spec,argv,call",
    [
        ("--dim-bound", 2, NotClosed, "kron2", ["indec"], _lattice_of),
        ("--path-budget", 4, PathBlowup, "a4", ["indec"], _lattice_of),
        ("--iso-budget", 1, DecomposeBlowup, "kx3p2", ["indec"], _lattice_of),
        ("--iso-budget", 2, IsoSearchBlowup, "d4p2", ["verify", "--props", "hom-audit"], _hom_audit),
        ("--subspace-budget", 4, SubspaceBlowup, "a4", ["indec"], _lattice_of),
        ("--ext-budget", 2, SubspaceBlowup, "kron2", ["indec"], _lattice_of),
        ("--node-budget", 10, LatticeBlowup, "a4", ["lattice"], _lattice_of),
    ],
    ids=["dim", "path", "iso-decompose", "iso-hom-rays", "subspace", "ext", "node"],
)
def test_budget_errors_name_their_flag(flag, value, error, spec, argv, call, tmp_path, capsys):
    if spec in BUDGET_SPECS:
        path = tmp_path / f"{spec}.alg"
        path.write_text(BUDGET_SPECS[spec])
    else:
        path = corpus_path(spec)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cfg = DEFAULT_CONFIG.with_overrides(**{flag[2:].replace("-", "_"): value})
    with pytest.raises(error, match=rf"\({flag}\)"):
        call(text, cfg)
    assert cli.main([argv[0], str(path), *argv[1:], flag, str(value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {value} ({flag})" in err
