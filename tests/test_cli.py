import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from torslat import cli, verify as verify_mod, widelab
from torslat.catalog import build_catalog
from torslat.config import DEFAULT_CONFIG
from torslat.errors import (
    DecomposeBlowup,
    LatticeBlowup,
    NotClosed,
    PathBlowup,
    ResourceError,
    SubspaceBlowup,
    TheoremViolation,
)
from torslat.lattice import build_lattice
from torslat.quivalg import parse_algebra_text
from test_acceptance import REPORT_SHA256
from torslat.verify import CORPUS, format_report, load_corpus_algebra, run_verify


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


A3_INTERVAL_STDOUT = {
    # wide: the reduction prints its lattice and phi
    ("100a", "001a,100a,110a,111a"): (
        0,
        "interval [{100a},{001a,100a,110a,111a}]: 5 nodes\n"
        "wide: yes\n"
        "gap: {001a,110a,111a}\n"
        "verdicts: direct=yes join=yes meet=yes\n"
        "reduced lattice: 5 nodes, 5 arrows\n"
        "phi {100a} -> {}\n"
        "phi {001a,100a} -> {001a}\n"
        "phi {100a,110a} -> {110a}\n"
        "phi {100a,110a,111a} -> {110a,111a}\n"
        "phi {001a,100a,110a,111a} -> {001a,110a,111a}\n",
        "",
    ),
    # not wide: the verdicts print, then the reduction refuses
    ("100a", "010a,100a,110a,111a"): (
        4,
        "interval [{100a},{010a,100a,110a,111a}]: 5 nodes\n"
        "wide: no\n"
        "gap: {010a,110a,111a}\n"
        "verdicts: direct=no join=no meet=no\n",
        "error: [{100a}, {010a,100a,110a,111a}] is not wide\n",
    ),
}


@pytest.mark.parametrize("bottom,top", sorted(A3_INTERVAL_STDOUT))
def test_interval_check_wide_reduce_output_is_pinned(bottom, top, capsys):
    code, stdout, stderr = A3_INTERVAL_STDOUT[bottom, top]
    out = io.StringIO()
    argv = ["interval", corpus_path("a3"), bottom, top, "--check-wide", "--reduce"]
    assert cli.main(argv, out=out) == code
    assert out.getvalue() == stdout
    assert capsys.readouterr().err == stderr


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("vertices 2\nprime 2\nprime 3\n", 3),
        ("vertices 2 7\nprime 2\n", 1),
        ("vertices 2\nprime 2 5\n", 2),
    ],
)
def test_spec_directive_errors_name_the_line(text, line, tmp_path, capsys):
    # a repeated prime and extra tokens are rejected, not silently dropped
    spec = tmp_path / "bad.alg"
    spec.write_text(text)
    assert cli.main(["indec", str(spec)]) == 3
    assert f"line {line}: " in capsys.readouterr().err


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
    # more trivial paths than the default budget
    "vertices": "vertices 5000\nprime 2\n",
}


@pytest.mark.parametrize(
    "flag,value,error,spec,command",
    [
        ("--dim-bound", 2, NotClosed, "kron2", "indec"),
        ("--path-budget", 4, PathBlowup, "a4", "indec"),
        ("--path-budget", 1024, PathBlowup, "vertices", "indec"),
        ("--iso-budget", 1, DecomposeBlowup, "kx3p2", "indec"),
        ("--subspace-budget", 4, SubspaceBlowup, "a4", "indec"),
        ("--ext-budget", 2, SubspaceBlowup, "kron2", "indec"),
        ("--node-budget", 10, LatticeBlowup, "a4", "lattice"),
    ],
    ids=["dim", "path", "path-vertices", "iso-decompose", "subspace", "ext", "node"],
)
def test_budget_errors_name_their_flag(
    flag, value, error, spec, command, tmp_path, capsys
):
    if spec in BUDGET_SPECS:
        path = tmp_path / f"{spec}.alg"
        path.write_text(BUDGET_SPECS[spec])
    else:
        path = corpus_path(spec)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cfg = DEFAULT_CONFIG.with_overrides(**{flag[2:].replace("-", "_"): value})
    with pytest.raises(error, match=rf"\({flag}\)"):
        build_lattice(build_catalog(parse_algebra_text(text, cfg), cfg))
    assert cli.main([command, str(path), flag, str(value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {value} ({flag})" in err


def test_the_iso_budget_leaves_a_verify_report_as_it_is(tmp_path):
    # d4p2's Hom(P_centre, M) has 3 rays, but no command enumerates a Hom
    # space: the Hom table and the brick flags are read off the subfactor
    # table, so an iso budget of 2 leaves the report as it is
    path = tmp_path / "d4p2.alg"
    path.write_text(BUDGET_SPECS["d4p2"])
    default, capped = io.StringIO(), io.StringIO()
    assert cli.main(["verify", str(path)], out=default) == 0
    assert cli.main(["verify", str(path), "--iso-budget", "2"], out=capped) == 0
    assert capped.getvalue() == default.getvalue()


def _corpus_named():
    return [(n, load_corpus_algebra(n)) for n in CORPUS]


def _plant_a_failure(monkeypatch, prop="widely-generated"):
    # prop's checks run as before, and one more check after them fails
    checks = verify_mod.PROPERTY_FUNCS[prop]

    def planted(ctx):
        yield from checks(ctx)

        def fail():
            raise TheoremViolation("planted")

        yield "planted", fail

    monkeypatch.setitem(verify_mod.PROPERTY_FUNCS, prop, planted)


@pytest.mark.parametrize(
    "argv, props, failed",
    [
        (["--corpus"], None, False),
        (
            ["--corpus", "--props", "serre-count, duality"],
            ["serre-count", "duality"],
            False,
        ),
        (["--corpus"], None, True),
    ],
    ids=["corpus", "props", "planted-fail"],
)
def test_streamed_report_matches_the_list_report(monkeypatch, argv, props, failed):
    if failed:
        _plant_a_failure(monkeypatch)
    out = io.StringIO()
    status = cli.main(["verify", *argv], out=out)
    text, failures = format_report(run_verify(_corpus_named(), props))
    assert out.getvalue() == text
    assert status == (1 if failed else 0)
    assert failures == len(CORPUS if failed else ())
    if not (failed or props):
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


def test_verify_writes_lines_before_the_last_property_starts(monkeypatch):
    out = io.StringIO()
    seen = []
    checks = verify_mod.PROPERTY_FUNCS["widely-generated"]

    def last(ctx):
        seen.append(out.getvalue())
        yield from checks(ctx)

    monkeypatch.setitem(verify_mod.PROPERTY_FUNCS, "widely-generated", last)
    assert cli.main(["verify", corpus_path("a2")], out=out) == 0
    assert seen and seen[0].startswith("PASS a2 brick-labels {01a}->{}\n")
    assert out.getvalue().startswith(seen[0])


class _ClosingPipe(io.StringIO):
    """Keeps its first write; every later one raises like a closed pipe."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("failed", [False, True], ids=["pass", "planted-fail"])
def test_verify_exit_status_survives_a_closed_stdout(monkeypatch, capsys, failed):
    if failed:
        _plant_a_failure(monkeypatch)
    out = _ClosingPipe()
    assert cli.main(["verify", corpus_path("a3")], out=out) == (1 if failed else 0)
    assert out.getvalue() == "PASS a3 brick-labels {001a}->{}\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, lines",
    [
        # like `torslat verify --corpus | head -1`: the report is far longer
        # than a pipe holds, so the writes after the reader leaves fail
        (["--corpus"], 1),
        # a short report waits in the stdout buffer until the last flush,
        # which finds the reader gone
        ([corpus_path("a2"), "--props", "endpoint-arrows"], 0),
    ],
    ids=["corpus-head-1", "a2-buffered"],
)
def test_verify_into_a_pipe_the_reader_closes(argv, lines):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "torslat", "verify", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    first = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    with proc.stderr:
        assert proc.stderr.read() == ""
    assert first == ["PASS a2 brick-labels {01a}->{}\n"][:lines]


@pytest.mark.parametrize(
    "props", [",", "", " , ", "duality,duality", "duality, roundtrip,duality"]
)
def test_verify_rejects_empty_and_repeated_props(props, capsys):
    out = io.StringIO()
    assert cli.main(["verify", corpus_path("a2"), "--props", props], out=out) == 3
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("twice" if "duality" in props else "no property selected") in err


def _plant_a_resource_error(monkeypatch):
    # the first call of widelab.left_wide raises, as a budget error would
    def planted(lat, node):
        raise ResourceError("planted at the first left_wide call")

    monkeypatch.setattr(widelab, "left_wide", planted)


def test_an_escaped_error_leaves_the_lines_before_it(monkeypatch, tmp_path, capsys):
    # with the planted error, d4p2's run stops at the first call of
    # left_wide; roundtrip is the first property to call it, so the lines of
    # the properties before it stay
    path = tmp_path / "d4p2.alg"
    path.write_text(BUDGET_SPECS["d4p2"])
    full = io.StringIO()
    assert cli.main(["verify", str(path)], out=full) == 0
    capsys.readouterr()
    _plant_a_resource_error(monkeypatch)
    out = io.StringIO()
    assert cli.main(["verify", str(path)], out=out) == 2
    assert capsys.readouterr().err == "error: planted at the first left_wide call\n"
    text = out.getvalue()
    assert text.endswith("\n") and full.getvalue().startswith(text)
    props = {line.split(" ")[2] for line in text.splitlines()}
    first_to_read = verify_mod.PROPERTIES.index("roundtrip")
    assert props == set(verify_mod.PROPERTIES[:first_to_read])
    assert "checks run:" not in text and "failures:" not in text
