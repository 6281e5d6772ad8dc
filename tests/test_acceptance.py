"""Acceptance gate: twelve criteria, one printed PASS/FAIL line each.

Run with -s to see the lines as they happen; without it they appear in the
captured output of failing tests.
"""

import hashlib
import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import oracles
import torslat
from torslat import verify, widelab
from torslat.lattice import build_lattice
from torslat.quivalg import parse_algebra_text


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {text}")
    return ok


@pytest.fixture(scope="module")
def full_results():
    named = [(n, verify.load_corpus_algebra(n)) for n in verify.CORPUS]
    return verify.run_verify(named)


def _failures(results, prop):
    return [r for r in results if r.prop == prop and not r.ok]


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    counts = {}
    for name in verify.CORPUS:
        cat = torslat.build_catalog(verify.load_corpus_algebra(name))
        assert len(cat.ind) <= 12
        lat = build_lattice(cat)
        brute = oracles.tors_masks_by_filtering(cat)
        assert set(oracles.node_sets(lat)) == brute, name
        counts[name] = len(brute)
    elapsed = time.perf_counter() - t0
    expected = {"a2": 5, "a3": 14, "a4": 42, "ss2": 4, "ppa2": 6}
    ok = all(counts[k] == v for k, v in expected.items())
    ok = ok and counts == oracles.TORS_COUNTS and elapsed < 60.0
    assert _line(
        1,
        ok,
        f"definitional filtering matches enumeration on all 8 algebras"
        f" in {elapsed:.1f}s; counts {counts}",
    )


def test_criterion_02_brick_labeling(full_results):
    bad = _failures(full_results, "brick-labels")
    checked = sum(1 for r in full_results if r.prop == "brick-labels")
    assert _line(
        2, not bad, f"three labeling identities on {checked} arrows, 0 failures"
    ), bad[:3]


def test_criterion_03_endpoint_structure(full_results):
    bad = _failures(full_results, "endpoint-arrows")
    assert _line(
        3, not bad, "arrows at the two endpoints match the simples exactly"
    ), bad[:3]


def test_criterion_04_incident_semibricks(full_results):
    bad = _failures(full_results, "incident-semibricks")
    checked = sum(1 for r in full_results if r.prop == "incident-semibricks")
    assert _line(
        4, not bad, f"in/out labels form semibricks at {checked} nodes"
    ), bad[:3]


def test_criterion_05_duality(full_results):
    bad = _failures(full_results, "duality")
    assert _line(
        5, not bad, "label-preserving anti-isomorphism holds arrow-by-arrow"
    ), bad[:3]


def test_criterion_06_three_way_wideness(full_results, lat_of):
    bad = _failures(full_results, "wide-detect")
    counts = {
        name: len(lat_of(name).intervals)
        for name in verify.CORPUS
    }
    ok = not bad and counts["a2"] == 13
    ok = ok and all(
        counts[n] >= len(lat_of(n)) for n in verify.CORPUS
    )
    assert _line(
        6,
        ok,
        f"direct/join/meet verdicts agree on every interval; counts {counts}",
    ), bad[:3]


def test_criterion_07_reduction(full_results):
    bad = _failures(full_results, "reduction")
    checked = sum(1 for r in full_results if r.prop == "reduction")
    assert _line(
        7,
        not bad,
        f"reduction isomorphism verified on {checked} wide intervals",
    ), bad[:3]


def test_criterion_08_serre_count(full_results, lat_of):
    bad = _failures(full_results, "serre-count") + _failures(
        full_results, "simples-out"
    )
    spot = len(widelab.wide_intervals_with_top(lat_of("a2"), 4))
    ok = not bad and spot == 4
    assert _line(
        8,
        ok,
        f"wide-interval counts equal 2^outdegree everywhere; a2 top gives {spot}",
    ), bad[:3]


def test_criterion_09_roundtrip(full_results, cat_of):
    bad = _failures(full_results, "roundtrip")
    a2_wides = len(widelab.enumerate_wide_subcats(cat_of("a2")))
    ok = not bad and a2_wides == 5
    assert _line(
        9,
        ok,
        f"every wide subcategory returns to itself; a2 has {a2_wides}",
    ), bad[:3]


def test_criterion_10_widely_generated(full_results):
    bad = _failures(full_results, "widely-generated")
    checked = sum(1 for r in full_results if r.prop == "widely-generated")
    assert _line(
        10,
        not bad,
        f"three conditions agree and hold at all {checked} nodes,"
        " canonical joins rebuild each class",
    ), bad[:3]


def test_criterion_11_lemma_audits(full_results):
    bad = _failures(full_results, "hom-audit") + _failures(
        full_results, "label-maps"
    )
    checked = sum(
        1 for r in full_results if r.prop in ("hom-audit", "label-maps")
    )
    assert _line(
        11,
        not bad,
        f"kernel/image audits pass on {checked} objects with 0 counterexamples",
    ), bad[:3]


def test_criterion_12_determinism(tmp_path):
    cmd = [sys.executable, "-m", "torslat", "verify", "--corpus"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = r1.returncode == r2.returncode == 0 and r1.stdout == r2.stdout

    corpus_dir = resources.files("torslat").joinpath("corpus")
    for name in verify.CORPUS:
        spec = str(corpus_dir.joinpath(f"{name}.alg"))
        pair = []
        for tag in ("x", "y"):
            cat_json = tmp_path / f"{name}-{tag}.json"
            dot = tmp_path / f"{name}-{tag}.dot"
            lat_json = tmp_path / f"{name}-{tag}-lat.json"
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "torslat",
                    "indec",
                    spec,
                    "--json",
                    str(cat_json),
                ],
                capture_output=True,
                check=True,
            )
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "torslat",
                    "lattice",
                    spec,
                    "--dot",
                    str(dot),
                    "--json",
                    str(lat_json),
                ],
                capture_output=True,
                check=True,
            )
            pair.append(
                (cat_json.read_bytes(), dot.read_bytes(), lat_json.read_bytes())
            )
        ok = ok and pair[0] == pair[1]
        json.loads(pair[0][0])
    assert _line(
        12, ok, "verify --corpus and every export byte-identical across runs"
    )


# sha256 of the verify --corpus report and of each corpus catalog's JSON
# export; a change here is a change of output, not of speed.
REPORT_SHA256 = (
    "b084032e656e9974d6ea097a0094971a338a4cf734e4352e286b50bc03548d6e"
)
CATALOG_SHA256 = {
    "a2": "7c7eee60e98db1695d6572ced0dd295f9858fa0cfeae1333c9ba4e23c6872e39",
    "a2r": "23696692a7df4ee1c769a59f11c8669939e55b2fda486c9650230848f600bbf0",
    "a3": "038f79b6cee1abecb27bd5fcacf7d4e5dd70355d9dc2e7d92fe0f5b58af34482",
    "a3s": "4c0b539a67c2de9fcb0c91f85ce20ff3de1cd72fa702ae035519c78ee51f82c5",
    "a4": "419629c62838a6a76d720ad2a069b149fa7249e108d11217e4d4a4c540965425",
    "ss2": "63a824d5350fb6b58261cf5aa3f8a912bf72108c9d886e371a65ccceaec7c340",
    "ppa2": "bad2b20956be6586668a9a14e9d2061dbf4cac810434e5a2530a914d974512e9",
    "nak3": "a55de12cbbbe9c490c65320fa60817c57fe05ef66f34c97880a7c02f0c2b1078",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_are_pinned(full_results, cat_of):
    assert _sha256(verify.format_report(full_results)[0]) == REPORT_SHA256
    got = {name: _sha256(torslat.to_json(cat_of(name))) for name in verify.CORPUS}
    assert got == CATALOG_SHA256


# copies of scale specs of the benchmark, with the sha256 of each catalog's
# JSON export; d4@p3 is the one whose representatives once moved when the
# discovery order changed
SCALE_SPECS = {
    "d4p3": "vertices 4\narrow a 2 1\narrow b 3 1\narrow c 4 1\nprime 3\n",
    "kx3p2": "vertices 1\narrow x 1 1\nrelation x x x\nprime 2\n",
    "a4p5": "vertices 4\narrow a1 1 2\narrow a2 2 3\narrow a3 3 4\nprime 5\n",
    "nak3p2": (
        "vertices 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\nrelation a b c"
        "\nrelation b c a\nrelation c a b\nprime 2\n"
    ),
}
SCALE_CATALOG_SHA256 = {
    "d4p3": "9d397cbd2caa5d9bf74690b21b2fcebc674dc58b823cc683f1cfbd3e7a7ef068",
    "kx3p2": "480b5d93256e414a78c9e9378f32c625b5874b28229f98658f1d2a7a3e12bb37",
    "a4p5": "4d1393676706b88922dad3156ef86b9e486c3eb5fd06f2086b3749bc7d750c6f",
    "nak3p2": "c5164129c1e5337ad6f16ee5b4cbbc5d537f3420be7abd493f57bc205aba8e4a",
}


def test_scale_catalogs_are_pinned():
    got = {
        name: _sha256(torslat.to_json(torslat.build_catalog(parse_algebra_text(text))))
        for name, text in SCALE_SPECS.items()
    }
    assert got == SCALE_CATALOG_SHA256


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_benchmark_exports_match_their_specs():
    # the committed catalog exports the benchmark loads, read only: a6p2 and
    # a7p2 byte for byte, which pins their "bricks" fields; d4p3's matrices
    # predate the current discovery order, so only its names and tables
    for name in ("a6p2", "a7p2", "d4p3"):
        spec = (BENCH / "specs" / f"{name}.alg").read_text()
        built = torslat.to_json(torslat.build_catalog(parse_algebra_text(spec)))
        export = (BENCH / "data" / f"{name}.catalog.json").read_text()
        if name == "d4p3":
            built, export = json.loads(built), json.loads(export)
            assert built["names"] == export["names"]
            assert built["tables"] == export["tables"]
        else:
            assert built == export


# linear A6 at p = 2, a copy of the benchmark's a6p2 spec, whose verify job
# is most of the verify-suite workload; the sha256 of `torslat verify
# a6p2.alg`, byte for byte
A6_P2 = (
    "vertices 6\narrow a1 1 2\narrow a2 2 3\narrow a3 3 4\narrow a4 4 5"
    "\narrow a5 5 6\nprime 2\n"
)
A6_REPORT_SHA256 = (
    "e438055f127a2e8cb50d96080f693fceccddc671a1250d3100ad892896c8d3ac"
)


def test_a6_report_is_pinned():
    results = verify.run_verify([("a6p2", parse_algebra_text(A6_P2))])
    text, failures = verify.format_report(results)
    assert (len(results), failures) == (70172, 0)
    assert _sha256(text) == A6_REPORT_SHA256


def test_every_public_name_resolves():
    # a removed export must not leave its name behind in __all__
    missing = [name for name in torslat.__all__ if not hasattr(torslat, name)]
    assert missing == []
    assert len(set(torslat.__all__)) == len(torslat.__all__)
