"""Tests of the benchmark itself: oracles, tracer and metric names.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import torslat as tl  # noqa: E402


def small_setup(tl, seed):
    return workloads.Workload([
        workloads.catalog_job(tl, "nak3p2", seed),
        workloads.verify_job(tl, "a2", tl.load_corpus_algebra("a2"), checks=122),
    ])


def lattice_setup(tl, seed):
    export = workloads.relabel_export(workloads.export_text("d4p3"), seed)
    digest = workloads.LATTICE_DIGESTS[("d4p3", "tors")]
    return workloads.Workload(
        [workloads.lattice_job(tl, "d4p3", "tors", 50, digest)],
        new_pass=lambda: {"cat:d4p3:tors": tl.from_json(export)},
    )


def errors(records):
    return [record[-1] for record in records]


def test_wrong_expected_count_is_a_failure():
    cases = dict(workloads.CATALOG_CASES, nak3p2=(None, (10, 20)))
    workload = workloads.Workload([workloads.catalog_job(tl, "nak3p2", 0, cases)])
    assert errors(run.run_pass(workload)) == ["9 indecomposables, expected 10"]


def test_wrong_class_count_is_a_failure():
    workload = workloads.Workload(
        [workloads.lattice_job(tl, "d4p3", "tors", 51, None)],
        new_pass=lambda: {"cat:d4p3:tors": tl.from_json(workloads.export_text("d4p3"))},
    )
    assert errors(run.run_pass(workload)) == ["50 classes, expected 51"]


def test_relabelled_inputs_keep_the_oracles():
    assert workloads.relabel_export(workloads.export_text("d4p3"), 0) == (
        workloads.export_text("d4p3")
    )
    for seed in (0, 1, 2):
        assert errors(run.run_pass(small_setup(tl, seed))) == [None, None]
        assert errors(run.run_pass(lattice_setup(tl, seed))) == [None]


def test_traced_counts_repeat_and_self_times_add_up():
    runs = [run.traced_run(tl, small_setup, 3) for _ in range(2)]
    counts = [
        {k: v for k, v in metrics.items() if tracing.unit_of(k) == "count"}
        for metrics, _, _ in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["modrep.hom_basis.calls"] > 0
    assert counts[0]["catalog.indecomposables"] == 9 + 3
    assert counts[0]["verify.checks"] == 122
    for metrics, passes, detail in runs:
        assert all(e is None for p in passes for e in errors(p))
        # the tracer's own cost in this pass, from the speed-scaled overhead
        traced_s = detail["raw_traced_s"]
        overhead = abs(metrics["trace.overhead_frac"]) * traced_s
        assert abs(detail["self_s_total"] - traced_s) <= overhead
        layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert 0 <= traced_s - layers <= overhead


def test_interval_sample_follows_the_wide_subcategories():
    stored = json.loads(workloads.read_text(os.path.join(workloads.DATA, "a7p2.tors.json")))
    hom_dim = json.loads(workloads.export_text("a7p2"))["tables"]["hom_dim"]
    wide = workloads.wide_subcategories(stored, hom_dim)
    # wide subcategories of A7 are the noncrossing partitions of 8 points,
    # counted by rank with Narayana numbers; rank 0 (W = 0) is left out
    ranks = [0] * 8
    for rank, _, _ in wide.values():
        ranks[rank] += 1
    assert ranks == [0, 28, 196, 490, 490, 196, 28, 1]
    sample = workloads.sample_intervals(stored, hom_dim, 5)
    assert sample != workloads.sample_intervals(stored, hom_dim, 6)
    assert len(sample) == 302
    gaps = {gap for gap, (_, _, found) in wide.items() for u, t, *_ in sample if (u, t) in found}
    assert len(gaps) == len(sample)
    shapes = {(r, n) for r, n, _ in wide.values()}
    assert {(r, n) for _, _, n, r in sample} == shapes - {(7, 1430)}


def test_percentiles_cover_the_named_requests():
    records = [("lattice", 9.0, None), ("interval:0", 0.002, None), ("interval:1", 0.004, None)]
    metrics = run.end_to_end_metrics([0.1], records, 50.0, "interval:")
    assert abs(metrics["wall_s"][0] - 9.006) < 1e-9
    assert metrics["request_p50_ms"][0] == 3.0
    assert run.end_to_end_metrics([0.1], records, 50.0)["request_p50_ms"][0] == 4.0


def test_tracer_restores_the_package():
    before = tl.build_catalog, tl.catalog.Catalog.hom_profile, tl.subcat._cached
    run.traced_run(tl, lattice_setup, 0)
    assert (tl.build_catalog, tl.catalog.Catalog.hom_profile, tl.subcat._cached) == before
    assert tl.verify.PROPERTY_FUNCS["duality"].__name__ == "_check_duality"


def test_removed_functions_read_as_zero(monkeypatch):
    monkeypatch.delattr(tl.catalog, "verify_closure")
    monkeypatch.delitem(tl.verify.PROPERTY_FUNCS, "duality")
    metrics, passes, _ = run.traced_run(tl, lattice_setup, 0)
    assert errors(passes[1]) == [None]
    assert metrics["catalog.verify_closure.s"] == 0.0
    assert metrics["verify.duality.s"] == 0.0
    assert metrics["lattice.nodes"] == 50
    assert metrics["subcat.op_cache.entries"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = tracing.per_layer_metrics(tracing.Tracer(tl), tl.verify.PROPERTIES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: tracing.unit_of(k) for k in per_layer
    }
    end_to_end = run.end_to_end_metrics([0.1], [("a", 0.5, None), ("b", 0.7, None)], 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in end_to_end.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SETUP)


def test_refuses_to_run_without_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "build-catalog",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
