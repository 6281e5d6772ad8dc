import gc
import math
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import torslat
from torslat import subcat, verify, widelab
from torslat.catalog import Catalog
from torslat.errors import TheoremViolation, UnknownProperty
from conftest import NAKAYAMA_5_5, names_to_bits
from oracles import to_set
from test_acceptance import A6_P2
from torslat.lattice import HasseArrow, TorsLattice, build_lattice
from torslat.quivalg import parse_algebra_text

A2_OBJECT_COUNTS = {
    "brick-labels": 5,
    "duality": 13,
    "endpoint-arrows": 2,
    "incident-semibricks": 5,
    "reduction": 11,
    "wide-detect": 13,
    "lower-filt": 13,
    "roundtrip": 5,
    "hom-audit": 11,
    "serre-mutation": 11,
    "label-maps": 5,
    "simples-out": 5,
    "wide-serre": 13,
    "serre-count": 5,
    "widely-generated": 5,
}


@pytest.fixture(scope="module")
def a2_results():
    return verify.run_verify([("a2", verify.load_corpus_algebra("a2"))])


def test_a2_passes_every_check(a2_results):
    assert all(r.ok for r in a2_results)
    assert len(a2_results) == sum(A2_OBJECT_COUNTS.values())


def test_a2_object_counts(a2_results):
    for prop, want in A2_OBJECT_COUNTS.items():
        got = sum(1 for r in a2_results if r.prop == prop)
        assert got == want, prop


def test_report_format(a2_results):
    text, failures = verify.format_report(a2_results)
    lines = text.splitlines()
    assert failures == 0
    assert lines[-2] == f"checks run: {len(a2_results)}"
    assert lines[-1] == "failures: 0"
    for line in lines[:-2]:
        head, alg, prop, obj = line.split(" ", 3)
        assert head == "PASS"
        assert alg == "a2"
        assert prop in verify.PROPERTIES
        assert " " not in obj


def test_failure_line_format():
    bad = verify.CheckResult("x", "brick-labels", "o", False, "witness text")
    text, failures = verify.format_report([bad])
    assert failures == 1
    assert text.splitlines()[0] == "FAIL x brick-labels o :: witness text"
    assert text.splitlines()[-1] == "failures: 1"


def test_props_subset():
    alg = verify.load_corpus_algebra("a2")
    res = verify.run_verify([("a2", alg)], props=("duality", "serre-count"))
    assert {r.prop for r in res} == {"duality", "serre-count"}


def test_unknown_property_rejected():
    with pytest.raises(UnknownProperty):
        verify.validate_props(("duality", "nonsense"))


@pytest.mark.parametrize(
    "props", [(), ("duality", "duality"), ("roundtrip", "duality", "roundtrip")]
)
def test_empty_and_repeated_selections_rejected(props):
    with pytest.raises(UnknownProperty):
        verify.validate_props(props)
    with pytest.raises(UnknownProperty):
        verify.run_verify([("a2", verify.load_corpus_algebra("a2"))], props)


def test_a_bare_string_selection_is_rejected_by_its_name():
    # a string is iterable, but its characters are no property names
    alg = verify.load_corpus_algebra("a2")
    for call in (
        lambda: verify.validate_props("reduction"),
        lambda: verify.run_verify([("a2", alg)], "reduction"),
        lambda: next(verify.iter_checks([("a2", alg)], "reduction")),
    ):
        with pytest.raises(UnknownProperty, match="sequence of names") as info:
            call()
        assert "'reduction'" in str(info.value)


def test_shared_object_names_and_slotted_results():
    # a name that several properties print is one string object per algebra
    results = verify.run_verify([("a4", verify.load_corpus_algebra("a4"))])
    assert not hasattr(results[0], "__dict__")
    objs = {}
    for r in results:
        objs.setdefault(r.prop, []).append(r.obj)
    intervals = objs["wide-detect"]
    assert len(set(intervals)) == len(intervals) > len(objs["reduction"])
    for a, b, c in zip(intervals, objs["lower-filt"], objs["wide-serre"], strict=True):
        assert a is b is c
    # reduction names the wide intervals only
    shared = dict(zip(intervals, intervals))
    assert all(shared[o] is o for o in objs["reduction"])
    for a, b in zip(objs["brick-labels"], objs["label-maps"], strict=True):
        assert a is b
    for a, b in zip(objs["hom-audit"], objs["serre-mutation"], strict=True):
        assert a is b


def test_format_report_reads_a_stream():
    named = [(n, verify.load_corpus_algebra(n)) for n in ("a2", "a3")]
    results = verify.run_verify(named)
    assert len(results) > 300
    text, failures = verify.format_report(verify.iter_checks(named))
    assert (text, failures) == verify.format_report(results)
    assert text == "".join(map(verify.format_line, results)) + (
        f"checks run: {len(results)}\nfailures: 0\n"
    )


_names = st.text(alphabet="ab1[],|->", min_size=1, max_size=4)


@given(
    st.lists(
        st.builds(
            verify.CheckResult,
            st.sampled_from(("a2", "a3", "x")),
            st.sampled_from(verify.PROPERTIES[:3]),
            _names,
            st.booleans(),
            _names,
        ),
        max_size=30,
    )
)
def test_format_report_matches_its_lines(results):
    # PASS and FAIL lines interleaved over several algebras and properties:
    # a head string shared across the wrong (algebra, property) would show
    want = "".join(map(verify.format_line, results)) + verify.format_summary(
        len(results), sum(not r.ok for r in results)
    )
    for given_as in (results, iter(results)):
        text, failures = verify.format_report(given_as)
        assert text == want
        assert failures == sum(not r.ok for r in results)


def test_format_report_holds_the_text_once():
    # beyond the results, the report holds the text, the list of pieces it
    # is joined from (three references a PASS line) and the shared heads:
    # well under a second copy of the text
    results = verify.run_verify(
        [(n, verify.load_corpus_algebra(n)) for n in verify.CORPUS]
    )
    gc.collect()
    tracemalloc.start()
    try:
        text, _ = verify.format_report(results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * sys.getsizeof(text)


def _corpus_named():
    return [(n, verify.load_corpus_algebra(n)) for n in verify.CORPUS]


def test_run_verify_reads_as_the_stream_on_the_corpus():
    named = _corpus_named()
    assert list(verify.run_verify(named)) == list(verify.iter_checks(named))


def test_results_index_and_slice_as_the_stream_does():
    named = [(n, verify.load_corpus_algebra(n)) for n in ("a2", "ss2")]
    results = verify.run_verify(named)
    want = list(verify.iter_checks(named))
    assert len(results) == len(want) > 100
    for i in range(-len(want), len(want)):
        assert results[i] == want[i]
    for s in (
        slice(None),
        slice(3, 40),
        slice(-5, None),
        slice(10, 2),
        slice(1, 500, 3),
        slice(None, None, -7),
    ):
        assert results[s] == want[s]
    for i in (len(want), len(want) + 5, -len(want) - 1):
        with pytest.raises(IndexError):
            results[i]


def _plant_a_failure_and_a_setup_error(monkeypatch):
    # duality fails on its second object; roundtrip raises after its third
    duality = verify.PROPERTY_FUNCS["duality"]
    roundtrip = verify.PROPERTY_FUNCS["roundtrip"]

    def failing(ctx):
        for k, (obj, thunk) in enumerate(duality(ctx)):
            if k == 1:
                def thunk():
                    raise TheoremViolation("planted fail")
            yield obj, thunk

    def raising(ctx):
        for k, item in enumerate(roundtrip(ctx)):
            if k == 3:
                raise TheoremViolation("planted setup")
            yield item

    monkeypatch.setitem(verify.PROPERTY_FUNCS, "duality", failing)
    monkeypatch.setitem(verify.PROPERTY_FUNCS, "roundtrip", raising)


def test_failed_and_setup_records_read_alike_on_every_path(monkeypatch):
    _plant_a_failure_and_a_setup_error(monkeypatch)
    named = [(n, verify.load_corpus_algebra(n)) for n in ("a2", "a3")]
    results = verify.run_verify(named)
    stream = list(verify.iter_checks(named))
    assert list(results) == [results[i] for i in range(len(results))] == stream
    bad = [r for r in stream if not r.ok]
    second = {
        alg: [r.obj for r in stream if (r.algebra, r.prop) == (alg, "duality")][1]
        for alg in ("a2", "a3")
    }
    assert bad == [
        verify.CheckResult("a2", "duality", second["a2"], False, "planted fail"),
        verify.CheckResult("a2", "roundtrip", "(setup)", False, "planted setup"),
        verify.CheckResult("a3", "duality", second["a3"], False, "planted fail"),
        verify.CheckResult("a3", "roundtrip", "(setup)", False, "planted setup"),
    ]
    for alg in ("a2", "a3"):
        assert sum((r.algebra, r.prop) == (alg, "roundtrip") for r in stream) == 4
    text, failures = verify.format_report(results)
    assert failures == 4
    assert (text, failures) == verify.format_report(verify.iter_checks(named))
    assert (text, failures) == verify.format_report(stream)
    assert text == "".join(map(verify.format_line, stream)) + verify.format_summary(
        len(stream), 4
    )


def test_run_verify_keeps_under_64_bytes_a_result():
    # the results keep one list slot per check (8 B, with the list's spare
    # room) and the objects' names, which the checks of an algebra share
    # (an interval's name serves up to four properties); the runs and the
    # failures add a few entries.  A record per check kept 131 B
    named = _corpus_named()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        results = verify.run_verify(named)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 4258
    assert (after - before) / len(results) < 64


def test_corpus_names_all_load():
    for name in verify.CORPUS:
        alg = verify.load_corpus_algebra(name)
        assert alg.quiver.vertex_count >= 1


def test_verify_enumerates_the_intervals_once(monkeypatch, cat_of):
    # every interval property reads one tuple of the torsion lattice
    calls = []
    intervals = TorsLattice.intervals.func

    def counting(lat):
        calls.append((lat.side, lat.ambient))
        return intervals(lat)

    prop = cached_property(counting)
    prop.__set_name__(TorsLattice, "intervals")
    monkeypatch.setattr(TorsLattice, "intervals", prop)
    results = verify.run_verify([("a3", verify.load_corpus_algebra("a3"))])
    assert {r.prop for r in results} == set(verify.PROPERTIES)
    assert all(r.ok for r in results)
    assert calls == [("tors", cat_of("a3").full_mask)]


@pytest.mark.parametrize("name", verify.CORPUS + ("nak55",))
def test_context_verdicts_match_the_mask_oracle(name):
    # the per-top verdicts of AlgebraContext on every interval, N_5^5's too
    text = NAKAYAMA_5_5 if name == "nak55" else verify.corpus_text(name)
    ctx = verify.AlgebraContext(name, parse_algebra_text(text))
    lat = ctx.lat
    assert [(iv.bottom, iv.top) for iv in lat.intervals] == (
        oracles.intervals_by_subsets(lat)
    )
    nodes = oracles.node_sets(lat)
    wide = 0
    for iv, verdict in zip(lat.intervals, ctx.wide_verdicts, strict=True):
        gap, *readings = oracles.is_wide_interval(lat, nodes, iv)
        assert verdict is None or type(verdict) is int
        assert readings == [verdict is not None] * 3
        if verdict is not None:
            assert to_set(verdict) == gap
            wide += 1
    # every interval of ss2's Boolean lattice is wide
    assert 0 < wide <= len(lat.intervals)


def test_serre_mutation_runs_once_per_top_and_piece(monkeypatch, lat_of):
    # serre-count's Serre route reads the bottoms serre-mutation found
    calls = []
    body = widelab._serre_bottom

    def counting(lat, t, w):
        calls.append((lat.node_bits[t], w))
        return body(lat, t, w)

    monkeypatch.setattr(widelab, "_serre_bottom", counting)
    results = verify.run_verify([("a4", verify.load_corpus_algebra("a4"))])
    assert {r.prop for r in results} == set(verify.PROPERTIES)
    assert all(r.ok for r in results)
    lat = lat_of("a4")
    pieces = [
        (lat.node_bits[t], w)
        for t in range(len(lat))
        for w in subcat.serre_list(lat.cat, widelab.left_wide(lat, t))
    ]
    assert len(calls) == len(set(calls)) == len(pieces)
    assert set(calls) == set(pieces)
    assert len(pieces) == sum(r.prop == "serre-mutation" for r in results)


def _wide_over_bottoms(lat):
    """The wide intervals of lat by bottom, each as (interval, gap) in
    interval order, from the mask oracle, and per bottom W_U, the union of
    its gaps."""
    nodes = oracles.node_sets(lat)
    over = {}
    for iv in lat.intervals:
        gap, direct, _, _ = oracles.is_wide_interval(lat, nodes, iv)
        if direct:
            over.setdefault(iv.bottom, []).append((iv, oracles.to_bits(gap)))
    union = {}
    for u, wides in over.items():
        union[u] = 0
        for _, w in wides:
            union[u] |= w
    return over, union


def _root_of(cat, w):
    """The mask of the root serre_roots reads the wide w in: the filt of
    w's simples grown to a maximal semibrick."""
    bricks = subcat.bits(i for i in range(len(cat.ind)) if cat.bricks[i])
    sb = widelab._grown_semibrick(cat, subcat.simples_of_wide(cat, w), bricks)
    return subcat.filt(cat, sb)


def test_reduction_builds_one_gap_lattice_per_wide_subcategory(monkeypatch, cat_of):
    # one full reduction per wide subcategory W_U, each against its root;
    # the only lattices built are the context's own and the root walks, for
    # maximal semibricks other than the simples of the whole category
    reduced, walked, built = [], [], []
    reduce_onto, tors_of_wide = widelab._reduce_onto, widelab.tors_of_wide
    init = TorsLattice.__init__

    def recording(lat, iv, w, root):
        reduced.append((iv, w, root.ambient))
        return reduce_onto(lat, iv, w, root)

    def counting(cat, w_mask):
        walked.append(w_mask)
        return tors_of_wide(cat, w_mask)

    def constructing(self, cat, side, ambient, node_bits, arrows):
        built.append(ambient)
        init(self, cat, side, ambient, node_bits, arrows)

    monkeypatch.setattr(widelab, "_reduce_onto", recording)
    monkeypatch.setattr(widelab, "tors_of_wide", counting)
    monkeypatch.setattr(TorsLattice, "__init__", constructing)
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=["reduction"]
    )
    assert results and all(r.ok for r in results)
    cat = cat_of("a4")
    wides = widelab.enumerate_wide_subcats(cat)
    assert len(reduced) == len(wides) == 42
    assert {w for _, w, _ in reduced} == set(wides)
    assert all(w & root == w for _, w, root in reduced)
    assert built == [cat.full_mask] + walked
    semibricks = widelab.enumerate_semibricks(cat)
    maximal = {
        s for s in semibricks if not any(s != b and s & b == s for b in semibricks)
    }
    roots = [subcat.simples_of_wide(cat, w) for w in walked]
    assert len(walked) == len(set(walked)) == 8
    assert cat.full_mask not in walked
    assert set(roots) <= maximal
    # every gap's simples lie in a walked root's or in the simples of a4
    tops = roots + [subcat.bits(cat.simple_indices)]
    for w in wides:
        s = subcat.simples_of_wide(cat, w)
        assert any(s & r == s for r in tops)


@pytest.mark.parametrize(
    "name,bottoms,nodes,per_interval",
    [("a4", 42, 273, 672), ("a6p2", 429, 7752, 27456)],
)
def test_reduction_runs_in_full_once_per_bottom(
    name, bottoms, nodes, per_interval, monkeypatch
):
    # the full checks run on [U, T_U], the largest wide interval over each
    # bottom U, and their node scans cover its nodes once; a scan per wide
    # interval would cover per_interval nodes
    text = A6_P2 if name == "a6p2" else verify.corpus_text(name)
    ctx = verify.AlgebraContext(name, parse_algebra_text(text))
    lat = ctx.lat
    full = []
    reduce_onto = widelab._reduce_onto

    def recording(lat, iv, w, root):
        full.append(iv)
        return reduce_onto(lat, iv, w, root)

    monkeypatch.setattr(widelab, "_reduce_onto", recording)
    for _, thunk in verify._check_reduction(ctx):
        thunk()
    wide = [(iv, w) for iv, w in zip(lat.intervals, ctx.wide_verdicts) if w is not None]
    union = {}
    for iv, w in wide:
        union[iv.bottom] = union.get(iv.bottom, 0) | w
    largest = [iv for iv, w in wide if w == union[iv.bottom]]
    assert len(full) == len(set(full)) == len(largest) == bottoms
    assert set(full) == set(largest)
    assert sum(lat.interval_bits(iv).bit_count() for iv in full) == nodes
    assert sum(lat.interval_bits(iv).bit_count() for iv, _ in wide) == per_interval


def test_an_all_pass_verify_names_masks_only_for_its_objects(monkeypatch, lat_of):
    # witness texts are built only when a check fails: on an all-PASS a4
    # run, mask_name names the nodes, the wide subcategories of roundtrip
    # and the Serre pieces under each top, once each
    calls = []
    mask_name = Catalog.mask_name

    def recording(cat, b):
        calls.append(b)
        return mask_name(cat, b)

    monkeypatch.setattr(Catalog, "mask_name", recording)
    results = verify.run_verify([("a4", verify.load_corpus_algebra("a4"))])
    assert all(r.ok for r in results)
    got = Counter(calls)
    lat = lat_of("a4")
    cat = lat.cat
    pieces = [
        w
        for t in range(len(lat))
        for w in subcat.serre_list(cat, widelab.left_wide(lat, t))
    ]
    wides = widelab.enumerate_wide_subcats(cat)
    assert got == Counter(list(lat.node_bits) + wides + pieces)
    assert sum(got.values()) == 42 + 42 + 197


def test_wide_serre_and_duality_make_no_perp_right_call():
    # both read the perpendiculars off the lattices' reach rows, the one
    # perpendicular of a node the library has
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=["wide-serre", "duality"]
    )
    assert {r.prop for r in results} == {"wide-serre", "duality"}
    assert all(r.ok for r in results) and len(results) == 528


# checks whose outcome is known when they are yielded, on a6: every
# wide-detect check, the 12,686 lower-filt checks of non-wide intervals, the
# 4,279 reduction checks and every duality check
A6_SETTLED_CHECKS = 35649


@pytest.mark.parametrize("name", ("a4", "a6p2"))
def test_settled_checks_share_one_thunk(name):
    # a settled pass yields the one module-level verify._passed, not a
    # closure of its own, and formats no witness
    if name == "a4":
        algebra = verify.load_corpus_algebra("a4")
    else:
        algebra = parse_algebra_text(A6_P2)
    ctx = verify.AlgebraContext(name, algebra)
    settled = 0
    for prop in ("wide-detect", "reduction", "duality"):
        thunks = [thunk for _, thunk in verify.PROPERTY_FUNCS[prop](ctx)]
        assert thunks and all(t is verify._passed for t in thunks), prop
        settled += len(thunks)
    lower = [thunk for _, thunk in verify.PROPERTY_FUNCS["lower-filt"](ctx)]
    assert len(lower) == len(ctx.wide_verdicts)
    for thunk, verdict in zip(lower, ctx.wide_verdicts):
        assert (thunk is verify._passed) == (verdict is None)
        settled += verdict is None
    if name == "a6p2":
        assert settled == A6_SETTLED_CHECKS
    failure = TheoremViolation("a known failure")
    assert verify._settled(None) is verify._passed
    with pytest.raises(TheoremViolation) as raised:
        verify._settled(failure)()
    assert raised.value is failure


def test_verify_decides_each_mask_wide_once(monkeypatch):
    # every reader of wideness reads the one wide table, which holds the
    # simples: an a4 verify runs the semibrick search once and keeps one
    # ("wide",) entry, where a memo per mask kept 182
    built, calls = [], []
    build_catalog, search = verify.build_catalog, subcat._semibrick_search

    def capturing_build(*args, **kwargs):
        built.append(build_catalog(*args, **kwargs))
        return built[-1]

    def counting(cat):
        calls.append(cat)
        return search(cat)

    monkeypatch.setattr(verify, "build_catalog", capturing_build)
    monkeypatch.setattr(subcat, "_semibrick_search", counting)
    results = verify.run_verify([("a4", verify.load_corpus_algebra("a4"))])
    assert all(r.ok for r in results)
    (cat,) = built
    assert calls == [cat]
    assert [key for key in cat.op_cache if key[0] == "wide"] == [("wide",)]
    assert len(cat.op_cache[("wide",)]) == 42


def test_verify_leaves_no_frozenset_in_op_cache_keys(monkeypatch):
    # every mask in a memo key is an int bitset
    built = []
    build_catalog = verify.build_catalog

    def capturing_build(*args, **kwargs):
        built.append(build_catalog(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "build_catalog", capturing_build)
    results = verify.run_verify([("a4", verify.load_corpus_algebra("a4"))])
    assert all(r.ok for r in results)
    (cat,) = built
    kinds = {key[0] for key in cat.op_cache}
    assert {"filt", "wide", "serre", "oneside"} <= kinds
    assert [k for k in cat.op_cache if any(isinstance(p, frozenset) for p in k)] == []


def _tampered_root_run(monkeypatch, lat, tamper):
    """Run a4's reduction with the walk of one root, the one with the most
    wide intervals over its bottoms, altered by tamper(root) after the walk.
    The report's objects, its failures (object, witness), and the wide
    intervals whose bottom U has that root and a W_U holding the mask of
    the node tamper returns: the arrow or node a failure must read."""
    cat = lat.cat
    over, union = _wide_over_bottoms(lat)
    by_root = {}
    for u in over:
        by_root.setdefault(_root_of(cat, union[u]), []).append(u)
    target = max(
        (r for r in by_root if r != cat.full_mask),
        key=lambda r: (sum(len(over[u]) for u in by_root[r]), subcat.indices(r)),
    )
    tors_of_wide = widelab.tors_of_wide
    marked = []

    def tampered(cat, w_mask):
        root = tors_of_wide(cat, w_mask)
        if w_mask == target:
            root, node = tamper(root)
            marked.append(root.node_bits[node])
        return root

    monkeypatch.setattr(widelab, "tors_of_wide", tampered)
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=["reduction"]
    )
    (mark,) = marked
    hit = [
        iv
        for u in by_root[target]
        if mark & union[u] == mark
        for iv, _ in over[u]
    ]
    failed = [(r.obj, r.witness) for r in results if not r.ok]
    return [r.obj for r in results], failed, sorted(hit, key=lat.intervals.index)


def _iv_name(lat, iv):
    return f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]"


@pytest.mark.parametrize("tamper", ("relabel", "drop"))
def test_a_tampered_gap_lattice_fails_exactly_its_intervals(
    tamper, monkeypatch, lat_of
):
    # the first arrow of an a4 root relabelled or dropped, as in
    # test_reduce_rejects_a_tampered_gap_lattice: the wide intervals whose
    # bottom's W_U down-set holds the arrow's source fail, and only those
    lat = lat_of("a4")

    def alter(root):
        first, *rest = root.arrows
        if tamper == "relabel":
            other = (first.label + 1) % len(root.cat.ind)
            rest.insert(0, HasseArrow(first.src, first.dst, other))
        altered = TorsLattice(
            root.cat, root.side, root.ambient, root.node_bits, tuple(rest)
        )
        return altered, first.src

    objs, failed, hit = _tampered_root_run(monkeypatch, lat, alter)
    wide = [
        iv for iv in lat.intervals if widelab.is_wide_interval(lat, iv) is not None
    ]
    assert objs == [_iv_name(lat, iv) for iv in wide]
    assert 1 < len(hit) < len(wide)
    assert [obj for obj, _ in failed] == [_iv_name(lat, iv) for iv in hit]


def test_a_phi_that_is_not_injective_fails_exactly_its_intervals(
    monkeypatch, lat_of
):
    # one a4 root whose first atom's mask is looked up as its zero node: on
    # the intervals whose bottom's W_U holds that atom, phi sends two nodes
    # to zero and misses the atom
    lat = lat_of("a4")

    def merge_an_atom_into_zero(root):
        atom = root.arrows[0].src
        assert root.node_bits[atom].bit_count() == 1 and atom != root.top_index
        root.bits_index[root.node_bits[atom]] = root.bottom_index
        return root, atom

    objs, failed, hit = _tampered_root_run(monkeypatch, lat, merge_an_atom_into_zero)
    assert len(objs) > len(hit) > 1
    assert failed == [
        (_iv_name(lat, iv), "phi is not a bijection onto the gap lattice")
        for iv in hit
    ]


def test_a_bottom_whose_gaps_have_no_largest_member_fails_its_intervals(
    monkeypatch, lat_of
):
    # [U, T_U] of the a4 bottom with the most wide intervals read as not
    # wide: the union of U's other gaps is none of them, so each of U's wide
    # intervals fails, and no other interval
    lat = lat_of("a4")
    over, union = _wide_over_bottoms(lat)
    u = max(over, key=lambda b: (len(over[b]), -b))
    (t_u,) = [iv.top for iv, w in over[u] if w == union[u]]
    assert len(over[u]) > 2
    wide_verdicts = widelab.wide_verdicts

    def planted(lat, t, bottoms):
        got = wide_verdicts(lat, t, bottoms)
        if t == t_u:
            got[bottoms.index(u)] = None
        return got

    monkeypatch.setattr(widelab, "wide_verdicts", planted)
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=["reduction"]
    )
    wide = [iv for ivs in over.values() for iv, _ in ivs]
    assert len(results) == len(wide) - 1
    witness = (
        f"the gaps of the wide intervals over {lat.name(u)} have no largest member"
    )
    assert [(r.obj, r.witness) for r in results if not r.ok] == [
        (_iv_name(lat, iv), witness) for iv, _ in over[u] if iv.top != t_u
    ]


@pytest.mark.parametrize("check", ("node", "top", "image", "labels"))
def test_a_restriction_names_the_check_it_fails(check, monkeypatch, lat_of):
    # the wide intervals over a4's zero class against a4's own lattice, one
    # of them altered so that one restriction check fails: its witness names
    # that check, and the other intervals pass
    lat = lat_of("a4")
    cat = lat.cat
    over, union = _wide_over_bottoms(lat)
    wides = list(over[lat.bottom_index])
    w_u = union[lat.bottom_index]
    assert w_u == lat.ambient and len(wides) > 3
    k = max(
        (i for i, (_, v) in enumerate(wides) if v != w_u),
        key=lambda i: (wides[i][1].bit_count(), -i),
    )
    iv, w = wides[k]
    assert 0 < w != w_u
    if check == "node":
        w = next(v for v in widelab.enumerate_wide_subcats(cat) if v not in lat.bits_index)
        wides[k] = (iv, w)
        want = f"gap {cat.mask_name(w)} is not a torsion class of {cat.mask_name(w_u)}"
    elif check == "top":
        w = next(v for _, v in wides if 0 < v != w and v != w_u)
        wides[k] = (iv, w)
        want = f", not the top {lat.name(iv.top)}"
    elif check == "image":
        interval_bits = lat.interval_bits

        def widened(other):
            bits = interval_bits(other)
            return bits | 1 << lat.top_index if other == iv else bits

        monkeypatch.setattr(lat, "interval_bits", widened)
        want = f"is not psi of the down-set of {cat.mask_name(w)}"
    else:
        simples = subcat.simples_of_wide(cat, w) & ~(1 << min(subcat.indices(w)))
        monkeypatch.setitem(subcat.wide_table(cat), w, simples)
        want = "gap simples "
    out = widelab._reduce_bottom(lat, wides, w_u, lat)
    assert [v for v, _ in out] == [v for v, _ in wides]
    assert [v for v, exc in out if exc is not None] == [iv]
    assert want in str(dict(out)[iv])


# one altered a4 hom_table entry: the field, the pair (x, y) and the property
# that reads it; a bitset field gains the simple 1000a, epi is cleared
HOM_TAMPERS = [
    ("image", ("0011a", "0110a"), "hom-audit"),
    ("kernel", ("0111a", "0110a"), "label-maps"),
    ("kernel", ("0111a", "0110a"), "roundtrip"),
    ("cokernel", ("0001a", "0011a"), "wide-serre"),
    ("epi", ("1111a", "1110a"), "label-maps"),
]


def _checks_reading(prop, field, x, y, z, lat, flat):
    """The objects of prop whose check reads the entry (x, y) and fails once
    bit z joins its field (or its epi flag is cleared)."""
    cat = lat.cat

    def has(mask, k):
        return bool(mask >> k & 1)

    out = set()
    if prop == "hom-audit":
        # the maps from T into flat.gen(w): images inside w
        for t in range(len(lat)):
            t_mask = lat.node_bits[t]
            for w in subcat.serre_list(cat, widelab.left_wide(lat, t)):
                fw = flat.gen(w)
                if has(t_mask, x) and has(fw, y) and not has(w, z):
                    out.add(f"{cat.mask_name(t_mask)}|{cat.mask_name(w)}")
    elif prop == "label-maps":
        # the maps from T onto the label: epic, kernels inside T
        for a in lat.arrows:
            t_mask = lat.node_bits[a.src]
            breaks = field == "epi" or not has(t_mask, z)
            if a.label == y and has(t_mask, x) and breaks:
                out.add(f"{lat.name(a.src)}->{lat.name(a.dst)}")
    elif prop == "roundtrip":
        # left_wide of T = lat.gen(w): the maps from T into w, kernels inside T
        for w in widelab.enumerate_wide_subcats(cat):
            t_mask = lat.gen(w)
            if has(t_mask, x) and has(w, y) and not has(t_mask, z):
                out.add(cat.mask_name(w))
    else:
        # wide-serre's right_wide of F: the maps from its wide subcategory
        # into F, cokernels inside F
        for iv in lat.intervals:
            f = flat.bits_index[lat.perp(iv.bottom)]
            f_mask = flat.node_bits[f]
            rw = widelab.right_wide(flat, f)
            if has(rw, x) and has(f_mask, y) and not has(f_mask, z):
                out.add(f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]")
    return out


@pytest.mark.parametrize("field,pair,prop", HOM_TAMPERS)
def test_a_tampered_hom_table_entry_fails_where_it_is_read(
    field, pair, prop, monkeypatch, lat_of
):
    # every other entry passes, so each failed check's first failing map in
    # the scan order (x, then y) is the tampered pair: the one the per-ray
    # scan named before the table
    lat, flat = lat_of("a4"), lat_of("a4", "torf")
    cat = lat.cat
    index = {name: i for i, name in enumerate(cat.names)}
    x, y, z = index[pair[0]], index[pair[1]], index["1000a"]
    entry = cat.hom_table[x][y]
    assert cat.hom_dim[x][y]
    assert entry.epi if field == "epi" else not getattr(entry, field) >> z & 1
    want = _checks_reading(prop, field, x, y, z, lat, flat)
    hom_profile = Catalog.hom_profile

    def tampered(c, i, j):
        prof = hom_profile(c, i, j)
        if (c.names[i], c.names[j]) != pair:
            return prof
        if field == "epi":
            return prof._replace(epi=False)
        return prof._replace(**{field: getattr(prof, field) | 1 << z})

    monkeypatch.setattr(Catalog, "hom_profile", tampered)
    results = verify.run_verify(
        [("a4", verify.load_corpus_algebra("a4"))], props=[prop]
    )
    failed = {r.obj: r.witness for r in results if not r.ok}
    assert 0 < len(failed) < len(results)
    assert set(failed) == want
    for witness in failed.values():
        assert re.search(r"map (\S+)->(\S+) ", witness).groups() == pair


def test_reduction_on_the_self_injective_nakayama_algebra():
    # n*r = 25 indecomposables; C(2n, n) = 252 torsion classes (Adachi) and
    # as many wide subcategories, since the algebra is tau-tilting finite;
    # n*N/2 Hasse arrows; one reduction per wide interval, 2^outdegree under
    # each top
    algebra = parse_algebra_text(NAKAYAMA_5_5)
    cat = torslat.build_catalog(algebra)
    lat = build_lattice(cat)
    assert len(cat.ind) == 25
    assert len(lat) == math.comb(10, 5) == 252
    assert len(widelab.enumerate_wide_subcats(cat)) == 252
    assert len(lat.arrows) == 5 * 252 // 2
    results = verify.run_verify([("nak5", algebra)], props=["reduction"])
    assert [r for r in results if not r.ok] == []
    assert len(results) == sum(2 ** len(lat.out_of[t]) for t in range(len(lat)))
    assert len(results) == 1683


def test_a_failed_verdict_reports_as_before(monkeypatch, lat_of):
    # a wideness verdict that raises is a FAIL line of each interval
    # property and of serre-count at its top, and aborts reduction after the
    # wide intervals before it
    lat = lat_of("a2")
    ivs = lat.intervals
    bad = ivs[len(ivs) // 2]
    bad_nodes = (lat.node_bits[bad.bottom], lat.node_bits[bad.top])
    is_wide_interval, wide_verdicts = widelab.is_wide_interval, widelab.wide_verdicts

    def failing(lat, t, bottoms):
        out = wide_verdicts(lat, t, bottoms)
        for k, u in enumerate(bottoms):
            if (lat.node_bits[u], lat.node_bits[t]) == bad_nodes:
                out[k] = TheoremViolation("planted disagreement")
        return out

    monkeypatch.setattr(widelab, "wide_verdicts", failing)
    props = ["reduction", "wide-detect", "lower-filt", "wide-serre", "serre-count"]
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=props
    )
    name = f"[{lat.name(bad.bottom)},{lat.name(bad.top)}]"
    failed = [(r.prop, r.obj, r.witness) for r in results if not r.ok]
    assert failed == [
        ("reduction", "(setup)", "planted disagreement"),
        ("wide-detect", name, "planted disagreement"),
        ("lower-filt", name, "planted disagreement"),
        ("wide-serre", name, "planted disagreement"),
        ("serre-count", lat.name(bad.top), "planted disagreement"),
    ]
    wide_before = [
        iv
        for iv in ivs[: ivs.index(bad)]
        if is_wide_interval(lat, iv) is not None
    ]
    reduced = [r.obj for r in results if r.prop == "reduction" and r.ok]
    assert reduced == [
        f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]" for iv in wide_before
    ]
    for prop in props[1:4]:
        assert sum(r.prop == prop for r in results) == len(ivs)
    assert sum(r.prop == "serre-count" for r in results) == len(lat)


def test_serre_count_compares_the_route_with_the_verdicts(monkeypatch, lat_of):
    # a Serre route that loses a bottom fails exactly at its top
    lat = lat_of("a2")
    top = lat.top_index
    route = widelab.wide_intervals_with_top

    def lossy(lat, t):
        bottoms = route(lat, t)
        return bottoms[1:] if t == top else bottoms

    monkeypatch.setattr(widelab, "wide_intervals_with_top", lossy)
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=["serre-count"]
    )
    want = len(route(lat, top))
    assert [(r.obj, r.witness) for r in results if not r.ok] == [
        (
            lat.name(top),
            f"Serre route found {want - 1} bottoms under {lat.name(top)},"
            f" the verdicts have {want}",
        )
    ]


def test_verify_releases_the_catalog(monkeypatch):
    # no reference cycle may keep the catalog alive once verify returns
    refs = []
    build_catalog = verify.build_catalog

    def tracked(*args, **kwargs):
        cat = build_catalog(*args, **kwargs)
        refs.append(weakref.ref(cat))
        return cat

    monkeypatch.setattr(verify, "build_catalog", tracked)
    gc.collect()
    gc.disable()
    try:
        results = verify.run_verify([("a3", verify.load_corpus_algebra("a3"))])
        assert results and all(r.ok for r in results)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def _verify_tampered_a2(monkeypatch, tamper, prop="wide-detect", side="tors"):
    build_lattice = verify.build_lattice

    def tampered(cat, side="tors", _tampered=side, **kwargs):
        lat = build_lattice(cat, side=side, **kwargs)
        if side == _tampered:
            tamper(cat, lat)
        return lat

    monkeypatch.setattr(verify, "build_lattice", tampered)
    results = verify.run_verify(
        [("a2", verify.load_corpus_algebra("a2"))], props=[prop]
    )
    return verify.format_report(results)


def test_a_meet_outside_the_lattice_is_a_failed_check(monkeypatch):
    # a2's node {10a,11a} shrunk to {11a} after construction: the meet of
    # that node with the top is {11a}, no node, which must be a FAIL line
    # and not an escaping error.  The intervals and their covers come from
    # the arrows, which still put the shrunk node above {10a}: [{10a}, it]
    # is an interval, and the node is a cover of the top above {10a}
    def shrink(cat, lat):
        k = lat.bits_index[names_to_bits(cat, "10a", "11a")]
        nodes = list(lat.node_bits)
        nodes[k] = names_to_bits(cat, "11a")
        lat.node_bits = tuple(nodes)

    text, failures = _verify_tampered_a2(monkeypatch, shrink)
    assert failures == 5
    assert (
        "FAIL a2 wide-detect [{11a},{11a}] :: meet of {11a} is {11a}, not a node"
    ) in text
    for bottom in ("{10a}", "{11a}"):
        assert (
            f"FAIL a2 wide-detect [{bottom},{{01a,10a,11a}}] :: meet of"
            " {11a} & {01a,10a,11a} is {11a}, not a node"
        ) in text
    assert (
        "FAIL a2 wide-detect [{10a},{11a}] :: verdicts disagree on"
        " [{10a}, {11a}]: direct=True join=True meet=False"
    ) in text


def test_a_join_outside_the_lattice_is_a_failed_check(monkeypatch):
    # the same with the node {10a,11a} dropped from the index: its own
    # interval joins to it
    def forget(cat, lat):
        del lat.bits_index[names_to_bits(cat, "10a", "11a")]

    text, failures = _verify_tampered_a2(monkeypatch, forget)
    assert failures > 0
    assert (
        "FAIL a2 wide-detect [{10a,11a},{10a,11a}] :: join of {10a,11a} is"
        " {10a,11a}, not a node"
    ) in text


@pytest.mark.parametrize(
    "prop, side, name, lines",
    [
        # the arrow into zero labelled by the simple 10a starts at no node
        (
            "endpoint-arrows",
            "tors",
            "10a",
            ["into-bottom :: filt of 10a is {10a}, not a node"],
        ),
        # {01a} is the right perpendicular of the bottom of two intervals
        (
            "wide-serre",
            "torf",
            "01a",
            [
                f"[{{10a,11a}},{top}] :: perp_right of {{10a,11a}} is {{01a}},"
                " not a node"
                for top in ("{10a,11a}", "{01a,10a,11a}")
            ],
        ),
        # the canonical join at each node with the outgoing label 01a
        (
            "widely-generated",
            "tors",
            "01a",
            [
                f"{node} :: tors_gen of 01a is {{01a}}, not a node"
                for node in ("{01a}", "{01a,10a,11a}")
            ],
        ),
    ],
)
def test_a_class_outside_the_lattice_is_a_failed_check(
    monkeypatch, prop, side, name, lines
):
    # a2's class {name} dropped from the index of one side after construction
    def forget(cat, lat):
        del lat.bits_index[names_to_bits(cat, name)]

    text, failures = _verify_tampered_a2(monkeypatch, forget, prop, side)
    assert failures == len(lines)
    for line in lines:
        assert f"FAIL a2 {prop} {line}" in text
