"""Workloads of the torslat benchmark: inputs, jobs and oracles.

A workload is a list of jobs.  The runner issues them in a closed loop with
one client: each job starts when the previous one returns, and one pass runs
every job once, in order.  Every job output goes through an oracle; a
mismatch or an unexpected exception counts as one failed job.

Inputs are made from the scale specs in ``specs/`` and the catalog exports
in ``data/``, both kept here and not in the package corpus, so that
``torslat verify --corpus`` is unaffected.  The seed relabels the vertices
and reorders the arrows of each spec and export.  That gives an isomorphic
algebra, so every expected count below holds for every seed; seed 0 leaves
the inputs as written.

Everything that touches the library goes through the module object ``tl``
passed in by the caller, so the runner can re-import the package to time
set-up and the tracer can rebind its functions.
"""

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "specs")
DATA = os.path.join(HERE, "data")


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def linear_a(n):
    """Linear A_n: n(n+1)/2 indecomposables, Catalan(n+1) torsion classes."""
    return n * (n + 1) // 2, catalan(n + 1)


NOT_CLOSED = "NotClosed"

# spec -> (dim_bound or None, (indecomposables, torsion classes) or NOT_CLOSED)
CATALOG_CASES = {
    "a5p2": (None, linear_a(5)),
    "d4p3": (None, (12, 50)),
    "a4p5": (None, linear_a(4)),
    "kx3p2": (None, (3, 2)),
    # counted at the commit that added the benchmark: 9 modules, 20 classes
    "nak3p2": (None, (9, 20)),
    # representation-infinite: the closure must stop at the dimension bound
    "kronp2": (5, NOT_CLOSED),
}

# (export, side, torsion classes)
LATTICE_CASES = (
    ("a7p2", "tors", linear_a(7)[1]),
    ("a6p2", "torf", linear_a(6)[1]),
    ("d4p3", "tors", 50),
    ("d4p3", "torf", 50),
)

# sha256 of the lattice JSON export, recorded when the benchmark was added;
# the a7 torsion lattice is kept whole in data/ because set-up samples from it
LATTICE_DIGESTS = {
    ("a6p2", "torf"): "89af01979fc98720e934e4d087d2358e668ad7e6fea02cfe4e0dca776f245104",
    ("d4p3", "tors"): "e0b8dc548351713af4b9bbb4803a41e455343af6bf993a49be2e8ed41618407e",
    ("d4p3", "torf"): "5d5688cc8e33151075836892f1b4600144544865911d355aea80d4fe807d939c",
}

# interval queries of build-lattice, spread over the shapes of wide
# subcategories of A7 in proportion to how many there are of each shape
QUERIES = 300

VERIFY_SPEC = "a6p2"
VERIFY_SPEC_CHECKS = 70172
# sha256 of `torslat verify --corpus` output, recorded when the benchmark was added
CORPUS_REPORT_DIGEST = (
    "b084032e656e9974d6ea097a0094971a338a4cf734e4352e286b50bc03548d6e"
)


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def spec_text(name):
    return read_text(os.path.join(SPECS, f"{name}.alg"))


def export_text(name):
    return read_text(os.path.join(DATA, f"{name}.catalog.json"))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- relabelling


def relabelling(seed, vertex_count, arrow_count):
    """Vertex permutation and arrow order drawn from the seed; seed 0 is the identity."""
    perm = list(range(vertex_count))
    order = list(range(arrow_count))
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        rng.shuffle(order)
    return perm, order


def relabel_spec(text, seed):
    """The spec with vertex v renamed perm[v] and the arrow lines reordered."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    vertices = int(next(ln[1] for ln in lines if ln[0] == "vertices"))
    arrows = [ln for ln in lines if ln[0] == "arrow"]
    perm, order = relabelling(seed, vertices, len(arrows))
    out = [f"vertices {vertices}"]
    for k in order:
        _, name, src, dst = arrows[k]
        out.append(f"arrow {name} {perm[int(src) - 1] + 1} {perm[int(dst) - 1] + 1}")
    out += [" ".join(ln) for ln in lines if ln[0] in ("relation", "prime")]
    return "\n".join(out) + "\n"


def relabel_export(text, seed):
    """A catalog export with the same relabelling applied to every module.

    Catalog indices keep their order, so masks, tables and lattices built
    from the result are the same as from the original export.
    """
    doc = json.loads(text)
    alg = doc["algebra"]
    perm, order = relabelling(seed, alg["vertices"], len(alg["arrows"]))
    alg["arrows"] = [
        [alg["arrows"][k][0], perm[alg["arrows"][k][1]], perm[alg["arrows"][k][2]]]
        for k in order
    ]
    names = []
    for entry, name in zip(doc["ind"], doc["names"]):
        dims = [0] * len(perm)
        for v, d in enumerate(entry["dims"]):
            dims[perm[v]] = d
        entry["dims"] = dims
        entry["mats"] = [entry["mats"][k] for k in order]
        names.append("".join(map(str, dims)) + name[len(perm):])
    doc["names"] = names
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------- jobs


@dataclass
class Job:
    """One request of the closed loop.

    ``run(state)`` is timed.  ``check(state, output, exc)`` runs after it,
    untimed, and returns None or a description of the mismatch.
    """

    name: str
    run: Callable
    check: Callable
    # a job that must have run earlier in the same pass
    after: str = None


@dataclass
class Workload:
    jobs: list
    # untimed, before each pass: fresh inputs, so caches start cold
    new_pass: Callable = dict
    # name prefix of the jobs whose latency percentiles are reported
    requests: str = ""


def _lattice_counts(lat, classes):
    nv = lat.cat.algebra.quiver.vertex_count
    if len(lat) != classes:
        return f"{len(lat)} classes, expected {classes}"
    # the Hasse quiver is n-regular (Adachi-Iyama-Reiten)
    if len(lat.arrows) != nv * classes // 2:
        return f"{len(lat.arrows)} arrows, expected {nv * classes // 2}"
    return None


def catalog_job(tl, name, seed, cases=CATALOG_CASES):
    dim_bound, want = cases[name]
    algebra = tl.parse_algebra_text(relabel_spec(spec_text(name), seed))
    config = tl.DEFAULT_CONFIG.with_overrides(dim_bound=dim_bound)

    def run(state):
        return tl.build_catalog(algebra, config)

    def check(state, cat, exc):
        if want == NOT_CLOSED:
            if isinstance(exc, tl.errors.NotClosed):
                return None
            return f"expected NotClosed, got {exc!r}" if exc else "expected NotClosed"
        if exc is not None:
            return f"raised {exc!r}"
        ind, classes = want
        if len(cat) != ind:
            return f"{len(cat)} indecomposables, expected {ind}"
        return _lattice_counts(tl.build_lattice(cat), classes)

    return Job(f"catalog:{name}", run, check)


def setup_build_catalog(tl, seed):
    return Workload([catalog_job(tl, name, seed) for name in CATALOG_CASES])


def _masks(nodes):
    return [sum(1 << i for i in node) for node in nodes]


def wide_subcategories(lattice_doc, hom_dim):
    """Every wide interval of a stored lattice, grouped by its wide subcategory.

    An interval [U, T] with U the meet of r >= 1 lower covers of T is wide
    (Asai-Pfeifer), and every wide interval is of this form.  Its reduction
    is the lattice of its gap W, the objects of T with no map from U, a wide
    subcategory of rank r.  Returns {W mask: (rank, nodes, [(U mask, T mask)])}
    where nodes is the size of the interval, counted on the stored lattice.
    """
    masks = _masks(lattice_doc["nodes"])
    lower = [[] for _ in masks]
    for src, dst, _ in lattice_doc["arrows"]:
        lower[src].append(dst)
    maps_to = [sum(1 << j for j, d in enumerate(row) if d) for row in hom_dim]
    intervals = {}
    for top, covers in enumerate(lower):
        for r in range(1, len(covers) + 1):
            for chosen in itertools.combinations(covers, r):
                bottom = masks[top]
                for c in chosen:
                    bottom &= masks[c]
                reached = 0
                for i in range(bottom.bit_length()):
                    if bottom >> i & 1:
                        reached |= maps_to[i]
                gap = masks[top] & ~reached
                intervals.setdefault(gap, (r, []))[1].append((bottom, top))
    out = {}
    for gap, (rank, found) in intervals.items():
        # every interval of W is isomorphic to the lattice of W; count one
        bottom, top = found[0]
        seen, todo = {top}, [top]
        while todo:
            for c in lower[todo.pop()]:
                if c not in seen and masks[c] & bottom == bottom:
                    seen.add(c)
                    todo.append(c)
        out[gap] = (rank, len(seen), [(b, masks[t]) for b, t in found])
    return out


def sample_intervals(lattice_doc, hom_dim, seed):
    """About QUERIES seeded wide intervals of a stored lattice, no W twice.

    Each shape (rank, interval nodes) gets a quota in proportion to the
    number of wide subcategories of that shape, so the mix is that of the
    lattice and does not move with the seed; the seed picks which W of each
    shape, and which interval of W.  A repeated W would find its relative
    lattice in the cache.  The queries come in seeded order, so that each
    percentile draws on queries spread over the whole query phase rather
    than on one stretch of it.  Returns (U mask, T mask, interval nodes,
    rank) tuples.
    """
    wide = wide_subcategories(lattice_doc, hom_dim)
    by_shape = {}
    for gap in sorted(wide):
        rank, nodes, _ = wide[gap]
        by_shape.setdefault((rank, nodes), []).append(gap)
    rng = random.Random(seed)
    out = []
    for (rank, nodes), gaps in sorted(by_shape.items()):
        for gap in rng.sample(gaps, round(QUERIES * len(gaps) / len(wide))):
            bottom, top = rng.choice(wide[gap][2])
            out.append((bottom, top, nodes, rank))
    rng.shuffle(out)
    return out


def _frozen(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def query_job(tl, k, bottom, top, inside, rank):
    bottom, top = _frozen(bottom), _frozen(top)

    def run(state):
        lat = state["lattice"]
        iv = lat.interval(lat.node_index[bottom], lat.node_index[top])
        return tl.reduce_interval(lat, iv)

    def check(state, red, exc):
        if exc is not None:
            return f"raised {exc!r}"
        got = (len(red.wide_lattice), len(red.wide_lattice.arrows))
        want = (inside, rank * inside // 2)
        return None if got == want else f"reduced to {got}, expected {want}"

    return Job(f"interval:{k}", run, check, after="lattice:a7p2:tors")


def lattice_job(tl, export, side, classes, digest):
    def run(state):
        lat = tl.build_lattice(state[f"cat:{export}:{side}"], side=side)
        if export == "a7p2":
            state["lattice"] = lat
        return lat

    def check(state, lat, exc):
        if exc is not None:
            return f"raised {exc!r}"
        bad = _lattice_counts(lat, classes)
        if bad is None and sha256(lat.to_json()) != digest:
            bad = "lattice export differs from the recorded one"
        return bad

    return Job(f"lattice:{export}:{side}", run, check)


def setup_build_lattice(tl, seed):
    exports = {
        name: relabel_export(export_text(name), seed)
        for name in sorted({e for e, _, _ in LATTICE_CASES})
    }
    for text in exports.values():
        tl.from_json(text)  # a broken export fails here, in set-up
    stored = read_text(os.path.join(DATA, "a7p2.tors.json"))
    digests = dict(LATTICE_DIGESTS)
    digests[("a7p2", "tors")] = sha256(stored)
    jobs = [
        lattice_job(tl, e, side, classes, digests[(e, side)])
        for e, side, classes in LATTICE_CASES
    ]
    hom_dim = json.loads(exports["a7p2"])["tables"]["hom_dim"]
    for k, iv in enumerate(sample_intervals(json.loads(stored), hom_dim, seed)):
        jobs.append(query_job(tl, k, *iv))

    def new_pass():
        return {
            f"cat:{e}:{side}": tl.from_json(exports[e]) for e, side, _ in LATTICE_CASES
        }

    return Workload(jobs, new_pass, requests="interval:")


def verify_job(tl, name, algebra, checks=None):
    def run(state):
        results = tl.run_verify([(name, algebra)])
        return results, tl.verify.format_report(results)

    def check(state, out, exc):
        if exc is not None:
            return f"raised {exc!r}"
        results, (_, failures) = out
        if failures:
            return f"{failures} FAIL lines"
        if checks is not None and len(results) != checks:
            return f"{len(results)} checks, expected {checks}"
        return None

    return Job(f"verify:{name}", run, check)


def corpus_job(tl, name, previous):
    """Verify one corpus algebra; the last one also checks the whole report."""
    job = verify_job(tl, name, tl.load_corpus_algebra(name))
    inner = job.check

    def check(state, out, exc):
        bad = inner(state, out, exc)
        if out is not None:
            state.setdefault("corpus", []).extend(out[0])
        if bad is None and name == tl.CORPUS[-1]:
            report, _ = tl.verify.format_report(state["corpus"])
            if sha256(report) != CORPUS_REPORT_DIGEST:
                bad = "corpus report differs from the recorded one"
        return bad

    return Job(job.name, job.run, check, after=previous and f"verify:{previous}")


def setup_verify_suite(tl, seed):
    corpus = tl.CORPUS
    jobs = [corpus_job(tl, name, prev) for prev, name in zip((None,) + corpus, corpus)]
    algebra = tl.parse_algebra_text(relabel_spec(spec_text(VERIFY_SPEC), seed))
    jobs.append(verify_job(tl, VERIFY_SPEC, algebra, VERIFY_SPEC_CHECKS))
    return Workload(jobs)


SETUP = {
    "build-catalog": setup_build_catalog,
    "build-lattice": setup_build_lattice,
    "verify-suite": setup_verify_suite,
}
