"""Structural verification harness over the bundled corpus.

Every identity the library promises is re-checked object by object: per
covering arrow, per node, per interval, per wide subcategory.  Output is one
line per checked object, PASS or FAIL with a witness, plus a two-line
summary.  Algebras are verified one after another, so the report order is
the input order.

The report is a stream: ``iter_checks`` yields one ``CheckResult`` at a time,
in report order, and ``format_line`` turns each into its line, so a caller
that writes the lines as they come (``torslat verify``) holds no result
after its line is out.  ``run_verify`` keeps the results of one algebra or
several as columns (``CheckResults``): one list of the objects' names, the
start and the (algebra, property) key of each run of checks, and each
failure's witness by position; it builds a ``CheckResult`` only when one is
read.  Both read one loop over the properties (``_checks``), which yields
``(prop, obj, witness)`` triples, the witness None for a pass.
``format_report`` joins the report from those columns in one pass, three
pieces a line: a PASS line is its ``PASS algebra prop`` head, built once
per run, the object's name and a newline; a FAIL line is its ``FAIL
algebra prop`` head, the name and `` :: witness`` with the newline.  So it
holds the text once and no second copy of its lines.  The name of an
object that several properties print (an interval's ``[U,T]``, an arrow's
``src->dst``, a top's ``T|W`` for a Serre piece W) is built once per
algebra by ``AlgebraContext`` and shared by their results.  A check builds
its witness text only when it fails, so a passing run names masks only for
its objects: ``_require`` takes constant witnesses only, and a witness
that needs formatting is raised in the failing branch.  Each property
yields ``(obj, thunk)`` pairs, and ``_checks`` runs the thunks.  A check
whose outcome is known when it is yielded (every wide-detect check,
lower-filt on a non-wide interval, reduction's outcomes and duality's
flags) yields the one shared no-op ``_passed``, or a thunk that raises its
known failure (``_settled``), and builds no closure of its own.

Work that several properties share is done once per algebra, and no check
scans every pair of nodes.  The torsion lattice enumerates its intervals
once, as a tuple (``TorsLattice.intervals``), each top's bottoms read off
its down-set bitset; ``AlgebraContext.wide_verdicts`` and every interval
property read it.  Each interval's wideness verdict is computed once
(``AlgebraContext.wide_verdicts``): ``widelab.wide_verdicts`` runs once per
top, on the lattice's node and order bitsets and one read of the wide
table, and keeps one outcome per interval, a failure included.
wide-detect, lower-filt, reduction, wide-serre and serre-count read the
verdicts; serre-count compares the Serre route under each top with the
wide bottoms the verdicts give, and the route reads the bottoms
serre-mutation found (``widelab.serre_mutation`` keeps each in
``op_cache``).  Reduction runs in full once per bottom U.
By the dual of the Serre bijection below a fixed top, the wide intervals
[U, T] match the Serre subcategories of one wide W_U, the union of their
gaps, which must be one of them, the gap of [U, T_U] (a bottom where it is
none fails each of its wide intervals).  [U, T_U] is reduced onto tors W_U,
read as the down-set of W_U in a root lattice from
``widelab.serre_roots``.  That seam walks one lattice per maximal semibrick
grown from the gaps' simples, none for the simples of the whole algebra,
whose lattice is the context's own; tors W is the down-set of W in it
(Serre restriction, see ``widelab.tors_of_wide``), one walked lattice alive
at a time.  Every other wide [U, T] is checked as the restriction of that
label-preserving isomorphism to the down-set of its gap
(``widelab._reduce_bottom``): four bitset and label tests, and no scan of
its nodes.  Reduction then reports the outcomes in interval order, so the
report order does not depend on the grouping.  The full check reads the
interval as a bitset of nodes (``TorsLattice.interval_bits``), picks its
arrows and labels by bit tests, and checks each class psi(X) against the
extension product of the bottom with X by scanning only that class's
members.  lower-filt rebuilds each wide gap as Filt of the labels inside
the interval's lower set, a node bitset, as every node set the lattice
hands out is (``TorsLattice.lower_set``, ``labels_of``).  Duality derives
the order reversal from its node, bijection and arrow lines
(``lattice.dual_correspondence``).  The perpendiculars of nodes that
brick-labels, duality and wide-serre read are the lattice's own
(``TorsLattice.perp``), and the closures that brick-labels, roundtrip and
hom-audit read are its ``gen`` (the torsion-free lattice's, for
hom-audit); duality and wide-serre find a perpendicular on the other side
by mask (``bits_index``).  wide-serre computes, once per top,
its left wide subcategory and the set of its Serre pieces, and once per
bottom, its perpendicular and the right wide subcategory of its dual node,
each on the first interval that reads it; a failure there is kept and
raised again on each interval that reads it.

The morphism audits (hom-audit, label-maps, and the audit inside
``widelab.left_wide`` and ``right_wide``) read ``Catalog.hom_table``: per
ordered pair, the OR over the nonzero maps of their kernel, image and
cokernel summands, and whether every map is epic.  An OR passes a subset
test exactly when each map does.  The table scans no Hom space: a nonzero
map is a quotient of its source that is also a submodule of its target,
so each entry matches the source's subfactor pairs (kernel, quotient)
with the target's (image, cokernel) on a common nonempty middle
(``Catalog.hom_profile``).  hom-audit is hoisted per top T: the
images and the kernels of the maps from T into each y are ORed once, and
each Serre piece w then ORs the rows of the y in flat.gen(w).  Only a
failed test rescans the pairs, x ascending then y ascending, image before
kernel, to name the first failing map.
"""

from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property
from importlib import resources
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from . import subcat, widelab
from .catalog import build_catalog
from .errors import UnknownProperty, VerificationError, TheoremViolation, AuditFailed
from .lattice import build_lattice, dual_correspondence
from .quivalg import parse_algebra_text

CORPUS = ("a2", "a2r", "a3", "a3s", "a4", "ss2", "ppa2", "nak3")

PROPERTIES = (
    "brick-labels",
    "duality",
    "endpoint-arrows",
    "incident-semibricks",
    "reduction",
    "wide-detect",
    "lower-filt",
    "roundtrip",
    "hom-audit",
    "serre-mutation",
    "label-maps",
    "simples-out",
    "wide-serre",
    "serre-count",
    "widely-generated",
)


def corpus_text(name):
    return resources.files("torslat").joinpath(f"corpus/{name}.alg").read_text()


def load_corpus_algebra(name, config=None):
    return parse_algebra_text(corpus_text(name), config)


class CheckResult(NamedTuple):
    algebra: str
    prop: str
    obj: str
    ok: bool
    witness: str


class CheckResults(Sequence):
    """The results of ``run_verify``, kept as columns: one list of the
    objects' names, shared with the context that built them, the start of
    each (algebra, property) run with its key, and each failure's witness
    by position.  A CheckResult is built only when one is read, by index,
    by slice or in iteration."""

    __slots__ = ("_objs", "_starts", "_runs", "_fails")

    def __init__(self):
        self._objs = []
        self._starts = []
        self._runs = []
        self._fails = {}

    def _extend(self, algebra, checks):
        """Append the ``(prop, obj, witness)`` triples of one algebra, the
        witness None for a pass."""
        objs, fails = self._objs, self._fails
        last = None
        for prop, obj, witness in checks:
            if prop != last:
                last = prop
                self._starts.append(len(objs))
                self._runs.append((algebra, prop))
            if witness is not None:
                fails[len(objs)] = witness
            objs.append(obj)

    @classmethod
    def _collect(cls, results):
        """The CheckResults of an iterable of CheckResult."""
        out = cls()
        for algebra, rs in groupby(results, attrgetter("algebra")):
            out._extend(
                algebra, ((r.prop, r.obj, None if r.ok else r.witness) for r in rs)
            )
        return out

    def __len__(self):
        return len(self._objs)

    def _spans(self):
        """The (algebra, prop) key, start and end of each run."""
        starts = self._starts
        return zip(self._runs, starts, starts[1:] + [len(self._objs)])

    def _key(self, i):
        """The (algebra, prop) key of the run that holds position i."""
        return self._runs[bisect_right(self._starts, i) - 1]

    def _result(self, i, key):
        algebra, prop = key
        witness = self._fails.get(i)
        return CheckResult(algebra, prop, self._objs[i], witness is None, witness or "")

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("check index out of range")
        return self._result(i, self._key(i))

    def __iter__(self):
        for key, lo, hi in self._spans():
            for i in range(lo, hi):
                yield self._result(i, key)


class AlgebraContext:
    """Lazily built catalog and lattices for one algebra."""

    def __init__(self, name, algebra, config=None):
        self.name = name
        self.algebra = algebra
        self.config = config
        self._pieces = {}

    @cached_property
    def cat(self):
        return build_catalog(self.algebra, self.config)

    @cached_property
    def lat(self):
        return build_lattice(self.cat, side="tors")

    @cached_property
    def flat(self):
        return build_lattice(self.cat, side="torf")

    @cached_property
    def wide_verdicts(self):
        """One verdict per interval of ``lat``, in ``lat.intervals`` order:
        the gap mask if the interval is wide, None if it is not, or the
        VerificationError the checks raised.  ``widelab.wide_verdicts``
        runs once per top, on the bottoms of its intervals.  Equal gaps are
        one object."""
        lat = self.lat
        gaps = {}
        verdicts = []
        for t, ivs in groupby(lat.intervals, attrgetter("top")):
            for v in widelab.wide_verdicts(lat, t, [iv.bottom for iv in ivs]):
                if type(v) is int:
                    v = gaps.setdefault(v, v)
                verdicts.append(v)
        return tuple(verdicts)

    @cached_property
    def interval_names(self):
        """The report name ``[U,T]`` of each interval of ``lat``, in
        ``lat.intervals`` order."""
        names = self.lat.names
        return tuple(
            f"[{names[iv.bottom]},{names[iv.top]}]" for iv in self.lat.intervals
        )

    def intervals(self):
        """(name, interval, verdict) triples of ``lat``, in ``lat.intervals``
        order."""
        return zip(self.interval_names, self.lat.intervals, self.wide_verdicts)

    @cached_property
    def arrow_names(self):
        """The report name ``src->dst`` of each arrow of ``lat``."""
        names = self.lat.names
        return tuple(f"{names[a.src]}->{names[a.dst]}" for a in self.lat.arrows)

    def pieces(self, t):
        """(W, report name ``T|W``) for each Serre piece W of the left wide
        subcategory of node t of ``lat``, in ``serre_list`` order; built once
        per node."""
        got = self._pieces.get(t)
        if got is None:
            cat, lat = self.cat, self.lat
            top = lat.name(t)
            got = self._pieces[t] = tuple(
                (w, f"{top}|{cat.mask_name(w)}")
                for w in subcat.serre_list(cat, widelab.left_wide(lat, t))
            )
        return got


def _require(cond, witness):
    """Raise TheoremViolation(witness) unless cond; the witness is a
    constant, so a pass formats no text."""
    if not cond:
        raise TheoremViolation(witness)


def _passed():
    """The thunk of every check whose pass is known when it is yielded."""


def _settled(failure):
    """The thunk of a check whose outcome is known when it is yielded:
    ``_passed`` when failure is None, else a thunk that raises failure."""
    if failure is None:
        return _passed

    def thunk():
        raise failure

    return thunk


def _gap_of(verdict):
    """The gap of a wide verdict, None for a non-wide one; a failed verdict
    is raised again."""
    if isinstance(verdict, VerificationError):
        raise verdict
    return verdict


def _check_brick_labels(ctx):
    cat, lat = ctx.cat, ctx.lat
    for name, a in zip(ctx.arrow_names, lat.arrows):
        def thunk(a=a):
            top, bottom = lat.node_bits[a.src], lat.node_bits[a.dst]
            label = 1 << a.label
            gap = lat.perp(a.dst) & top
            found = [s for s in subcat.indices(gap) if cat.bricks[s]]
            if found != [a.label]:
                raise TheoremViolation(f"bricks in gap are {found}")
            _require(subcat.filt(cat, label) == gap, "label does not build the gap")
            _require(
                bottom == top & subcat.perp_left(cat, label),
                "bottom is not the label's left orthogonal inside the top",
            )
            _require(
                top == lat.gen(bottom | label),
                "bottom plus label does not regenerate the top",
            )
        yield name, thunk


def _check_duality(ctx):
    _, node_checks, arrow_checks = dual_correspondence(ctx.lat, ctx.flat)
    for desc, ok, witness in node_checks + arrow_checks:
        failure = None if ok else TheoremViolation(witness)
        yield desc.replace(" ", ":"), _settled(failure)


def _check_endpoint_arrows(ctx):
    cat, lat = ctx.cat, ctx.lat

    def into_bottom():
        got = {
            (a.src, a.label) for a in lat.into[lat.bottom_index]
        }
        want = {
            (
                lat._node_of(
                    subcat.filt(cat, 1 << s), lambda: f"filt of {cat.names[s]}"
                ),
                s,
            )
            for s in cat.simple_indices
        }
        if got != want:
            raise TheoremViolation(f"arrows into the zero class: {sorted(got)}")

    def out_of_top():
        labels = lat.out_labels(lat.top_index)
        if not (
            labels == subcat.bits(cat.simple_indices)
            and len(lat.out_of[lat.top_index]) == len(cat.simple_indices)
        ):
            raise TheoremViolation(
                f"labels out of the full class: {cat.mask_name(labels)}"
            )

    yield "into-bottom", into_bottom
    yield "out-of-top", out_of_top


def _check_incident_semibricks(ctx):
    cat, lat = ctx.cat, ctx.lat
    for i in range(len(lat)):
        def thunk(i=i):
            for labels in (lat.in_labels(i), lat.out_labels(i)):
                if not subcat.is_semibrick(cat, labels):
                    raise TheoremViolation(
                        f"{cat.mask_name(labels)} is not a semibrick"
                    )
        yield lat.name(i), thunk


def _check_wide_detect(ctx):
    # a gap or None passes, a failed verdict fails
    for name, _, verdict in ctx.intervals():
        yield name, _settled(None if type(verdict) is int else verdict)


def _check_lower_filt(ctx):
    cat, lat = ctx.cat, ctx.lat
    for name, iv, verdict in ctx.intervals():
        if type(verdict) is not int:
            # not wide (None), or a failed verdict
            yield name, _settled(verdict)
            continue

        def thunk(iv=iv, gap=verdict):
            # the join verdict agrees with the direct one
            rebuilt = subcat.filt(cat, lat.labels_of(lat.lower_set(iv)))
            if rebuilt != gap:
                raise TheoremViolation(
                    f"lower labels build {cat.mask_name(rebuilt)} instead of"
                    f" {cat.mask_name(gap)}"
                )
        yield name, thunk


def _check_reduction(ctx):
    # the wide intervals grouped by bottom U over every verdict; W_U, the
    # union of U's gaps, must be one of them.  A failed verdict aborts the
    # property, after the wide intervals before it.
    lat = ctx.lat
    over = {}
    for iv, verdict in zip(lat.intervals, ctx.wide_verdicts):
        if type(verdict) is int:
            over.setdefault(iv.bottom, []).append((iv, verdict))
    outcome, largest = {}, {}
    for u, wides in over.items():
        w_u = 0
        for _, w in wides:
            w_u |= w
        if any(w == w_u for _, w in wides):
            largest.setdefault(w_u, []).append(wides)
        else:
            exc = TheoremViolation(
                f"the gaps of the wide intervals over {lat.name(u)} have no"
                f" largest member"
            )
            outcome.update(dict.fromkeys((iv for iv, _ in wides), exc))
    for w_u, root in widelab.serre_roots(lat, largest):
        for wides in largest[w_u]:
            outcome.update(widelab._reduce_bottom(lat, wides, w_u, root))
        # the next root is walked on the next step: keep one alive
        del root
    for name, iv, verdict in ctx.intervals():
        if isinstance(verdict, VerificationError):
            raise verdict
        if verdict is not None:
            yield name, _settled(outcome[iv])


def _check_roundtrip(ctx):
    cat, lat = ctx.cat, ctx.lat
    for w in widelab.enumerate_wide_subcats(cat):
        def thunk(w=w):
            node = lat.bits_index.get(lat.gen(w))
            _require(node is not None, "generated class is not a torsion class")
            got = widelab.left_wide(lat, node)
            if got != w:
                raise TheoremViolation(f"came back as {cat.mask_name(got)}")
        yield cat.mask_name(w), thunk


def _check_hom_audit(ctx):
    # rows[y]: the ORed images and kernels of the maps from the top into y
    cat, lat, flat = ctx.cat, ctx.lat, ctx.flat
    for t in range(len(lat)):
        t_mask = lat.node_bits[t]
        rows = {}
        for w, name in ctx.pieces(t):
            def thunk(t_mask=t_mask, w=w, rows=rows):
                fw = flat.gen(w)
                image = kernel = 0
                for y in subcat.indices(fw):
                    row = rows.get(y)
                    if row is None:
                        row = rows[y] = _maps_into(cat, t_mask, y)
                    image |= row[0]
                    kernel |= row[1]
                if image & ~w or kernel & ~t_mask:
                    _audit_maps(cat, t_mask, fw, w)
            yield name, thunk


def _maps_into(cat, t_mask, y):
    """OR of the images and of the kernels of the maps from t_mask into y."""
    table = cat.hom_table
    image = kernel = 0
    for x in subcat.indices(t_mask & cat.in_bits[y]):
        prof = table[x][y]
        image |= prof.image
        kernel |= prof.kernel
    return image, kernel


def _audit_maps(cat, t_mask, fw, w):
    """Raise on the first map x -> y, x in t_mask and y in fw, whose image
    leaves w or whose kernel leaves t_mask."""
    table = cat.hom_table
    for x in subcat.indices(t_mask):
        for y in subcat.indices(fw & cat.out_bits[x]):
            prof = table[x][y]
            if prof.image & ~w:
                raise AuditFailed(
                    f"image of a map {cat.names[x]}->"
                    f"{cat.names[y]} leaves {cat.mask_name(w)}"
                )
            if prof.kernel & ~t_mask:
                raise AuditFailed(
                    f"kernel of a map {cat.names[x]}->"
                    f"{cat.names[y]} leaves the class"
                )


def _check_serre_mutation(ctx):
    lat = ctx.lat
    for t in range(len(lat)):
        for w, name in ctx.pieces(t):
            def thunk(t=t, w=w):
                widelab.serre_mutation(lat, t, w)
            yield name, thunk


def _check_label_maps(ctx):
    cat, lat = ctx.cat, ctx.lat
    for name, a in zip(ctx.arrow_names, lat.arrows):
        def thunk(a=a):
            t_mask = lat.node_bits[a.src]
            table = cat.hom_table
            for x in subcat.indices(t_mask & cat.in_bits[a.label]):
                prof = table[x][a.label]
                if not prof.epi:
                    raise AuditFailed(
                        f"a nonzero map {cat.names[x]}->"
                        f"{cat.names[a.label]} is not epic"
                    )
                if prof.kernel & ~t_mask:
                    raise AuditFailed(
                        f"kernel of a map {cat.names[x]}->"
                        f"{cat.names[a.label]} leaves the class"
                    )
        yield name, thunk


def _check_simples_out(ctx):
    cat, lat = ctx.cat, ctx.lat
    for t in range(len(lat)):
        def thunk(t=t):
            got = subcat.simples_of_wide(cat, widelab.left_wide(lat, t))
            if got != lat.out_labels(t):
                raise TheoremViolation(
                    f"wide simples {cat.mask_name(got)} against labels"
                    f" {cat.mask_name(lat.out_labels(t))}"
                )
        yield lat.name(t), thunk


def _check_wide_serre(ctx):
    # per top: its left wide subcategory and the set of its Serre pieces; per
    # bottom: its perpendicular and the right wide subcategory of its dual
    # node.  Each is computed on its first interval, and a failure is kept
    # and raised again on each interval that reads it.
    cat, lat, flat = ctx.cat, ctx.lat, ctx.flat
    tops, bottoms = {}, {}

    def per_node(memo, i, fn):
        got = memo.get(i)
        if got is None:
            try:
                got = memo[i] = fn(i)
            except VerificationError as exc:
                got = memo[i] = exc.with_traceback(None)
        if isinstance(got, VerificationError):
            raise got
        return got

    def top_of(t):
        wl = widelab.left_wide(lat, t)
        return wl, set(subcat.serre_list(cat, wl))

    def bottom_of(u):
        perp = lat.perp(u)
        fnode = flat._node_of(perp, lambda: f"perp_right of {lat.name(u)}")
        return perp, widelab.right_wide(flat, fnode)

    for name, iv, verdict in ctx.intervals():
        def thunk(iv=iv, verdict=verdict):
            wide = _gap_of(verdict) is not None
            wl, serre = per_node(tops, iv.top, top_of)
            perp, rw = per_node(bottoms, iv.bottom, bottom_of)
            w = perp & lat.node_bits[iv.top]
            via_serre = w in serre
            via_sides = w == (rw & wl)
            if not (wide == via_serre == via_sides):
                raise TheoremViolation(
                    f"wide={wide} serre={via_serre} sides={via_sides}"
                )
        yield name, thunk


def _check_serre_count(ctx):
    # the Serre route under each top against the verdict table's wide bottoms
    lat = ctx.lat
    wide = [[] for _ in range(len(lat))]
    failed = {}
    for _, iv, verdict in ctx.intervals():
        if isinstance(verdict, VerificationError):
            failed.setdefault(iv.top, verdict)
        elif verdict is not None:
            wide[iv.top].append(iv.bottom)
    for t in range(len(lat)):
        def thunk(t=t):
            bottoms = widelab.wide_intervals_with_top(lat, t)
            if t in failed:
                raise failed[t]
            if bottoms != wide[t]:
                raise TheoremViolation(
                    f"Serre route found {len(bottoms)} bottoms under"
                    f" {lat.name(t)}, the verdicts have {len(wide[t])}"
                )
        yield lat.name(t), thunk


def _check_widely_generated(ctx):
    lat = ctx.lat
    for t in range(len(lat)):
        def thunk(t=t):
            held = widelab.is_widely_generated(lat, t)
            _require(held, "node is not widely generated")
        yield lat.name(t), thunk


PROPERTY_FUNCS = {
    "brick-labels": _check_brick_labels,
    "duality": _check_duality,
    "endpoint-arrows": _check_endpoint_arrows,
    "incident-semibricks": _check_incident_semibricks,
    "reduction": _check_reduction,
    "wide-detect": _check_wide_detect,
    "lower-filt": _check_lower_filt,
    "roundtrip": _check_roundtrip,
    "hom-audit": _check_hom_audit,
    "serre-mutation": _check_serre_mutation,
    "label-maps": _check_label_maps,
    "simples-out": _check_simples_out,
    "wide-serre": _check_wide_serre,
    "serre-count": _check_serre_count,
    "widely-generated": _check_widely_generated,
}

assert set(PROPERTY_FUNCS) == set(PROPERTIES)


def validate_props(props):
    """The selected properties as a tuple; None selects every property.
    An empty selection, a bare string, an unknown name or a repeated name
    raises UnknownProperty."""
    if props is None:
        return PROPERTIES
    if isinstance(props, str):
        raise UnknownProperty(f"expected a sequence of names, not the string {props!r}")
    chosen = tuple(props)
    if not chosen:
        raise UnknownProperty(
            f"no property selected; valid: {', '.join(PROPERTIES)}"
        )
    for k, p in enumerate(chosen):
        if p not in PROPERTY_FUNCS:
            raise UnknownProperty(
                f"unknown property {p!r}; valid: {', '.join(PROPERTIES)}"
            )
        if p in chosen[:k]:
            raise UnknownProperty(f"property {p!r} selected twice")
    return chosen


def _checks(name, algebra, chosen, config):
    """The checks of one algebra, property by property, as ``(prop, obj,
    witness)`` triples, the witness None for a pass; a property whose own
    code raises a VerificationError ends with a ``(setup)`` failure."""
    ctx = AlgebraContext(name, algebra, config)
    for prop in chosen:
        try:
            for obj, thunk in PROPERTY_FUNCS[prop](ctx):
                try:
                    thunk()
                    yield prop, obj, None
                except VerificationError as exc:
                    yield prop, obj, str(exc)
        except VerificationError as exc:
            yield prop, "(setup)", str(exc)


def iter_checks(named_algebras, props=None, config=None):
    """Every check of several algebras, one CheckResult at a time, in report
    order: algebras in input order, then properties in selection order.
    The selection is validated before the first result."""
    chosen = validate_props(props)
    for name, algebra in named_algebras:
        for prop, obj, witness in _checks(name, algebra, chosen, config):
            yield CheckResult(name, prop, obj, witness is None, witness or "")


def run_verify(named_algebras, props=None, config=None):
    """Verify several algebras in input order; the results as a
    ``CheckResults`` sequence."""
    chosen = validate_props(props)
    results = CheckResults()
    for name, algebra in named_algebras:
        results._extend(name, _checks(name, algebra, chosen, config))
    return results


def format_line(r):
    """The report line of one result, newline included."""
    if r.ok:
        return f"PASS {r.algebra} {r.prop} {r.obj}\n"
    return f"FAIL {r.algebra} {r.prop} {r.obj} :: {r.witness}\n"


def format_summary(checks, failures):
    """The two closing lines of a report."""
    return f"checks run: {checks}\nfailures: {failures}\n"


def format_report(results):
    """The report text of some results and its number of FAIL lines.  The
    results are a ``CheckResults``; any other iterable of CheckResults, a
    list or a stream, is first collected into one.  One join over three
    pieces a line: a PASS line is its ``PASS algebra prop`` head, built
    once per run, the object's shared name and a newline; a FAIL line is
    its ``FAIL algebra prop`` head, the name and `` :: witness`` with the
    newline.  So the only copy of the lines is the text itself."""
    if not isinstance(results, CheckResults):
        results = CheckResults._collect(results)
    pieces = [None, None, "\n"] * len(results)
    pieces[1::3] = results._objs
    for (algebra, prop), lo, hi in results._spans():
        pieces[3 * lo:3 * hi:3] = [f"PASS {algebra} {prop} "] * (hi - lo)
    for i, witness in results._fails.items():
        algebra, prop = results._key(i)
        pieces[3 * i] = f"FAIL {algebra} {prop} "
        pieces[3 * i + 2] = f" :: {witness}\n"
    failures = len(results._fails)
    pieces.append(format_summary(len(results), failures))
    return "".join(pieces), failures
