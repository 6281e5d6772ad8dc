"""Structural verification harness over the bundled corpus.

Every identity the library promises is re-checked object by object: per
covering arrow, per node, per interval, per wide subcategory.  Output is one
line per checked object, PASS or FAIL with a witness, plus a two-line
summary.  Algebras are verified one after another, so the report order is
the input order.

Work that several properties share is done once per algebra.  Each
interval's wideness verdict is computed once (``AlgebraContext.wide_verdicts``)
and read by wide-detect, lower-filt, reduction, wide-serre and serre-count;
serre-count compares the Serre route under each top with the wide bottoms
the verdicts give.  Reduction builds the torsion lattice of each gap
category W once for all the wide intervals with that gap, drops it before
the next gap, and then reports the outcomes in interval order, so the
report order does not depend on the grouping.  Per interval it reads the
interval's nodes from the lattice's cover bitsets, and checks each class
psi(X) against the extension product of the bottom with X by scanning only
that class's members.
"""

from dataclasses import dataclass
from functools import cached_property
from importlib import resources

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


@dataclass(frozen=True)
class CheckResult:
    algebra: str
    prop: str
    obj: str
    ok: bool
    witness: str


class AlgebraContext:
    """Lazily built catalog and lattices for one algebra."""

    def __init__(self, name, algebra, config=None):
        self.name = name
        self.algebra = algebra
        self.config = config

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
        """One verdict per interval of ``lat``, in ``all_intervals`` order:
        the gap if the interval is wide, None if it is not, or the
        VerificationError ``is_wide_interval`` raised.  Equal gaps are one
        object."""
        lat = self.lat
        gaps = {}
        verdicts = []
        for iv in lat.all_intervals():
            try:
                report = widelab.is_wide_interval(lat, iv)
            except VerificationError as exc:
                # without its traceback, whose frames would hold this list
                verdicts.append(exc.with_traceback(None))
                continue
            w = report.wide_mask
            verdicts.append(gaps.setdefault(w, w) if report.wide else None)
        return tuple(verdicts)

    def intervals(self):
        """(interval, verdict) pairs of ``lat``, in ``all_intervals`` order."""
        return zip(self.lat.all_intervals(), self.wide_verdicts)


def _interval_name(lat, iv):
    return f"[{lat.name(iv.bottom)},{lat.name(iv.top)}]"


def _require(cond, witness):
    if not cond:
        raise TheoremViolation(witness)


def _gap_of(verdict):
    """The gap of a wide verdict, None for a non-wide one; a failed verdict
    is raised again."""
    if isinstance(verdict, VerificationError):
        raise verdict
    return verdict


def _check_brick_labels(ctx):
    cat, lat = ctx.cat, ctx.lat
    for a in lat.arrows:
        def thunk(a=a):
            top, bottom = lat.nodes[a.src], lat.nodes[a.dst]
            gap = subcat.perp_right(cat, bottom) & top
            found = sorted(s for s in gap if cat.bricks[s])
            _require(found == [a.label], f"bricks in gap are {found}")
            _require(
                subcat.filt(cat, frozenset((a.label,))) == gap,
                "label does not build the gap",
            )
            _require(
                bottom == top & subcat.perp_left(cat, frozenset((a.label,))),
                "bottom is not the label's left orthogonal inside the top",
            )
            _require(
                top == subcat.tors_gen(cat, bottom | {a.label}),
                "bottom plus label does not regenerate the top",
            )
        yield f"{lat.name(a.src)}->{lat.name(a.dst)}", thunk


def _check_duality(ctx):
    _, node_checks, arrow_checks = dual_correspondence(ctx.lat, ctx.flat)
    for desc, ok, witness in node_checks + arrow_checks:
        def thunk(ok=ok, witness=witness):
            _require(ok, witness)
        yield desc.replace(" ", ":"), thunk


def _check_endpoint_arrows(ctx):
    cat, lat = ctx.cat, ctx.lat

    def into_bottom():
        got = {
            (a.src, a.label) for a in lat.into[lat.bottom_index]
        }
        want = {
            (
                lat._node_of(
                    subcat.filt(cat, frozenset((s,))),
                    lambda: f"filt of {cat.names[s]}",
                ),
                s,
            )
            for s in cat.simple_indices
        }
        _require(got == want, f"arrows into the zero class: {sorted(got)}")

    def out_of_top():
        labels = lat.out_labels(lat.top_index)
        _require(
            labels == frozenset(cat.simple_indices)
            and len(lat.out_of[lat.top_index]) == len(cat.simple_indices),
            f"labels out of the full class: {cat.mask_name(labels)}",
        )

    yield "into-bottom", into_bottom
    yield "out-of-top", out_of_top


def _check_incident_semibricks(ctx):
    cat, lat = ctx.cat, ctx.lat
    for i in range(len(lat)):
        def thunk(i=i):
            for labels in (lat.in_labels(i), lat.out_labels(i)):
                _require(
                    subcat.is_semibrick(cat, labels),
                    f"{cat.mask_name(labels)} is not a semibrick",
                )
        yield lat.name(i), thunk


def _check_wide_detect(ctx):
    lat = ctx.lat
    for iv, verdict in ctx.intervals():
        def thunk(verdict=verdict):
            _gap_of(verdict)
        yield _interval_name(lat, iv), thunk


def _check_lower_filt(ctx):
    cat, lat = ctx.cat, ctx.lat
    for iv, verdict in ctx.intervals():
        def thunk(iv=iv, verdict=verdict):
            # the join verdict agrees with the direct one
            gap = _gap_of(verdict)
            if gap is None:
                return
            rebuilt = subcat.filt(cat, lat.labels_of(lat.lower_set(iv)))
            _require(
                rebuilt == gap,
                f"lower labels build {cat.mask_name(rebuilt)} instead of"
                f" {cat.mask_name(gap)}",
            )
        yield _interval_name(lat, iv), thunk


def _reduce_group(lat, gap, ivs):
    """Reduce wide intervals sharing one gap onto one torsion lattice of it.

    One outcome per interval: None, or the VerificationError raised.  The
    gap lattice is dropped on return.
    """
    try:
        wlat = widelab.tors_of_wide(lat.cat, gap)
    except VerificationError as exc:
        return [exc.with_traceback(None)] * len(ivs)
    outcomes = []
    for iv in ivs:
        try:
            widelab._reduce_onto(lat, iv, gap, wlat)
            outcomes.append(None)
        except VerificationError as exc:
            outcomes.append(exc.with_traceback(None))
    return outcomes


def _check_reduction(ctx):
    # a failed verdict aborts the property, after the wide intervals before it
    lat = ctx.lat
    wide, by_gap, error = [], {}, None
    for iv, verdict in ctx.intervals():
        if isinstance(verdict, VerificationError):
            error = verdict
            break
        if verdict is not None:
            wide.append(iv)
            by_gap.setdefault(verdict, []).append(iv)
    outcome = {}
    for gap, ivs in by_gap.items():
        outcome.update(zip(ivs, _reduce_group(lat, gap, ivs)))
    for iv in wide:
        def thunk(failure=outcome[iv]):
            if failure is not None:
                raise failure
        yield _interval_name(lat, iv), thunk
    if error is not None:
        raise error


def _check_roundtrip(ctx):
    cat, lat = ctx.cat, ctx.lat
    for w in widelab.enumerate_wide_subcats(cat):
        def thunk(w=w):
            node = lat.node_index.get(subcat.tors_gen(cat, w))
            _require(node is not None, "generated class is not a torsion class")
            got = widelab.left_wide(lat, node)
            _require(got == w, f"came back as {cat.mask_name(got)}")
        yield cat.mask_name(w), thunk


def _check_hom_audit(ctx):
    cat, lat = ctx.cat, ctx.lat
    for t in range(len(lat)):
        wl = widelab.left_wide(lat, t)
        t_mask = lat.nodes[t]
        for w in subcat.serre_list(cat, wl):
            def thunk(t_mask=t_mask, w=w):
                fw = subcat.torf_gen(cat, w)
                for x in sorted(t_mask):
                    for y in sorted(fw):
                        for prof in cat.hom_profile(x, y):
                            if set(prof.image) - w:
                                raise AuditFailed(
                                    f"image of a map {cat.names[x]}->"
                                    f"{cat.names[y]} leaves {cat.mask_name(w)}"
                                )
                            if set(prof.kernel) - t_mask:
                                raise AuditFailed(
                                    f"kernel of a map {cat.names[x]}->"
                                    f"{cat.names[y]} leaves the class"
                                )
            yield f"{cat.mask_name(t_mask)}|{cat.mask_name(w)}", thunk


def _check_serre_mutation(ctx):
    cat, lat = ctx.cat, ctx.lat
    for t in range(len(lat)):
        for w in subcat.serre_list(cat, widelab.left_wide(lat, t)):
            def thunk(t=t, w=w):
                widelab.serre_mutation(lat, t, w)
            yield f"{lat.name(t)}|{cat.mask_name(w)}", thunk


def _check_label_maps(ctx):
    cat, lat = ctx.cat, ctx.lat
    for a in lat.arrows:
        def thunk(a=a):
            t_mask = lat.nodes[a.src]
            for x in sorted(t_mask):
                for prof in cat.hom_profile(x, a.label):
                    if not prof.epi:
                        raise AuditFailed(
                            f"a nonzero map {cat.names[x]}->"
                            f"{cat.names[a.label]} is not epic"
                        )
                    if set(prof.kernel) - t_mask:
                        raise AuditFailed(
                            f"kernel of a map {cat.names[x]}->"
                            f"{cat.names[a.label]} leaves the class"
                        )
        yield f"{lat.name(a.src)}->{lat.name(a.dst)}", thunk


def _check_simples_out(ctx):
    cat, lat = ctx.cat, ctx.lat
    for t in range(len(lat)):
        def thunk(t=t):
            got = subcat.simples_of_wide(cat, widelab.left_wide(lat, t))
            _require(
                got == lat.out_labels(t),
                f"wide simples {cat.mask_name(got)} against labels"
                f" {cat.mask_name(lat.out_labels(t))}",
            )
        yield lat.name(t), thunk


def _check_wide_serre(ctx):
    cat, lat, flat = ctx.cat, ctx.lat, ctx.flat
    for iv, verdict in ctx.intervals():
        def thunk(iv=iv, verdict=verdict):
            gap = _gap_of(verdict)
            perp = subcat.perp_right(cat, lat.nodes[iv.bottom])
            # the table keeps no gap U^perp & T for a non-wide interval
            w = perp & lat.nodes[iv.top] if gap is None else gap
            via_serre = w in subcat.serre_list(cat, widelab.left_wide(lat, iv.top))
            fnode = flat._node_of(
                perp, lambda: f"perp_right of {lat.name(iv.bottom)}"
            )
            via_sides = w == (
                widelab.right_wide(flat, fnode) & widelab.left_wide(lat, iv.top)
            )
            wide = gap is not None
            _require(
                wide == via_serre == via_sides,
                f"wide={wide} serre={via_serre} sides={via_sides}",
            )
        yield _interval_name(lat, iv), thunk


def _check_serre_count(ctx):
    # the Serre route under each top against the verdict table's wide bottoms
    lat = ctx.lat
    wide = [[] for _ in range(len(lat))]
    failed = {}
    for iv, verdict in ctx.intervals():
        if isinstance(verdict, VerificationError):
            failed.setdefault(iv.top, verdict)
        elif verdict is not None:
            wide[iv.top].append(iv.bottom)
    for t in range(len(lat)):
        def thunk(t=t):
            bottoms = widelab.wide_intervals_with_top(lat, t)
            if t in failed:
                raise failed[t]
            _require(
                bottoms == wide[t],
                f"Serre route found {len(bottoms)} bottoms under"
                f" {lat.name(t)}, the verdicts have {len(wide[t])}",
            )
        yield lat.name(t), thunk


def _check_widely_generated(ctx):
    lat = ctx.lat
    for t in range(len(lat)):
        def thunk(t=t):
            report = widelab.is_widely_generated(lat, t)
            _require(report.holds, "node is not widely generated")
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
    if props is None:
        return PROPERTIES
    chosen = tuple(props)
    for p in chosen:
        if p not in PROPERTY_FUNCS:
            raise UnknownProperty(
                f"unknown property {p!r}; valid: {', '.join(PROPERTIES)}"
            )
    return chosen


def verify_algebra(name, algebra, props=None, config=None):
    """All requested property checks for one algebra, in property order."""
    chosen = validate_props(props)
    ctx = AlgebraContext(name, algebra, config)
    results = []
    for prop in chosen:
        try:
            for obj, thunk in PROPERTY_FUNCS[prop](ctx):
                try:
                    thunk()
                    results.append(CheckResult(name, prop, obj, True, ""))
                except VerificationError as exc:
                    results.append(CheckResult(name, prop, obj, False, str(exc)))
        except VerificationError as exc:
            results.append(CheckResult(name, prop, "(setup)", False, str(exc)))
    return results


def run_verify(named_algebras, props=None, config=None):
    """Verify several algebras in input order."""
    chosen = validate_props(props)
    return [
        r
        for name, alg in named_algebras
        for r in verify_algebra(name, alg, chosen, config)
    ]


def format_report(results):
    lines = []
    failures = 0
    for r in results:
        if r.ok:
            lines.append(f"PASS {r.algebra} {r.prop} {r.obj}")
        else:
            failures += 1
            lines.append(f"FAIL {r.algebra} {r.prop} {r.obj} :: {r.witness}")
    lines.append(f"checks run: {len(results)}")
    lines.append(f"failures: {failures}")
    return "\n".join(lines) + "\n", failures
