"""Wide intervals and their consequences, as executable, self-verifying maps.

Everything here is stated for a labeled lattice built by ``lattice``: wide
interval detection three independent ways, the reduction isomorphism onto the
torsion lattice of the gap category, the one-sided wide subcategories read
off the incident labels, the Serre-subcategory bijection below a fixed top,
and widely generated torsion classes.  Each operation re-verifies the
identities it relies on and raises TheoremViolation if any fails, so a green
run is evidence, not trust.
"""

from dataclasses import dataclass

from . import subcat
from .errors import AuditFailed, NotSerre, NotWideInterval, TheoremViolation
from .lattice import Interval, build_lattice


@dataclass(frozen=True)
class WideIntervalReport:
    interval: Interval
    wide_mask: frozenset
    direct: bool
    join: bool
    meet: bool

    @property
    def wide(self):
        return self.direct


def _gap_mask(lat, iv):
    perp = subcat.perp_right if lat.side == "tors" else subcat.perp_left
    return perp(lat.cat, lat.nodes[iv.bottom], lat.within) & lat.nodes[iv.top]


def is_wide_interval(lat, iv):
    """Test an interval three ways: gap wideness, join of lower elements,
    meet of upper elements; raises TheoremViolation unless all three agree."""
    w = _gap_mask(lat, iv)
    direct = subcat.is_wide(lat.cat, w)
    join = lat.join(lat.lower_set(iv)) == iv.top
    meet = lat.meet(lat.upper_set(iv)) == iv.bottom
    if not (direct == join == meet):
        raise TheoremViolation(
            f"verdicts disagree on [{lat.name(iv.bottom)}, {lat.name(iv.top)}]:"
            f" direct={direct} join={join} meet={meet}"
        )
    return WideIntervalReport(iv, w, direct, join, meet)


def tors_of_wide(cat, w_mask, config=None):
    """The torsion-class lattice of a wide subcategory, labels included."""
    subcat.simples_of_wide(cat, w_mask)  # NotWide on bad input
    return build_lattice(cat, side="tors", within=w_mask, config=config)


@dataclass(frozen=True)
class ReductionIso:
    interval: Interval
    wide_lattice: object
    phi: dict
    psi: dict


def reduce_interval(lat, iv, config=None):
    """Collapse a wide interval onto the torsion lattice of its gap category.

    phi sends an interval node v to its trace in the gap W = U^perp & T,
    which is W & v since v <= T, and psi is phi inverted.  Verified
    here: phi is a bijection onto the gap lattice, its covering arrows match
    those of the interval one to one with equal labels, psi(X) is the
    extension product of the bottom U with X, and the gap's simples are both
    the upper and the lower labels of the interval.

    A bijection that matches the covering arrows one to one is an order
    isomorphism, because each order is the transitive closure of its covers;
    so phi and psi = phi^-1 are inverse order isomorphisms.  The extension
    product needs only one inclusion.  star(U, X) <= tors_gen(U | X) always,
    and tors_gen(U | X) <= v for v = psi(X), because v is a torsion class
    that contains U (it lies in the interval) and X (its trace is X).  So
    star(U, X) = v follows once every member of v lies in star(U, X), and
    then tors_gen(U | X) = v too.  This assumes every lattice node is a
    torsion class, which build_lattice guarantees.
    """
    if lat.side != "tors":
        raise ValueError("reduce_interval needs the torsion side")
    report = is_wide_interval(lat, iv)
    if not report.wide:
        raise NotWideInterval(
            f"[{lat.name(iv.bottom)}, {lat.name(iv.top)}] is not wide"
        )
    w = report.wide_mask
    return _reduce_onto(lat, iv, w, tors_of_wide(lat.cat, w, config))


def _reduce_onto(lat, iv, w, wlat):
    """The checks of reduce_interval for a wide interval of the torsion side
    with gap ``w``, against a prebuilt torsion lattice ``wlat`` of the gap."""
    cat = lat.cat
    u_mask = lat.nodes[iv.bottom]
    inside = lat.interval_nodes(iv)

    phi = {}
    for v in inside:
        image = w & lat.nodes[v]
        hit = wlat.node_index.get(image)
        if hit is None:
            raise TheoremViolation(
                f"phi({lat.name(v)}) = {cat.mask_name(image)} is not a"
                f" torsion class of the gap"
            )
        phi[v] = hit
    psi = {x: v for v, x in phi.items()}
    # inverting drops repeated images, so injectivity needs the count
    if len(inside) != len(wlat) or sorted(psi) != list(range(len(wlat))):
        raise TheoremViolation("phi is not a bijection onto the gap lattice")

    internal = [a for v in inside for a in lat.out_of[v] if a.dst in phi]
    for a in internal:
        got = wlat.arrow_labels.get((phi[a.src], phi[a.dst]))
        if got != a.label:
            raise TheoremViolation(
                f"arrow {lat.name(a.src)}->{lat.name(a.dst)} label"
                f" changed under phi"
            )
    if len(internal) != len(wlat.arrows):
        raise TheoremViolation("phi is not a bijection on covering arrows")

    # psi(X) = star(U, X): every member j of psi(X) is an extension of a
    # part of X by a part of U.  Members of U and of X are, through their
    # pairs (j, 0) and (0, j); for the others, the quotient parts of j's
    # pairs over a subobject in U are kept once per interval.
    over_u = {}
    for x, v in psi.items():
        x_mask = wlat.nodes[x]
        for j in lat.nodes[v] - u_mask - x_mask:
            if j not in over_u:
                over_u[j] = [q for u, q in cat.subfactor_sets[j] if u <= u_mask]
            if not any(q <= x_mask for q in over_u[j]):
                raise TheoremViolation(
                    f"psi({wlat.name(x)}) differs from the extension product"
                )

    simples = subcat.simples_of_wide(cat, w)
    uppers = lat.labels_of(lat.upper_set(iv))
    lowers = lat.labels_of(lat.lower_set(iv))
    if not (simples == uppers == lowers):
        raise TheoremViolation(
            f"gap simples {cat.mask_name(simples)}, upper labels"
            f" {cat.mask_name(uppers)}, lower labels {cat.mask_name(lowers)}"
            f" differ on [{lat.name(iv.bottom)}, {lat.name(iv.top)}]"
        )
    return ReductionIso(iv, wlat, phi, psi)


def left_wide(lat, node):
    """Largest wide subcategory of a torsion class whose torsion class it is.

    Computed as the extension closure of the labels leaving the node; audited
    against the defining condition on kernels: every map from an
    indecomposable of the class into the result keeps its kernel in the
    class.
    """
    if lat.side != "tors":
        raise ValueError("left_wide needs the torsion side")
    return _one_sided_wide(lat, node, left=True)


def right_wide(lat, node):
    """Dual of left_wide for a torsion-free class: cokernels stay inside."""
    if lat.side != "torf":
        raise ValueError("right_wide needs the torsion-free side")
    return _one_sided_wide(lat, node, left=False)


def _one_sided_wide(lat, node, left):
    cat = lat.cat
    ambient = lat.nodes[node]

    def run():
        mask = subcat.filt(cat, lat.out_labels(node))
        for x in sorted(mask):
            for y in sorted(ambient):
                pair = (y, x) if left else (x, y)
                for prof in cat.hom_profile(*pair):
                    escaped = (
                        set(prof.kernel) - ambient
                        if left
                        else set(prof.cokernel) - ambient
                    )
                    if escaped:
                        raise AuditFailed(
                            f"map {cat.names[pair[0]]}->{cat.names[pair[1]]}"
                            f" drops {cat.mask_name(escaped)} outside"
                            f" {cat.mask_name(ambient)}"
                        )
        return mask

    return subcat._cached(cat, ("oneside", lat.side, lat.within, ambient), run)


def serre_mutation(lat, t_node, w_mask):
    """Bottom of the wide interval below t_node determined by a Serre piece.

    Verified: the returned class rebuilds the top as an extension product
    with the Serre piece, and the gap of the produced interval is that piece.
    The extension product needs only one inclusion: once the piece W lies in
    the top T, star(U, W) <= T, because U and W lie in T and T is a torsion
    class (every lattice node is, as in reduce_interval).  So star(U, W) = T
    once every member of T has a subfactor pair (u, q) with u in U and q in
    W, and only the members of T are scanned.
    """
    cat = lat.cat
    wl = left_wide(lat, t_node)
    if w_mask not in subcat.serre_list(cat, wl):
        raise NotSerre(
            f"{cat.mask_name(w_mask)} is not Serre in {cat.mask_name(wl)}"
        )
    t_mask = lat.nodes[t_node]
    if not w_mask <= t_mask:
        raise TheoremViolation(
            f"{cat.mask_name(w_mask)} is not inside {cat.mask_name(t_mask)}"
        )
    u_mask = t_mask & subcat.perp_left(cat, w_mask, lat.within)
    u_node = lat.node_index.get(u_mask)
    if u_node is None:
        raise TheoremViolation(
            f"{cat.mask_name(u_mask)} is not a torsion class"
        )
    for j in t_mask:
        if not any(u <= u_mask and q <= w_mask for u, q in cat.subfactor_sets[j]):
            raise TheoremViolation(
                f"extension product over {cat.mask_name(u_mask)} misses the top"
            )
    if subcat.perp_right(cat, u_mask, lat.within) & t_mask != w_mask:
        raise TheoremViolation(
            f"gap over {cat.mask_name(u_mask)} is not {cat.mask_name(w_mask)}"
        )
    return u_node


def wide_intervals_with_top(lat, t_node):
    """All bottoms forming a wide interval under a fixed top.

    Produced through the Serre subcategories of the left wide subcategory,
    checked to be distinct and to number 2 to the outdegree.  The
    exhaustive cross-check against is_wide_interval on every node below is
    verify's serre-count property, which reads its per-interval verdicts.
    """
    cat = lat.cat
    wl = left_wide(lat, t_node)
    bottoms = [serre_mutation(lat, t_node, w) for w in subcat.serre_list(cat, wl)]
    if len(set(bottoms)) != len(bottoms):
        raise TheoremViolation("Serre pieces map to a repeated bottom")
    if len(bottoms) != 2 ** len(lat.out_of[t_node]):
        raise TheoremViolation(
            f"{len(bottoms)} wide bottoms under {lat.name(t_node)} but"
            f" outdegree {len(lat.out_of[t_node])}"
        )
    return sorted(bottoms)


@dataclass(frozen=True)
class WidelyGeneratedReport:
    node: int
    via_wide: bool
    via_labels: bool
    via_covers: bool
    canonical_join: object

    @property
    def holds(self):
        return self.via_wide


def is_widely_generated(lat, t_node):
    """Three equivalent readings of 'generated by a wide subcategory'.

    (wide) the class is generated by its left wide subcategory; (labels) it
    is generated by its outgoing labels; (covers) every strictly smaller
    class sits under some cover.  Disagreement is an implementation bug.
    When the verdict holds, the canonical join representation over the
    outgoing labels is checked to rebuild the class exactly.
    """
    cat = lat.cat
    t_mask = lat.nodes[t_node]
    via_wide = t_mask == subcat.tors_gen(cat, left_wide(lat, t_node), lat.within)
    via_labels = t_mask == subcat.tors_gen(cat, lat.out_labels(t_node), lat.within)
    via_covers = all(
        any(lat.nodes[u] <= lat.nodes[a.dst] for a in lat.out_of[t_node])
        for u in range(len(lat))
        if lat.nodes[u] < t_mask
    )
    if not (via_wide == via_labels == via_covers):
        raise TheoremViolation(
            f"widely-generated verdicts disagree at {lat.name(t_node)}:"
            f" wide={via_wide} labels={via_labels} covers={via_covers}"
        )
    canonical = None
    if via_wide:
        part_ids = [
            lat._node_of(
                subcat.tors_gen(cat, frozenset((s,)), lat.within),
                lambda: f"tors_gen of {cat.names[s]}",
            )
            for s in sorted(lat.out_labels(t_node))
        ]
        canonical = lat.join(part_ids) == t_node
        if not canonical:
            raise TheoremViolation(
                f"join of label-generated classes misses {lat.name(t_node)}"
            )
    return WidelyGeneratedReport(t_node, via_wide, via_labels, via_covers, canonical)


def enumerate_semibricks(cat):
    """Every pairwise Hom-orthogonal set of bricks, the empty set included."""
    bricks = [i for i in range(len(cat.ind)) if cat.bricks[i]]
    out = []
    # an explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle, and it would keep the catalog alive until the
    # cyclic garbage collector happened to run
    stack = [((), 0)]
    while stack:
        prefix, start = stack.pop()
        out.append(frozenset(prefix))
        for k in reversed(range(start, len(bricks))):
            b = bricks[k]
            if all(
                cat.hom_dim[b][o] == 0 and cat.hom_dim[o][b] == 0
                for o in prefix
            ):
                stack.append((prefix + (b,), k + 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def enumerate_wide_subcats(cat):
    """All wide subcategories, one per semibrick."""
    masks = [subcat.filt(cat, sb) for sb in enumerate_semibricks(cat)]
    if len(set(masks)) != len(masks):
        raise TheoremViolation("distinct semibricks generated the same mask")
    return sorted(set(masks), key=lambda s: (len(s), sorted(s)))
