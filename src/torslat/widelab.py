"""Wide intervals and their consequences, as executable, self-verifying maps.

Everything here is stated for a labeled lattice built by ``lattice``: wide
interval detection three independent ways, the reduction isomorphism onto the
torsion lattice of the gap category, the one-sided wide subcategories read
off the incident labels, the Serre-subcategory bijection below a fixed top,
and widely generated torsion classes.  Each operation re-verifies the
identities it relies on and raises TheoremViolation if any fails, so a green
run is evidence, not trust.

Subcategories are masks, int bitsets of catalog indices (see ``subcat``):
the gap of an interval, the one-sided wide subcategories, the Serre pieces
and the semibricks are all taken and returned as masks, and read the
lattice through its node masks (``TorsLattice.node_bits``,
``bits_index``).  Lists of masks are sorted by size, then by ascending
member indices.

The torsion lattices of many wide subcategories come from one walk
(``serre_roots``): if the simples S of W lie in a semibrick S*, then W is
a Serre subcategory of W* = Filt(S*), and tors W is the down-set of W in
tors W*, covering arrows and brick labels included (the proof is at
``tors_of_wide``).  So each gap's simples are grown to a maximal semibrick,
one lattice is walked per maximal semibrick met, and every gap under it is
read in that lattice, as the down-set of its node.

The reduction of the wide intervals over one bottom U is proved once, on
the largest of them.  Dually to the Serre bijection below a fixed top, the
wide intervals [U, T] match the Serre subcategories of one wide W_U
(arXiv 1905.01148; Marks-Stovicek, arXiv:1503.04639), so their gaps are
Serre in W_U and each lies inside [U, T_U], the one whose gap is W_U.  Once
[U, T_U] is reduced onto tors W_U, a label-preserving isomorphism of the
Hasse diagrams, each other [U, T] with gap W is its restriction to the
down-set of W, which is tors W: W is a node of tors W_U under W_U, psi(W)
is T, and psi maps W's down-set onto the nodes of [U, T]
(``_reduce_bottom``).  A restriction of an isomorphism that keeps covers
and labels to a down-set keeps them too, and phi there is v -> W & v,
since W_U & v = U^perp & v = W & v for v <= T.
"""

from dataclasses import dataclass

from . import subcat
from .errors import (
    AuditFailed,
    LatticeBlowup,
    NotSerre,
    NotWideInterval,
    TheoremViolation,
    VerificationError,
)
from .lattice import Interval, build_lattice


def wide_verdicts(lat, t, bottoms):
    """The wideness verdicts of the intervals [U, T], T node t, for each U of
    ``bottoms``, nodes below t.

    Three readings of "wide" must agree (arXiv 1905.01148): direct, the gap
    W = U^perp & T is a wide subcategory; join, T is the join of U and the
    nodes covering U inside [U, T]; meet, U is the meet of T and the nodes T
    covers inside [U, T].  One outcome per bottom, in order: W when the
    interval is wide, None when it is not, or the VerificationError raised
    (its traceback stripped, whose frames would hold the lattice), so a
    failed check leaves the other verdicts standing.  A join or meet that is
    no node raises as ``TorsLattice.join`` does, naming the nodes; three
    readings that differ raise "verdicts disagree".

    T's mask, its lower covers and the catalog's wide table
    (``subcat.wide_table``) are read once.  Per bottom it is bit algebra:
    the gap is T & ~reach[U], looked up in the wide table; the join is
    ``subcat.filt`` of the ``_closed_bits`` of U and of the covers of U
    inside T (``down_sets``), as in ``TorsLattice.join``; the meet is T's
    mask ANDed with the covers of T that contain U (``up_sets``).  Nothing
    else is built unless a check fails.  The same code serves both sides
    and relative lattices.  A wide table that raises a VerificationError
    fails every verdict with it, as a per-bottom read would.
    """
    cat = lat.cat
    try:
        table = subcat.wide_table(cat)
    except VerificationError as exc:
        return [exc.with_traceback(None)] * len(bottoms)
    nb, reach, closed = lat.node_bits, lat.reach, lat._closed_bits
    index, into, up = lat.bits_index, lat.into, lat.up_sets
    t_mask = nb[t]
    below_t = lat.down_sets[t]
    covers = [(a.dst, nb[a.dst]) for a in lat.out_of[t]]
    out = []
    for u in bottoms:
        try:
            w = t_mask & ~reach[u]
            direct = w in table
            start = closed[u]
            for a in into[u]:
                if below_t >> a.src & 1:
                    start |= closed[a.src]
            b = subcat.filt(cat, start)
            hit = index.get(b)
            if hit is None:
                lower = lat.lower_set(Interval(u, t))
                raise lat._not_a_node(b, lat._describe("join", lower))
            join = hit == t
            above_u = up[u]
            b = t_mask
            for c, c_mask in covers:
                if above_u >> c & 1:
                    b &= c_mask
            hit = index.get(b)
            if hit is None:
                upper = lat.upper_set(Interval(u, t))
                raise lat._not_a_node(b, lat._describe("meet", upper))
            meet = hit == u
            if not (direct == join == meet):
                raise TheoremViolation(
                    f"verdicts disagree on [{lat.name(u)}, {lat.name(t)}]:"
                    f" direct={direct} join={join} meet={meet}"
                )
            out.append(w if direct else None)
        except VerificationError as exc:
            out.append(exc.with_traceback(None))
    return out


def is_wide_interval(lat, iv):
    """Test an interval three ways: gap wideness, join of lower elements,
    meet of upper elements; raises TheoremViolation unless all three agree.

    This is ``wide_verdicts`` on the one bottom: the gap mask when the
    interval is wide, None when it is not.  Test the result with ``is not
    None``: the trivial interval [T, T] is wide with gap 0.
    """
    (verdict,) = wide_verdicts(lat, iv.top, [iv.bottom])
    if isinstance(verdict, VerificationError):
        raise verdict
    return verdict


def tors_of_wide(cat, w):
    """The torsion-class lattice of a wide subcategory, labels included.

    One walk serves many wide subcategories (Serre restriction,
    Demonet-Iyama-Reading-Reiten-Thomas, arXiv:1711.01785).  Let W* be wide
    with simples S*, so W* = Filt(S*) is abelian with simple objects S*
    (Asai, arXiv:1610.05860: a wide subcategory is Filt of its simples, a
    semibrick), and let W = Filt(S) for S inside S*.  By Jordan-Hoelder in
    W*, W is the class of the objects of W* whose composition factors all
    lie in S.  A subobject, a quotient or an extension in W* of objects of
    W has its composition factors among theirs, so W is a Serre
    subcategory of W*.  Then the torsion classes of W are the torsion
    classes T of W* with T <= W:

    - such a T is closed under the quotients and extensions of W, which
      are quotients and extensions in W*;
    - a torsion class T of W is closed under quotients in W*, because a
      quotient in W* of an object of W lies in W and is a quotient there,
      and under extensions in W*, because an extension in W* of objects of
      W lies in W.

    So tors W is the down-set [0, W] of tors W* (W itself is a torsion
    class of W*, being Serre).  A down-set is convex, so its covering pairs
    are those of tors W*, and the label of a cover T' -> T is the one brick
    of T' & T^perp: the perpendicular inside W is the one inside W* cut
    down to W, which leaves T' & T^perp unchanged as T' <= W.  A w that is
    not wide raises NotWide, from ``build_lattice``.
    """
    return build_lattice(cat, side="tors", within=w)


def serre_roots(lat, gaps):
    """(W, root) for each wide subcategory W of ``gaps``, masks inside the
    ambient of ``lat``, a lattice of the torsion side: root is the torsion
    lattice of a wide subcategory W* in which W is Serre, so tors W is the
    down-set of W's node in root (see ``tors_of_wide``).  A gap whose root
    cannot be had comes as (W, the VerificationError), its traceback
    stripped; the pairs come grouped by their root, not in the order of
    ``gaps``.

    The simples of each gap are grown greedily to a maximal semibrick S*
    among the bricks of the ambient: the lowest-index brick with no nonzero
    map to or from any member so far is added until none is left, which is
    ``subcat.is_semibrick`` of the grown set.  The gaps of one S* are Serre
    in W* = Filt(S*), and tors W* is walked once by ``tors_of_wide``,
    except when W* is the ambient, whose lattice is ``lat``.  One walked
    root is alive at a time, so a caller that drops each root before it
    asks for the next keeps it so.  If the walk of W* raises a
    VerificationError or passes the node budget, each gap of its group is
    walked on its own instead and is its own root, or gets the error that
    walk raises.
    """
    if lat.side != "tors":
        raise ValueError("serre_roots needs the torsion side")
    cat = lat.cat
    bricks = subcat.bits(x for x in subcat.indices(lat.ambient) if cat.bricks[x])
    groups = {}
    for w in gaps:
        try:
            simples = subcat.simples_of_wide(cat, w)
        except VerificationError as exc:
            yield w, exc.with_traceback(None)
            continue
        groups.setdefault(_grown_semibrick(cat, simples, bricks), []).append(w)
    for sb, ws in groups.items():
        yield from _group_roots(lat, subcat.filt(cat, sb), ws)


def _grown_semibrick(cat, s, bricks):
    """The semibrick s grown greedily to a maximal one among ``bricks``."""
    free = bricks
    for x in subcat.indices(s):
        free &= ~(cat.out_bits[x] | cat.in_bits[x])
    while free:
        b = free & -free
        x = b.bit_length() - 1
        s |= b
        free &= ~(cat.out_bits[x] | cat.in_bits[x])
    return s


def _group_roots(lat, root_mask, ws):
    """The pairs of ``serre_roots`` for the gaps ws, Serre in root_mask."""
    if root_mask == lat.ambient:
        root = lat
    else:
        try:
            root = tors_of_wide(lat.cat, root_mask)
        except (VerificationError, LatticeBlowup):
            root = None
    for w in ws:
        if root is not None:
            yield w, root
            continue
        try:
            own = tors_of_wide(lat.cat, w)
        except VerificationError as exc:
            own = exc.with_traceback(None)
        yield w, own


@dataclass(frozen=True)
class ReductionIso:
    interval: Interval
    wide_lattice: object
    phi: dict
    psi: dict


def reduce_interval(lat, iv):
    """Collapse a wide interval onto the torsion lattice of its gap category.

    phi sends an interval node v to its trace in the gap W = U^perp & T,
    which is W & v since v <= T, and psi is phi inverted.  Verified
    here: phi is a bijection onto the gap lattice, its covering arrows match
    those of the interval one to one with equal labels, psi(X) is the
    extension product of the bottom U with X, and the gap's simples are both
    the upper and the lower labels of the interval.

    The scans run on bitsets.  The interval is the bitset ``up_sets[U] &
    down_sets[T]`` over node indices, and its upper labels (on the arrows
    out of T) and its lower labels (on the arrows into U) are picked by bit
    tests on it; its internal arrows are counted by popcount on
    ``lat.cover_bits`` cut down to it, after each arrow of the gap lattice
    is looked up under psi among the lattice's (``_reduce_onto``); phi(v) is
    looked up as the gap's bitset AND v's, and the extension product is
    tested on the catalog's pair bits by ``subcat.extension_product_miss``,
    which needs only one inclusion: v = psi(X) is a torsion class (every
    lattice node is, which build_lattice guarantees) that contains U, as it
    lies in the interval, and X, its trace.

    A bijection that matches the covering arrows one to one is an order
    isomorphism, because each order is the transitive closure of its covers;
    so phi and psi = phi^-1 are inverse order isomorphisms.
    """
    if lat.side != "tors":
        raise ValueError("reduce_interval needs the torsion side")
    w = is_wide_interval(lat, iv)
    if w is None:
        raise NotWideInterval(
            f"[{lat.name(iv.bottom)}, {lat.name(iv.top)}] is not wide"
        )
    return _reduce_onto(lat, iv, w, tors_of_wide(lat.cat, w))


def _reduce_onto(lat, iv, w, root):
    """The checks of reduce_interval for a wide interval of the torsion side
    with gap ``w``, against ``root``, a prebuilt torsion lattice of a wide
    subcategory in which w is Serre.  The gap lattice is the
    down-set D of w's node in root (see ``tors_of_wide``): all of root when
    w is its ambient, which reads no ``down_sets``, and otherwise
    ``root.down_sets`` of it, whose arrows are the arrows out of its nodes.
    phi maps onto D, into root's node indices, and each psi(X) must be the
    extension product U * X (``subcat.extension_product_miss``).

    The arrows are checked from D's side.  Each arrow x -> y of D must map
    to an arrow psi(x) -> psi(y) of the interval with the same label, read
    in ``lat.arrow_labels``; then the interval's internal arrows, counted
    by popcount on ``lat.cover_bits``, must number as many as D's.  An
    arrow is read as its pair (src, dst), which the walk makes once.  psi
    is injective, so distinct arrows of D map to distinct arrows of the
    interval, and each image has both ends in the interval: the map is one
    to one into the internal arrows.  With the counts equal it is onto
    them, so psi, and with it phi, matches the two sets of covering arrows
    one to one, labels included."""
    cat = lat.cat
    nb = lat.node_bits
    u_bits = nb[iv.bottom]
    inside = lat.interval_bits(iv)
    nodes = subcat.indices(inside)
    x_w = root.bits_index.get(w)
    if x_w is None:
        raise TheoremViolation(
            f"{cat.mask_name(w)} is not a torsion class of"
            f" {cat.mask_name(root.ambient)}"
        )
    if w == root.ambient:
        down = (1 << len(root)) - 1
    else:
        down = root.down_sets[x_w]

    phi = {}
    hits = 0
    for v in nodes:
        image = w & nb[v]
        hit = root.bits_index.get(image)
        if hit is None or not down >> hit & 1:
            raise TheoremViolation(
                f"phi({lat.name(v)}) = {cat.mask_name(image)}"
                f" is not a torsion class of the gap"
            )
        phi[v] = hit
        hits |= 1 << hit
    # the images cover D, and as many as D has: no image repeats
    if len(nodes) != down.bit_count() or hits != down:
        raise TheoremViolation("phi is not a bijection onto the gap lattice")
    psi = {x: v for v, x in phi.items()}

    # D's arrows under psi, then the count of the interval's internal arrows
    labels = lat.arrow_labels
    arrow_count = 0
    for x, v in psi.items():
        for a in root.out_of[x]:
            if labels.get((v, psi[a.dst])) != a.label:
                raise TheoremViolation(
                    f"arrow {root.name(x)}->{root.name(a.dst)} label"
                    f" changed under psi"
                )
        arrow_count += len(root.out_of[x])
    covers = lat.cover_bits
    internal = 0
    for v in nodes:
        internal += (covers[v] & inside).bit_count()
    if internal != arrow_count:
        raise TheoremViolation("phi is not a bijection on covering arrows")

    for x, v in psi.items():
        x_bits = root.node_bits[x]
        if subcat.extension_product_miss(cat, u_bits, x_bits, nb[v]) is not None:
            raise TheoremViolation(
                f"psi({root.name(x)}) differs from the extension product"
            )

    _check_end_labels(lat, iv, inside, w)
    return ReductionIso(iv, root, phi, psi)


def _check_end_labels(lat, iv, inside, w):
    """The labels of the arrows out of the top and into the bottom of iv,
    inside it (node bitset ``inside``), must be the simples of its gap w."""
    simples = subcat.simples_of_wide(lat.cat, w)
    uppers = subcat.bits(a.label for a in lat.out_of[iv.top] if inside >> a.dst & 1)
    lowers = subcat.bits(a.label for a in lat.into[iv.bottom] if inside >> a.src & 1)
    if not (simples == uppers == lowers):
        mask_name = lat.cat.mask_name
        raise TheoremViolation(
            f"gap simples {mask_name(simples)}, upper labels"
            f" {mask_name(uppers)}, lower labels {mask_name(lowers)}"
            f" differ on [{lat.name(iv.bottom)}, {lat.name(iv.top)}]"
        )


def _reduce_bottom(lat, wides, w_u, root):
    """(interval, None or the VerificationError it fails with) for each of
    ``wides``, the (interval, gap) pairs of the wide intervals over one
    bottom U, whose gaps' union w_u is the gap of one of them, [U, T_U].
    root is what ``serre_roots`` gave for w_u: a torsion lattice in which
    w_u is Serre, or the error that failed every interval.

    [U, T_U] is reduced onto root in full (``_reduce_onto``); a failure
    there fails every interval over U.  Each other [U, T] with gap W is
    checked as a restriction of it (module docstring): W is a node x of
    root inside D, the down-set of w_u; psi(x) is T; the nodes of [U, T]
    are psi of the down-set of x, which ``img`` holds per node of D as a
    bitset of lat's nodes, filled in ascending node order from the covers;
    and the upper and lower labels of [U, T] are the simples of W.  The
    lower labels lie among those of [U, T_U], the simples of w_u, so the
    simples of W lie in w_u's, and W is Serre in w_u.
    """
    if isinstance(root, VerificationError):
        return [(iv, root) for iv, _ in wides]
    full = next(iv for iv, w in wides if w == w_u)
    try:
        psi = _reduce_onto(lat, full, w_u, root).psi
    except VerificationError as exc:
        exc = exc.with_traceback(None)
        return [(iv, exc) for iv, _ in wides]
    img = {}
    for x in sorted(psi):
        bits = 1 << psi[x]
        for a in root.out_of[x]:
            bits |= img[a.dst]
        img[x] = bits
    out = []
    for iv, w in wides:
        try:
            if iv != full:
                _check_restriction(lat, iv, w, w_u, root, psi, img)
            out.append((iv, None))
        except VerificationError as exc:
            out.append((iv, exc.with_traceback(None)))
    return out


def _check_restriction(lat, iv, w, w_u, root, psi, img):
    """The checks of ``_reduce_bottom`` for one interval other than the
    largest over its bottom."""
    mask_name = lat.cat.mask_name
    x = root.bits_index.get(w)
    if x not in img:
        raise TheoremViolation(
            f"gap {mask_name(w)} is not a torsion class of {mask_name(w_u)}"
        )
    if psi[x] != iv.top:
        raise TheoremViolation(
            f"psi({root.name(x)}) is {lat.name(psi[x])}, not the top"
            f" {lat.name(iv.top)}"
        )
    inside = lat.interval_bits(iv)
    if inside != img[x]:
        raise TheoremViolation(
            f"[{lat.name(iv.bottom)}, {lat.name(iv.top)}] is not psi of the"
            f" down-set of {mask_name(w)}"
        )
    _check_end_labels(lat, iv, inside, w)


def left_wide(lat, node):
    """Largest wide subcategory of a torsion class whose torsion class it is.

    Computed as the extension closure of the labels leaving the node; audited
    against the defining condition on kernels: every map from an
    indecomposable of the class into the result keeps its kernel in the
    class.
    """
    if lat.side != "tors":
        raise ValueError("left_wide needs the torsion side")
    return _one_sided_wide(lat, node)


def right_wide(lat, node):
    """Dual of left_wide for a torsion-free class: cokernels stay inside."""
    if lat.side != "torf":
        raise ValueError("right_wide needs the torsion-free side")
    return _one_sided_wide(lat, node)


def _one_sided_wide(lat, node):
    """left_wide of a torsion class, right_wide of a torsion-free one,
    kept in ``op_cache`` under the side, the ambient and the node's
    mask."""
    cat = lat.cat
    left = lat.side == "tors"
    node_mask = lat.node_bits[node]

    def run():
        mask = subcat.filt(cat, lat.out_labels(node))
        table = cat.hom_table
        # the y of the node with a nonzero map y -> x, or x -> y on the right
        nonzero = cat.in_bits if left else cat.out_bits
        for x in subcat.indices(mask):
            for y in subcat.indices(node_mask & nonzero[x]):
                pair = (y, x) if left else (x, y)
                prof = table[pair[0]][pair[1]]
                escaped = (prof.kernel if left else prof.cokernel) & ~node_mask
                if escaped:
                    raise AuditFailed(
                        f"map {cat.names[pair[0]]}->{cat.names[pair[1]]}"
                        f" drops {cat.mask_name(escaped)} outside"
                        f" {cat.mask_name(node_mask)}"
                    )
        return mask

    return subcat._cached(cat, ("oneside", lat.side, lat.ambient, node_mask), run)


def serre_mutation(lat, t_node, w):
    """Bottom of the wide interval below t_node determined by a Serre piece.

    Verified: the returned class rebuilds the top as an extension product
    with the Serre piece (``subcat.extension_product_miss``, once the piece
    W lies in the top T: U and W lie in T, a torsion class as every lattice
    node is), and the gap of the produced interval is that piece.

    The bottom is kept in ``op_cache`` under the side, the ambient, T's mask
    and W, so the Serre route under a top (``wide_intervals_with_top``)
    reuses the work; a failed check keeps nothing and raises on every call.
    """
    key = ("mutation", lat.side, lat.ambient, lat.node_bits[t_node], w)
    return subcat._cached(lat.cat, key, lambda: _serre_bottom(lat, t_node, w))


def _serre_bottom(lat, t_node, w):
    """The checks and the bottom of ``serre_mutation``."""
    cat = lat.cat
    wl = left_wide(lat, t_node)
    if w not in subcat.serre_list(cat, wl):
        raise NotSerre(f"{cat.mask_name(w)} is not Serre in {cat.mask_name(wl)}")
    t_mask = lat.node_bits[t_node]
    if w & ~t_mask:
        raise TheoremViolation(
            f"{cat.mask_name(w)} is not inside {cat.mask_name(t_mask)}"
        )
    u_mask = t_mask & subcat.perp_left(cat, w)
    u_node = lat.bits_index.get(u_mask)
    if u_node is None:
        raise TheoremViolation(
            f"{cat.mask_name(u_mask)} is not a torsion class"
        )
    if subcat.extension_product_miss(cat, u_mask, w, t_mask) is not None:
        raise TheoremViolation(
            f"extension product over {cat.mask_name(u_mask)} misses the top"
        )
    if lat.perp(u_node) & t_mask != w:
        raise TheoremViolation(
            f"gap over {cat.mask_name(u_mask)} is not {cat.mask_name(w)}"
        )
    return u_node


def wide_intervals_with_top(lat, t_node):
    """All bottoms forming a wide interval under a fixed top.

    Produced through the Serre subcategories of the left wide subcategory,
    checked to be distinct and to number 2 to the outdegree.  The
    exhaustive cross-check against the wideness verdict of every interval
    below is verify's serre-count property, which reads ``wide_verdicts``.
    ``serre_mutation`` keeps each bottom it finds, so a route run after the
    same mutations reads them back.
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


def is_widely_generated(lat, t_node):
    """Three equivalent readings of 'generated by a wide subcategory'.

    (wide) the class is generated by its left wide subcategory; (labels) it
    is generated by its outgoing labels; (covers) every strictly smaller
    class sits under some cover.  Disagreement is an implementation bug.
    The covers reading compares masks, through ``mask_down_sets``, not the
    order the arrows give: the nodes whose masks lie in T's, T aside, all
    lie in the sets of T's lower covers.
    When the verdict holds, the canonical join representation over the
    outgoing labels is checked to rebuild the class exactly.  Returns the
    verdict.  Each class generated is ``lat.gen``, the torsion class
    generated inside the ambient.
    """
    cat = lat.cat
    t_mask = lat.node_bits[t_node]
    via_wide = t_mask == lat.gen(left_wide(lat, t_node))
    via_labels = t_mask == lat.gen(lat.out_labels(t_node))
    below = lat.mask_down_sets
    under_covers = 0
    for a in lat.out_of[t_node]:
        under_covers |= below[a.dst]
    via_covers = not below[t_node] & ~(1 << t_node) & ~under_covers
    if not (via_wide == via_labels == via_covers):
        raise TheoremViolation(
            f"widely-generated verdicts disagree at {lat.name(t_node)}:"
            f" wide={via_wide} labels={via_labels} covers={via_covers}"
        )
    if via_wide:
        parts = 0
        for s in subcat.indices(lat.out_labels(t_node)):
            parts |= 1 << lat._node_of(
                lat.gen(1 << s), lambda: f"tors_gen of {cat.names[s]}"
            )
        if lat.join(parts) != t_node:
            raise TheoremViolation(
                f"join of label-generated classes misses {lat.name(t_node)}"
            )
    return via_wide


def _by_size(b):
    return b.bit_count(), subcat.indices(b)


def enumerate_semibricks(cat):
    """Every semibrick, the empty one included, as masks: the values of
    ``subcat.wide_table``, so LatticeBlowup past the node budget."""
    return sorted(subcat.wide_table(cat).values(), key=_by_size)


def enumerate_wide_subcats(cat):
    """All wide subcategories, one per semibrick: the keys of
    ``subcat.wide_table``."""
    return sorted(subcat.wide_table(cat), key=_by_size)
