"""The complete lattice of torsion classes with its brick-labeled Hasse quiver.

Nodes are classes of catalog members; arrows point from the larger class of
a covering pair to the smaller and carry the unique brick of the gap as
label.  The same builder produces the dual lattice of torsion-free classes
(``side="torf"``) and the relative lattice inside a wide subcategory W
(``build_lattice(cat, side, within=W)``).  The subcategory a lattice lives
in, W or the whole category, is its ``ambient``, one mask decided once by
``build_lattice``; joins, meets, perpendiculars and extension closures are
taken on the chosen side and inside the ambient throughout, and
``TorsLattice.gen`` is the one place where a closure is cut down to it.

Masks are int bitsets (bit i for catalog index i), as everywhere in the
library, and a node is its mask: ``TorsLattice.node_bits`` holds the masks
in node order and ``bits_index`` finds a node by its mask.  A set of nodes
is an int bitset too, bit i for node i: the lattice takes and returns node
sets only in that form (``join``, ``labels_of``, ``upper_set``,
``lower_set``, ``interval_bits``, the order bitsets).  ``node_index``, from
each node's members as a frozenset to the node, is built on its first
read, for callers that look a class up by its members; no code of the
library reads it, so a lattice that nobody asks builds none.  An arrow is
a ``HasseArrow`` (src, dst, label) and an interval an ``Interval`` (bottom,
top), both named tuples: each equals, and hashes as, the plain tuple of its
fields.  ``out_of`` and ``into`` are tuples indexed by node.
``build_lattice`` walks the covers down from the ambient on bitsets, each
lower cover an AND of a node with catalog rows (T & perp-B for its label
B).  It reads each class once, when it first reaches it, in one pass over
its bits (``_class_rows``) that gives its perpendicular, the mask of its
sub-minimal members and its member list; the candidates below it and the
node order read those.  Its only closures are the label checks' Filt(B),
one ``subcat.filt`` entry per brick, read once per label into a table
local to the call.  It reads ``op_cache`` otherwise only for the wide table
that validates the ambient, and passes its sorted masks to
``TorsLattice``.  The members each node reaches by a map (``reach``, and
from it ``perp``) and its closure row (``_closed_bits``) are derived from
``node_bits`` on first use, each node's row from that of a lower cover
whose mask lies in its own.  Gaps read ``reach``; a join is ``gen`` of the
union of its nodes, a ``subcat.filt``, so every closure read after a build
goes through the one memo, ``op_cache``.
The order bitsets (``up_sets``, ``down_sets``) run over node indices and
are built from the covering arrows.  The intervals come from them: the
bottoms of a top t are the nodes of ``down_sets[t]``, so the enumeration
costs one step per interval, not one per pair of nodes; an interval's
nodes are ``up_sets[U] & down_sets[T]``, and its upper and lower sets are
the covers of T and of U that bitset holds.  ``mask_down_sets`` reads the
same order from the masks alone, for a reading that must not lean on the
arrows (widely generated's covers).  ``dual_correspondence`` derives the
order reversal of the torsion-free dual from the arrows, with the same
Hasse-diagram argument, instead of comparing every pair of nodes.
"""

import json
from collections import deque
from functools import cached_property
from itertools import repeat
from typing import NamedTuple
from . import subcat
from .errors import (
    LabelNotBrick,
    LabelNotUnique,
    LatticeBlowup,
    NotAnInterval,
    TheoremViolation,
)


# a named tuple: a walk builds one per cover arrow, and a tuple is built
# without the per-field __setattr__ of a frozen dataclass; it equals, and
# hashes as, the plain tuple (src, dst, label)
class HasseArrow(NamedTuple):
    src: int
    dst: int
    label: int


# a named tuple, as HasseArrow: a lattice keeps every interval in one tuple,
# one per pair of nested nodes, built without the per-field __setattr__ of
# a frozen dataclass; it equals, and hashes as, the plain tuple (bottom, top)
class Interval(NamedTuple):
    bottom: int
    top: int


class TorsLattice:
    """The classes of one side as masks inside ``ambient``, ``node_bits``,
    and ``HasseArrow``s between node indices.  The constructor is the one
    check of the arrows: an end outside the nodes, or a (src, dst) pair
    given twice, raises ValueError naming the arrow; a loop is accepted.
    That the arrows are the covers of the masks is ``build_lattice``'s to
    make so."""

    def __init__(self, cat, side, ambient, node_bits, arrows):
        self.cat = cat
        self.side = side
        self.ambient = ambient
        self.node_bits = tuple(node_bits)
        self.bits_index = {b: i for i, b in enumerate(self.node_bits)}
        self.arrows = arrows
        n = len(self.node_bits)
        out = [[] for _ in range(n)]
        into = [[] for _ in range(n)]
        covers = [0] * n
        # an index of n or more raises IndexError by itself; a negative one
        # would silently pick a node from the end
        try:
            for a in arrows:
                src, dst = a.src, a.dst
                if src < 0 or dst < 0:
                    raise IndexError
                bit = 1 << dst
                if covers[src] & bit:
                    raise ValueError(f"{a} repeats the arrow ({src}, {dst})")
                covers[src] |= bit
                out[src].append(a)
                into[dst].append(a)
        except IndexError:
            raise ValueError(f"{a} names a node outside 0..{n - 1}") from None
        self.out_of = tuple(map(tuple, out))
        self.into = tuple(map(tuple, into))
        # cover_bits[i]: the nodes node i covers, the heads of the arrows
        # out of it, as an int bitset
        self.cover_bits = tuple(covers)

    @cached_property
    def node_index(self):
        """Each node's members as a frozenset, mapped to the node; built on
        first read, for callers that look a class up by its members."""
        return {frozenset(subcat.indices(b)): i for i, b in enumerate(self.node_bits)}

    def __len__(self):
        return len(self.node_bits)

    @property
    def bottom_index(self):
        return self.bits_index[0]

    @property
    def top_index(self):
        return self.bits_index[self.ambient]

    @cached_property
    def names(self):
        return tuple(map(self.cat.mask_name, self.node_bits))

    def name(self, i):
        return self.names[i]

    def _node_of(self, b, what):
        """The node of a mask.  A mask that is no node raises a
        TheoremViolation naming ``what()``, the operation that gave it."""
        hit = self.bits_index.get(b)
        if hit is None:
            raise self._not_a_node(b, what())
        return hit

    def _not_a_node(self, b, what):
        """The TheoremViolation for the mask b, given by the operation
        ``what`` and no node."""
        return TheoremViolation(f"{what} is {self.cat.mask_name(b)}, not a node")

    def _describe(self, op, nodes):
        return f"{op} of {' & '.join(self.name(i) for i in subcat.indices(nodes))}"

    def gen(self, b):
        """The smallest class of the side containing the mask b, a mask
        inside the ambient W: ``subcat.filt`` of b's ``fac`` (``sub_cl`` on
        the torsion-free side) cut down to W.  This is the library's one
        closure of a side, relative or not; the filt is kept in
        ``op_cache``.

        The closures of the whole module category cut down to W are the
        closures inside W, because W is wide, that is closed under kernels,
        cokernels and extensions (Ingalls-Thomas, arXiv:math/0612219).  Let
        x lie in W, and let (u, q) be one of its subfactor pairs: u the
        summands of a subobject U of x, q those of x/U.

        1. u lies in W iff q does: x/U is the cokernel of U -> x, and U is
           the kernel of x -> x/U.
        2. Each summand Q of x/U that lies in W is itself the quotient of x
           by a subobject in W: x -> x/U -> Q is onto, and its kernel, the
           kernel of a map between objects of W, lies in W.  So x has a pair
           whose u lies in W and whose q is Q alone.  Dually, each summand
           of U that lies in W is a subobject of x whose quotient lies in W.
        3. An extension of two objects of W lies in W.

        By 1 and 2, the members of W among the q parts of x's pairs are the
        members of the q parts of the pairs whose u lies in W: fac cut down
        to W is the closure under quotients in W, and sub_cl cut down to W
        the closure under subobjects in W.  By 3, each step of the ``filt``
        fixpoint from a mask inside W adds a member j with a pair inside the
        mask, so j lies in W; the fixpoint over the whole catalog is the
        fixpoint over W, and needs no cut.  The perpendiculars inside W are
        those of the whole category cut down to W, as ``reach`` and
        ``perp`` read them.  ``tests/oracles.py`` keeps the literal relative
        operators as the reference.
        """
        close = subcat.fac if self.side == "tors" else subcat.sub_cl
        return subcat.filt(self.cat, close(self.cat, b) & self.ambient)

    def join(self, nodes):
        """The smallest class of the side containing the nodes of the node
        bitset ``nodes``: the node of ``gen`` of the union of their masks.

        On a lattice of torsion classes the union is already closed under
        quotients, so the join is its extension closure (Ingalls-Thomas,
        arXiv:math/0612219: a join of torsion classes is the extension
        closure of their union); dually on the torsion-free side.  ``gen``
        closes the union anyway, so the join is gen of the union for
        whatever masks ``node_bits`` holds.  fac of a union is the union of
        the members' fac rows, so the filt is that of the OR of the nodes'
        ``_closed_bits``, which ``widelab.wide_verdicts`` reads.
        """
        union = 0
        for i in subcat.indices(nodes):
            union |= self.node_bits[i]
        closed = self.gen(union)
        return self._node_of(closed, lambda: self._describe("join", nodes))

    def interval(self, bottom, top):
        """The interval [bottom, top] of two node indices.  An index outside
        0..len(self)-1, or a bottom whose mask does not lie in the top's,
        raises NotAnInterval."""
        n = len(self)
        for i in (bottom, top):
            if not 0 <= i < n:
                raise NotAnInterval(f"node {i} is outside 0..{n - 1}")
        if self.node_bits[bottom] & ~self.node_bits[top]:
            raise NotAnInterval(
                f"{self.name(bottom)} is not contained in {self.name(top)}"
            )
        return Interval(bottom, top)

    # The rows of each node, derived on first use from node_bits as it is
    # then, so that a lattice whose masks were altered after construction
    # is read as altered.

    def _node_unions(self, tors_rows, torf_rows):
        """Per node, the union of its members' rows of the side, cut down to
        the ambient.

        The unions are built along the covers, in node order.  Node i takes
        the union of a lower cover j < i whose mask lies in its own, and ORs
        in the rows of the members it has beyond j; a union over j's
        members and the rest is the union over node i's.  Of the covers
        that fit, the one of highest index is taken, on a built lattice the
        largest, so the fewest rows are added.  A node with no such cover,
        as on a lattice altered after construction, ORs the rows of all its
        members."""
        rows = tors_rows if self.side == "tors" else torf_rows
        nb = self.node_bits
        out = []
        for i, b in enumerate(nb):
            acc, rest = 0, b
            for a in reversed(self.out_of[i]):
                j = a.dst
                if j < i and not nb[j] & ~b:
                    acc, rest = out[j], b & ~nb[j]
                    break
            while rest:
                low = rest & -rest
                acc |= rows[low.bit_length() - 1]
                rest ^= low
            out.append(acc)
        amb = self.ambient
        return tuple(acc & amb for acc in out)

    @cached_property
    def reach(self):
        """reach[i]: the members of the ambient that some member of node i
        maps to (maps from, on the torsion-free side), as a bitset."""
        return self._node_unions(self.cat.out_bits, self.cat.in_bits)

    @cached_property
    def _closed_bits(self):
        """_closed_bits[i]: fac of node i (sub_cl on the torsion-free side)
        cut down to the ambient, as a bitset; node i itself when it is a
        class of the side."""
        return self._node_unions(self.cat.quotient_bits, self.cat.sub_bits)

    def perp(self, i):
        """The members of the ambient that node i maps nothing to (that map
        nothing to node i, on the torsion-free side): U^perp (perp-U) in the
        ambient, for U node i."""
        return self.ambient & ~self.reach[i]

    def gap(self, iv):
        """The gap of [U, T]: the members of T that U maps nothing to (that
        map nothing to U, on the torsion-free side), that is U^perp & T
        (perp-U & T) in the ambient."""
        return self.node_bits[iv.top] & ~self.reach[iv.bottom]

    # Order from the covering arrows.  Nodes are sorted by size, so every
    # arrow runs from a higher index to a lower one, and one pass in index
    # order fills each set from sets already filled.  The intervals, their
    # nodes and their upper and lower sets read these sets; join and gap
    # read the node masks.

    @cached_property
    def down_sets(self):
        """down_sets[i]: the nodes at or below node i, as an int bitset."""
        down = []
        for i in range(len(self)):
            bits = 1 << i
            for a in self.out_of[i]:
                bits |= down[a.dst]
            down.append(bits)
        return tuple(down)

    @cached_property
    def up_sets(self):
        """up_sets[i]: the nodes at or above node i, as an int bitset."""
        up = [0] * len(self)
        for i in reversed(range(len(self))):
            bits = 1 << i
            for a in self.into[i]:
                bits |= up[a.src]
            up[i] = bits
        return tuple(up)

    @cached_property
    def mask_down_sets(self):
        """mask_down_sets[i]: the nodes whose masks lie in node i's, as an
        int bitset, read from the masks alone, not from the arrows as
        ``down_sets`` is.  Per member x of the ambient, the nodes whose mask
        lacks x; node i's set is their AND over the x outside its mask."""
        full = (1 << len(self)) - 1
        has = [0] * len(self.cat.ind)
        for i, b in enumerate(self.node_bits):
            for x in subcat.indices(b):
                has[x] |= 1 << i
        lacks = [full & ~h for h in has]
        amb = self.ambient
        out = []
        for b in self.node_bits:
            bits = full
            for x in subcat.indices(amb & ~b):
                bits &= lacks[x]
            out.append(bits)
        return tuple(out)

    @cached_property
    def arrow_labels(self):
        """The label of each covering arrow, keyed by (src, dst)."""
        return {(a.src, a.dst): a.label for a in self.arrows}

    def interval_bits(self, iv):
        """The nodes of the interval, as an int bitset over node indices."""
        return self.up_sets[iv.bottom] & self.down_sets[iv.top]

    @cached_property
    def intervals(self):
        """Every interval, by top, then by bottom, in index order.

        The bottoms of a top t are the nodes of ``down_sets[t]``, so the
        enumeration is O(#intervals).  On a lattice whose arrows are the
        Hasse diagram of its masks, these are the nodes whose masks lie in
        t's, in the order of a subset scan over every pair of nodes
        (``tests/oracles.py``).
        """
        out = []
        for t, down in enumerate(self.down_sets):
            out += map(Interval._make, zip(subcat.indices(down), repeat(t)))
        return tuple(out)

    def upper_set(self, iv):
        """The top of the interval plus the interval nodes it covers, as a
        node bitset."""
        up = self.up_sets[iv.bottom]
        bits = 1 << iv.top
        for a in self.out_of[iv.top]:
            if up >> a.dst & 1:
                bits |= 1 << a.dst
        return bits

    def lower_set(self, iv):
        """The bottom of the interval plus the interval nodes covering it, as
        a node bitset."""
        down = self.down_sets[iv.top]
        bits = 1 << iv.bottom
        for a in self.into[iv.bottom]:
            if down >> a.src & 1:
                bits |= 1 << a.src
        return bits

    def labels_of(self, nodes):
        """The mask of the labels of arrows with both endpoints in the node
        bitset ``nodes``."""
        return subcat.bits(
            a.label
            for i in subcat.indices(nodes)
            for a in self.out_of[i]
            if nodes >> a.dst & 1
        )

    def out_labels(self, i):
        return subcat.bits(a.label for a in self.out_of[i])

    def in_labels(self, i):
        return subcat.bits(a.label for a in self.into[i])

    def to_dot(self):
        cat = self.cat
        lines = [f"digraph {self.side} {{"]
        for name in self.names:
            lines.append(f'  "{name}";')
        for a in self.arrows:
            dims = "".join(str(d) for d in cat.ind[a.label].dims)
            lines.append(
                f'  "{self.name(a.src)}" -> "{self.name(a.dst)}"'
                f' [label="{dims} #{a.label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        doc = {
            "side": self.side,
            "nodes": [subcat.indices(b) for b in self.node_bits],
            "arrows": [[a.src, a.dst, a.label] for a in self.arrows],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _side_rows(cat, side):
    """The rows the walk reads on one side, uncut: it only ever ANDs them
    with a node or subtracts them from the ambient.  Per member x: the
    members x maps to (maps from, on the torsion-free side), which give a
    node's perpendicular; the members that map to x (that x maps to),
    which the candidate T & perp-x (T & x^perp) drops; and x's ``sub_bits``
    (``quotient_bits``) row, for the minimality test.  A side other than
    "tors" or "torf" raises ValueError."""
    if side == "tors":
        return cat.out_bits, cat.in_bits, cat.sub_bits
    if side == "torf":
        return cat.in_bits, cat.out_bits, cat.quotient_bits
    raise ValueError(f"side must be 'tors' or 'torf', not {side!r}")


def _class_rows(node, amb, reach, minimal):
    """What the walk reads of the class node, in one pass over its bits:
    its perpendicular in the ambient amb, the mask of its members x whose
    ``minimal`` row meets node in x alone, and its members, ascending."""
    hit = sub_minimal = 0
    members = []
    rest = node
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        members.append(x)
        hit |= reach[x]
        if minimal[x] & node == low:
            sub_minimal |= low
        rest ^= low
    return amb & ~hit, sub_minimal, members


def build_lattice(cat, side="tors", within=None):
    """Walk the covering arrows down from the ambient and label each one.

    On the torsion side, for a class T and a member x of T, the class
    T & perp-x is a torsion class strictly below T: perp-x is closed under
    quotients and, Hom(-, x) being left exact, under extensions, and it
    lacks x.  Its mask is T minus the members that map to x.  Each lower
    cover T'' of T is T & perp-B for the brick B labelling the cover
    (Demonet-Iyama-Reading-Reiten-Thomas, arXiv:1711.01785), so the lower
    covers are exactly the inclusion-maximal candidates: every candidate
    lies under some lower cover, and every lower cover is a candidate.
    Every class is the bottom of a chain of covers from the ambient, so
    the walk reaches every class.

    Only the sub-minimal x are tried: those with sub_bits(x) & T = {x}.
    This loses no cover, because the label B is sub-minimal.  Suppose a
    member y != B of T were a summand of a submodule of B, necessarily a
    proper one, and let t(y) be its T''-torsion part.  Then y/t(y) lies in
    T and in T''^perp, whose meet is Filt(B); a nonzero object of Filt(B)
    has dimension at least dim B > dim y, so y = t(y) lies in T''.  But y
    embeds in B, so Hom(y, B) != 0, while T'' lies in perp-B: a
    contradiction.  The torsion-free side is dual: the candidates are
    F & x^perp, F minus the members x maps to, for the quotient-minimal x
    of F (quotient_bits(x) & F = {x}).

    The walk runs on int bitsets (bit i for catalog index i), one AND per
    candidate, over the catalog rows ``_side_rows`` picks.  ``within``
    must be a wide subcategory W, else NotWide.  W is then the module
    category of an algebra in its own right, so the argument holds in
    tors W, t(y) taken in W; the Hom rows and the submodules of B are read
    in the whole category, and every node, a mask inside W, cuts them
    down to W.  W, or ``cat.full_mask`` without ``within``, is the
    lattice's ``ambient``, decided here and nowhere else.  The labels are
    checked on every arrow: the gap T & T''^perp must hold exactly one
    brick, and Filt of it must be the gap, read through ``subcat.filt``,
    the catalog's one closure memo (one entry per brick), once per label
    into a table that lives for this call only.  The masks of the classes,
    sorted by size and then by members, are the nodes, at most
    ``cat.config.node_budget`` of them.

    Each class is read once, by ``_class_rows``, when the walk first
    reaches it (the ambient before the walk starts): one pass over its bits
    gives its perpendicular, the mask of its sub-minimal members and its
    member list, kept in ``seen``.  The candidates of a popped class come
    from the bits of its sub-minimal mask, and the node order sorts the
    member lists, so the walk makes no ``subcat.indices`` call, and the
    ``TorsLattice`` constructor none.  A side other than "tors" or "torf"
    raises ValueError before any work.
    """
    reach, cut, minimal = _side_rows(cat, side)
    if within is not None:
        subcat.simples_of_wide(cat, within)
    budget = cat.config.node_budget
    amb = cat.full_mask if within is None else within
    amb_rows = _class_rows(amb, amb, reach, minimal)
    bricks = subcat.bits(x for x in amb_rows[2] if cat.bricks[x])
    name = cat.mask_name
    # per class seen: its perpendicular, its sub-minimal members as a mask,
    # and its members, ascending
    seen = {amb: amb_rows}
    # per label B of this walk: Filt(B), read from subcat.filt once
    filts = {}
    queue = deque([amb])
    covers = []
    while queue:
        top = queue.popleft()
        cands = set()
        rest = seen[top][1]
        while rest:
            low = rest & -rest
            cands.add(top & ~cut[low.bit_length() - 1])
            rest ^= low
        for bottom in cands:
            maximal = True
            for c in cands:
                if c != bottom and c | bottom == c:
                    maximal = False
                    break
            if not maximal:
                continue
            hit = seen.get(bottom)
            new = hit is None
            if new:
                hit = _class_rows(bottom, amb, reach, minimal)
            gap = hit[0] & top
            found = gap & bricks
            if not found:
                raise LabelNotBrick(f"no brick between {name(bottom)} and {name(top)}")
            if found & (found - 1):
                raise LabelNotUnique(
                    f"{found.bit_count()} bricks between {name(bottom)}"
                    f" and {name(top)}"
                )
            s = found.bit_length() - 1
            closed = filts.get(s)
            if closed is None:
                closed = filts[s] = subcat.filt(cat, found)
            if closed != gap:
                raise LabelNotBrick(
                    f"brick {cat.names[s]} does not generate the gap over"
                    f" {name(bottom)}"
                )
            covers.append((top, bottom, s))
            if new:
                seen[bottom] = hit
                if len(seen) > budget:
                    raise LatticeBlowup(
                        f"{len(seen)} torsion classes found, budget"
                        f" {budget} (--node-budget)"
                    )
                queue.append(bottom)
    # no two classes share a member list, so the mask never decides the order
    node_bits = [
        b for _, _, b in sorted([(len(m), m, b) for b, (_, _, m) in seen.items()])
    ]
    index = {b: i for i, b in enumerate(node_bits)}
    # (src, dst) is unique, so the label never decides the order
    arrows = sorted([(index[top], index[bottom], s) for top, bottom, s in covers])
    return TorsLattice(
        cat, side, amb, node_bits, tuple(map(HasseArrow._make, arrows))
    )


def dual_correspondence(tors_lat, torf_lat):
    """Match each torsion class to its Hom-orthogonal torsion-free class.

    Returns (mapping, node_checks, arrow_checks): the node map as a list, and
    per-object (description, ok, witness) tuples for the bijection/order
    conditions and for every arrow's dual arrow with equal label.  The
    torsion-free class of a torsion class T is ``tors_lat.perp`` of it,
    T^perp in the ambient; node T's line holds when T^perp is the mask of a
    node of ``torf_lat``, found by mask and read back from ``node_bits``.

    The order reversal is derived, not scanned over pairs of nodes.  Let the
    map be a bijection on nodes, give every tors arrow T -> T' a torf arrow
    from the image of T' to the image of T with the same label, and let the
    two lattices have equally many arrows.  The map sends distinct arrows to
    distinct arrows, so, with the counts equal, it matches the two Hasse
    diagrams one to one, reversed.  Each order is the transitive closure of
    its covers, so the map reverses order, as in ``reduce_interval``.  The
    "order reversal" line holds when every node line, the bijection, every
    arrow line and the count hold.
    """
    cat = tors_lat.cat
    torf_bits = torf_lat.node_bits
    mapping = []
    node_checks = []
    for i in range(len(tors_lat)):
        fmask = tors_lat.perp(i)
        hit = torf_lat.bits_index.get(fmask)
        mapping.append(hit)
        if hit is None:
            witness = f"{cat.mask_name(fmask)} is not torsion-free"
        elif torf_bits[hit] != fmask:
            witness = (
                f"torsion-free node {torf_lat.name(hit)} is not"
                f" {cat.mask_name(fmask)}"
            )
        else:
            witness = ""
        node_checks.append((f"node {tors_lat.name(i)}", not witness, witness))
    bijective = (
        sorted(x for x in mapping if x is not None) == list(range(len(torf_lat)))
        and len(mapping) == len(torf_lat)
    )
    node_checks.append(
        ("node bijection", bijective, "" if bijective else "map is not a bijection")
    )
    torf_arrows = torf_lat.arrow_labels
    arrow_checks = []
    for a in tors_lat.arrows:
        desc = f"arrow {tors_lat.name(a.src)}->{tors_lat.name(a.dst)}"
        if mapping[a.src] is None or mapping[a.dst] is None:
            arrow_checks.append((desc, False, "endpoint missing in dual"))
            continue
        dual = torf_arrows.get((mapping[a.dst], mapping[a.src]))
        if dual is None:
            arrow_checks.append((desc, False, "no dual arrow"))
        elif dual != a.label:
            arrow_checks.append(
                (desc, False, f"label {cat.names[dual]} != {cat.names[a.label]}")
            )
        else:
            arrow_checks.append((desc, True, ""))
    counts_ok = len(tors_lat.arrows) == len(torf_lat.arrows)
    arrow_checks.append(
        (
            "arrow count",
            counts_ok,
            "" if counts_ok else f"{len(tors_lat.arrows)} != {len(torf_lat.arrows)}",
        )
    )
    order_ok = all(ok for _, ok, _ in node_checks + arrow_checks)
    node_checks.append(
        ("order reversal", order_ok, "" if order_ok else "inclusions not reversed")
    )
    return mapping, node_checks, arrow_checks
