"""The complete lattice of torsion classes with its brick-labeled Hasse quiver.

Nodes are masks; arrows point from the larger class of a covering pair to the
smaller and carry the unique brick of the gap as label.  The same builder
produces the dual lattice of torsion-free classes (``side="torf"``) and the
relative lattice inside a wide subcategory (``within=``); joins, meets,
perpendiculars and extension closures are taken on the chosen side and
ambient throughout.

``build_lattice`` walks the covers on int bitsets (bit i for catalog index
i), over rows it derives from the catalog once per call, with a memo of
extension closures local to the call; it leaves ``op_cache`` untouched and
turns its nodes into masks once, at the end.  ``TorsLattice`` keeps masks,
and its order bitsets (``up_sets``, ``down_sets``) run over node indices.
"""

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import subcat
from .errors import (
    LabelNotBrick,
    LabelNotUnique,
    LatticeBlowup,
    NotAnInterval,
    TheoremViolation,
)


@dataclass(frozen=True)
class HasseArrow:
    src: int
    dst: int
    label: int


@dataclass(frozen=True)
class Interval:
    bottom: int
    top: int


class TorsLattice:
    def __init__(self, cat, side, within, nodes, arrows):
        self.cat = cat
        self.side = side
        self.within = within
        self.nodes = nodes
        self.arrows = arrows
        self.node_index = {m: i for i, m in enumerate(nodes)}
        out = {i: [] for i in range(len(nodes))}
        into = {i: [] for i in range(len(nodes))}
        for a in arrows:
            out[a.src].append(a)
            into[a.dst].append(a)
        self.out_of = {i: tuple(v) for i, v in out.items()}
        self.into = {i: tuple(v) for i, v in into.items()}

    def __len__(self):
        return len(self.nodes)

    @property
    def ambient(self):
        return self.cat.full_mask if self.within is None else self.within

    @property
    def bottom_index(self):
        return self.node_index[frozenset()]

    @property
    def top_index(self):
        return self.node_index[self.ambient]

    def _gen(self, mask):
        gen = subcat.tors_gen if self.side == "tors" else subcat.torf_gen
        return gen(self.cat, mask, self.within)

    @cached_property
    def names(self):
        return tuple(self.cat.mask_name(m) for m in self.nodes)

    def name(self, i):
        return self.names[i]

    def leq(self, i, j):
        return self.nodes[i] <= self.nodes[j]

    def _node_of(self, mask, what):
        """The node of a mask.  A mask that is no node raises a
        TheoremViolation naming ``what()``, the operation that gave it."""
        hit = self.node_index.get(mask)
        if hit is None:
            raise TheoremViolation(
                f"{what()} is {self.cat.mask_name(mask)}, not a node"
            )
        return hit

    def _describe(self, op, node_ids):
        return f"{op} of {' & '.join(self.name(i) for i in sorted(node_ids))}"

    def join(self, node_ids):
        mask = frozenset().union(*(self.nodes[i] for i in node_ids)) if node_ids else frozenset()
        return self._node_of(
            self._gen(mask), lambda: self._describe("join", node_ids)
        )

    def meet(self, node_ids):
        mask = self.ambient
        for i in node_ids:
            mask = mask & self.nodes[i]
        return self._node_of(mask, lambda: self._describe("meet", node_ids))

    def interval(self, bottom, top):
        if not self.leq(bottom, top):
            raise NotAnInterval(
                f"{self.name(bottom)} is not contained in {self.name(top)}"
            )
        return Interval(bottom, top)

    # Order from the covering arrows.  Nodes are sorted by size, so every
    # arrow runs from a higher index to a lower one, and one pass in index
    # order fills each set from sets already filled.  upper_set, lower_set,
    # join and meet read the masks, not these sets.

    @cached_property
    def down_sets(self):
        """down_sets[i]: the nodes at or below node i, as an int bitset."""
        down = []
        for i in range(len(self.nodes)):
            bits = 1 << i
            for a in self.out_of[i]:
                bits |= down[a.dst]
            down.append(bits)
        return tuple(down)

    @cached_property
    def up_sets(self):
        """up_sets[i]: the nodes at or above node i, as an int bitset."""
        up = [0] * len(self.nodes)
        for i in reversed(range(len(self.nodes))):
            bits = 1 << i
            for a in self.into[i]:
                bits |= up[a.src]
            up[i] = bits
        return tuple(up)

    @cached_property
    def arrow_labels(self):
        """The label of each covering arrow, keyed by (src, dst)."""
        return {(a.src, a.dst): a.label for a in self.arrows}

    def interval_nodes(self, iv):
        """The nodes of the interval, in ascending index order."""
        return subcat.indices(self.up_sets[iv.bottom] & self.down_sets[iv.top])

    def all_intervals(self):
        for t in range(len(self.nodes)):
            for b in range(len(self.nodes)):
                if self.nodes[b] <= self.nodes[t]:
                    yield Interval(b, t)

    def upper_set(self, iv):
        """The top of the interval plus the interval nodes it covers."""
        members = {iv.top}
        for a in self.out_of[iv.top]:
            if self.nodes[iv.bottom] <= self.nodes[a.dst]:
                members.add(a.dst)
        return frozenset(members)

    def lower_set(self, iv):
        """The bottom of the interval plus the interval nodes covering it."""
        members = {iv.bottom}
        for a in self.into[iv.bottom]:
            if self.nodes[a.src] <= self.nodes[iv.top]:
                members.add(a.src)
        return frozenset(members)

    def labels_of(self, node_ids):
        """Labels of arrows with both endpoints in the given node set."""
        return frozenset(
            a.label for i in node_ids for a in self.out_of[i] if a.dst in node_ids
        )

    def out_labels(self, i):
        return frozenset(a.label for a in self.out_of[i])

    def in_labels(self, i):
        return frozenset(a.label for a in self.into[i])

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
            "nodes": [sorted(m) for m in self.nodes],
            "arrows": [[a.src, a.dst, a.label] for a in self.arrows],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _quotient_minimal(perp, close):
    """The x of the bitset perp whose close row meets perp in x alone."""
    return [x for x in subcat.indices(perp) if close[x] & perp == 1 << x]


def build_lattice(cat, side="tors", within=None, config=None):
    """Walk the covering arrows up from the zero class and label each one.

    The covers of a class T are the inclusion-minimal classes among the
    candidates gen(T + x), x an indecomposable of the ambient in the
    orthogonal of T (T^perp on the torsion side, perp-T on the torsion-free
    side).  Every candidate strictly contains T, so it contains a cover.
    Conversely, for a cover T' of T and X in T' outside T, the quotient of X
    by its T-torsion part lies in T' and in T^perp, so one of its summands x
    is a candidate with T < gen(T + x) <= T'.  Every class is the top of a
    chain of covers from zero, so the walk reaches every class.

    Only the quotient-minimal x are tried: those with fac(x) & T^perp = {x}
    (on the torsion-free side, sub_cl(x) & perp-T = {x}).  This loses no
    cover.  If some y != x lies in fac(x) & T^perp, y is a summand of a
    proper quotient of x, so it has smaller total dimension, and
    gen(T + y) <= gen(T + x).  By induction on the dimension, every
    candidate contains the candidate of a quotient-minimal x, so the
    inclusion-minimal candidates are the same.

    The walk runs on int bitsets (bit i for catalog index i).  Once per
    call it derives, for each member x of the ambient, the rows it reads:
    the members x maps to (from, on the torsion-free side), x's
    ``quotient_rows`` (``sub_rows``) row, both cut down to the ambient, and
    the ``extension_rows`` of x that lie in the ambient.  ``within`` must be
    a wide subcategory W: then fac and sub_cl cut down to W are the closures
    under quotients and subobjects inside W, and the extension closure of a
    mask inside W stays inside it (the argument is in ``subcat``).  Both the
    candidates gen(T + x) = filt(fac(T) | fac(x)) and the label check
    filt(s) = gap call subcat.extension_closure through one memo local to
    the call, keyed by the bitset closed; nothing goes to ``op_cache``.
    The nodes become masks once, at the end.
    """
    cfg = config or cat.config
    ambient = cat.full_mask if within is None else within
    amb = subcat.bits(ambient)
    maps = cat.maps_out if side == "tors" else cat.maps_in
    rows = cat.quotient_rows if side == "tors" else cat.sub_rows
    hits, close, ext = {}, {}, []
    for x in ambient:
        hits[x] = subcat.bits(maps[x]) & amb
        close[x] = subcat.bits(rows[x]) & amb
        uqs = [b for b in cat.extension_rows[x] if b & amb == b]
        if uqs:
            ext.append((1 << x, uqs))
    bricks = subcat.bits(x for x in ambient if cat.bricks[x])
    closed = {}

    def gen(start):
        hit = closed.get(start)
        if hit is None:
            hit = closed[start] = subcat.extension_closure(start, ext)
        return hit

    def name(b):
        return cat.mask_name(frozenset(subcat.indices(b)))

    seen = {0}
    queue = deque([0])
    covers = []
    while queue:
        bottom = queue.popleft()
        perp, below = amb, bottom
        for i in subcat.indices(bottom):
            perp &= ~hits[i]
            below |= close[i]
        cands = {gen(below | close[x]) for x in _quotient_minimal(perp, close)}
        for top in cands:
            if any(c != top and c | top == top for c in cands):
                continue
            gap = perp & top
            found = gap & bricks
            if not found:
                raise LabelNotBrick(f"no brick between {name(bottom)} and {name(top)}")
            if found & (found - 1):
                raise LabelNotUnique(
                    f"{found.bit_count()} bricks between {name(bottom)}"
                    f" and {name(top)}"
                )
            s = found.bit_length() - 1
            if gen(found) != gap:
                raise LabelNotBrick(
                    f"brick {cat.names[s]} does not generate the gap over"
                    f" {name(bottom)}"
                )
            covers.append((top, bottom, s))
            if top not in seen:
                seen.add(top)
                if len(seen) > cfg.node_budget:
                    raise LatticeBlowup(
                        f"{len(seen)} torsion classes found, budget"
                        f" {cfg.node_budget} (--node-budget)"
                    )
                queue.append(top)
    members = sorted(map(subcat.indices, seen), key=lambda m: (len(m), m))
    nodes = tuple(frozenset(m) for m in members)
    index = {subcat.bits(m): i for i, m in enumerate(members)}
    arrows = sorted(
        (HasseArrow(index[top], index[bottom], s) for top, bottom, s in covers),
        key=lambda a: (a.src, a.dst),
    )
    return TorsLattice(cat, side, within, nodes, tuple(arrows))


def dual_correspondence(tors_lat, torf_lat):
    """Match each torsion class to its Hom-orthogonal torsion-free class.

    Returns (mapping, node_checks, arrow_checks): the node map as a list, and
    per-object (description, ok, witness) tuples for the bijection/order
    conditions and for every arrow's dual arrow with equal label.
    """
    cat = tors_lat.cat
    mapping = []
    node_checks = []
    for i, tmask in enumerate(tors_lat.nodes):
        fmask = subcat.perp_right(cat, tmask)
        hit = torf_lat.node_index.get(fmask)
        mapping.append(hit)
        ok = hit is not None
        node_checks.append(
            (
                f"node {tors_lat.name(i)}",
                ok,
                "" if ok else f"{cat.mask_name(fmask)} is not torsion-free",
            )
        )
    bijective = (
        sorted(x for x in mapping if x is not None) == list(range(len(torf_lat)))
        and len(mapping) == len(torf_lat)
    )
    node_checks.append(
        ("node bijection", bijective, "" if bijective else "map is not a bijection")
    )
    order_ok = all(
        (tors_lat.nodes[i] <= tors_lat.nodes[j])
        == (torf_lat.nodes[mapping[j]] <= torf_lat.nodes[mapping[i]])
        for i in range(len(tors_lat))
        for j in range(len(tors_lat))
        if mapping[i] is not None and mapping[j] is not None
    )
    node_checks.append(
        ("order reversal", order_ok, "" if order_ok else "inclusions not reversed")
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
    return mapping, node_checks, arrow_checks

