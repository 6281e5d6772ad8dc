"""Subcategory operators on catalog masks.

A mask is an int bitset, bit i set for catalog index i, and denotes the
additive hull of its members.  Every operator takes the catalog first and
masks in and out; an order that follows the members comes from ``indices``,
ascending, never from the int value.  Every operator works in the whole
module category.  A lattice inside a wide subcategory W cuts results down
to W itself, at one place, ``lattice.TorsLattice.gen``, whose docstring
proves the cut exact.

The operators are bit algebra on the rows the catalog derives from its
tables: ``perp_left`` is the whole catalog minus the ``in_bits`` rows of
the members; the perpendiculars of a lattice's nodes are the lattice's
own (``TorsLattice.perp``).  ``fac`` and ``sub_cl`` are one union of the
members with their ``quotient_bits`` (or ``sub_bits``), without a memo,
and ``TorsLattice.gen``, the one closure of a side, is their only reader.
``filt`` runs ``extension_closure``, the one extension-closure fixpoint of
the library, on the catalog's ``closure_rows`` and keeps the result under
``("filt", mask)``, the one closure memo: the joins of every lattice,
relative ones included, read it.
``lattice.build_lattice`` finds its covers by perpendiculars, with no
fixpoint; it reads ``op_cache`` for the ``filt`` of each arrow label, one
entry per brick read once per walk, and for the wide table, to validate
the ambient of a relative lattice.  Results that are reused are kept in
the catalog's ``op_cache`` through ``_cached``, the one memo helper of the
library: widelab's verdicts go through it too, each under a key tagged by
its kind, each kind at one call site.  The catalog's Hom table is no memo: the
``Catalog`` constructor builds it, with the rows it derives.

``is_semibrick`` is the one semibrick test: bricks whose ``out_bits`` rows
miss the other members.  Wideness is decided once per catalog, by
``wide_table``, Filt(S) -> S per semibrick: a mask is wide when it is a
key, and ``simples_of_wide`` looks its simples up there.
``extension_product_miss`` is the one extension-product test.
The lattice joins that the interval verdicts read are extension closures
too: the join of torsion classes is the smallest torsion class containing
their union, and that union is already closed under quotients, so the join
is ``filt`` of the union (Ingalls-Thomas, arXiv:math/0612219); dually for
torsion-free classes.

The extension-closure operator ``filt`` works pairwise on the subfactor
table.  That computes the smallest extension-closed summand-closed class
containing the input, which agrees with iterated-extension closure on every
input this package feeds it (quotient-closed masks, subobject-closed masks,
semibricks); arbitrary masks may have a larger non-summand-closed closure
that masks cannot denote.
"""

import itertools

from .errors import LatticeBlowup, NotWide, TheoremViolation, TorslatError


def _cached(cat, key, fn):
    hit = cat.op_cache.get(key)
    if hit is None:
        hit = fn()
        cat.op_cache[key] = hit
    return hit


def bits(members):
    """An iterable of catalog indices as an int bitset."""
    out = 0
    for i in members:
        out |= 1 << i
    return out


def indices(b):
    """The set bits of an int bitset, in ascending order."""
    out = []
    while b:
        low = b & -b
        out.append(low.bit_length() - 1)
        b ^= low
    return out


def _union_rows(rows, b):
    """b together with the rows of its members."""
    out = b
    for i in indices(b):
        out |= rows[i]
    return out


def fac(cat, b):
    """Closure under quotients."""
    return _union_rows(cat.quotient_bits, b)


def sub_cl(cat, b):
    """Closure under subobjects."""
    return _union_rows(cat.sub_bits, b)


def extension_closure(cur, rows):
    """The extension-closure fixpoint on int bitsets.

    ``rows`` holds, per candidate j, the pair (1 << j, the u | q bitsets of
    j's nontrivial subfactor pairs).  A candidate joins ``cur`` once one of
    its bitsets lies inside ``cur``; the pass repeats until none joins.  The
    result is the least fixpoint, so the order of the candidates is free.
    """
    todo = [r for r in rows if not r[0] & cur]
    grew = True
    while grew:
        grew = False
        rest = []
        for r in todo:
            for uq in r[1]:
                if uq & cur == uq:
                    cur |= r[0]
                    grew = True
                    break
            else:
                rest.append(r)
        todo = rest
    return cur


def filt(cat, b):
    """Least summand-closed extension-closed mask containing the input."""
    return _cached(cat, ("filt", b), lambda: extension_closure(b, cat.closure_rows))


def perp_left(cat, b):
    """Objects sending no nonzero map to any member."""
    hit = 0
    for i in indices(b):
        hit |= cat.in_bits[i]
    return cat.full_mask & ~hit


def is_semibrick(cat, b):
    """All members bricks, with no nonzero map between two of them."""
    for i in indices(b):
        if not cat.bricks[i] or cat.out_bits[i] & b & ~(1 << i):
            return False
    return True


def wide_table(cat):
    """``{Filt(S): S}`` over every semibrick S, the empty one included, kept
    under ``("wide",)``: a wide subcategory is Filt of its simples, a
    semibrick, and a semibrick S is the set of simples of Filt(S) (Ringel;
    Asai, arXiv:1610.05860).  There are as many of them as torsion
    classes (Marks-Stovicek, arXiv:1503.04639), so more than
    ``cat.config.node_budget`` raise LatticeBlowup.  A search that raises
    runs once: the entry keeps its error, traceback stripped, and every
    read raises it again."""

    def run():
        try:
            return _semibrick_search(cat)
        except TorslatError as exc:
            return exc.with_traceback(None)

    hit = _cached(cat, ("wide",), run)
    if type(hit) is dict:
        return hit
    raise hit.with_traceback(None)


def _semibrick_search(cat):
    """The dict of ``wide_table``: a depth-first search over the bricks, in
    ascending index, adds a brick with no nonzero map to or from a member,
    and closes each semibrick by ``extension_closure``; two semibricks that
    close to one mask raise TheoremViolation."""
    budget = cat.config.node_budget
    table = {}
    stack = [(0, bits(x for x in range(len(cat.ind)) if cat.bricks[x]))]
    while stack:
        s, free = stack.pop()
        w = extension_closure(s, cat.closure_rows)
        if w in table:
            raise TheoremViolation(
                f"semibricks {cat.mask_name(table[w])} and {cat.mask_name(s)}"
                f" close to one mask"
            )
        table[w] = s
        if len(table) > budget:
            raise LatticeBlowup(
                f"{len(table)} semibricks found, budget {budget} (--node-budget)"
            )
        while free:
            b = free & -free
            free ^= b
            x = b.bit_length() - 1
            stack.append((s | b, free & ~(cat.out_bits[x] | cat.in_bits[x])))
    return table


def simples_of_wide(cat, b):
    """The simples of a wide mask; NotWide for any other mask."""
    s = wide_table(cat).get(b)
    if s is None:
        raise NotWide(f"{cat.mask_name(b)} is not wide")
    return s


def extension_product_miss(cat, u, x, target):
    """The first member of target, outside u and x, with no subfactor pair
    (u', q) with u' inside u and q inside x; None when there is none.

    For a torsion class target containing u and x, None means target is
    the extension product u * x, and the torsion class T generated by
    u | x too: u * x <= T always, and T <= target, the torsion class
    containing both, so target <= u * x, the one inclusion scanned, closes
    the chain.  Members of u and of x pass through their pairs (j, 0) and
    (0, j), so only the others are scanned.
    """
    for j in indices(target & ~u & ~x):
        for a, q in cat.pair_bits[j]:
            if a & u == a and q & x == q:
                break
        else:
            return j
    return None


def serre_list(cat, b):
    """All Serre subcategories of a wide mask, one per subset of its simples.

    A tuple in deterministic order: by subset size, then ascending index
    tuple.
    """

    def run():
        simples = indices(simples_of_wide(cat, b))
        return tuple(
            filt(cat, bits(c))
            for r in range(len(simples) + 1)
            for c in itertools.combinations(simples, r)
        )

    return _cached(cat, ("serre", b), run)
