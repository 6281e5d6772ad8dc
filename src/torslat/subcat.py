"""Subcategory operators on catalog masks.

A mask is an int bitset, bit i set for catalog index i, and denotes the
additive hull of its members.  Every operator takes the catalog first and
masks in and out; an order that follows the members comes from ``indices``,
ascending, never from the int value.  The perpendiculars, ``fac``,
``sub_cl``, ``tors_gen`` and ``torf_gen`` admit an optional ``within``
mask, a wide subcategory W, as the ambient: the perpendiculars are taken
inside W, and the closures of a mask inside W are the closures in the
whole module category cut down to W.  ``filt`` takes no ``within``,
because from a mask inside W its closure never leaves W.  With
``within=None`` the ambient is the whole module category.

Restriction is exact because W is wide, that is closed under kernels,
cokernels and extensions (Ingalls-Thomas, arXiv:math/0612219).  Let x lie
in W, and let (u, q) be one of its subfactor pairs: u the summands of a
subobject U of x, q those of x/U.

1. u lies in W iff q does: x/U is the cokernel of U -> x, and U is the
   kernel of x -> x/U.
2. Each summand Q of x/U that lies in W is itself the quotient of x by a
   subobject in W: x -> x/U -> Q is onto, and its kernel, the kernel of a
   map between objects of W, lies in W.  So x has a pair whose u lies in W
   and whose q is Q alone.  Dually, each summand of U that lies in W is a
   subobject of x whose quotient lies in W.
3. An extension of two objects of W lies in W.

By 1 and 2, the members of W among the q parts of x's pairs are the
members of the q parts of the pairs whose u lies in W: fac cut down to W is
the closure under quotients by subobjects in W, and sub_cl cut down to W
the closure under subobjects in W.  By 3, each step of the ``filt``
fixpoint from a mask inside W adds a member j with a pair inside the mask,
so j lies in W; the fixpoint over the whole catalog is the fixpoint over W.
``tests/oracles.py`` keeps the literal relative operators as the reference.

The operators are bit algebra on the rows the catalog derives from its
tables: a perpendicular is the ambient minus the ``out_bits`` (or
``in_bits``) rows of the members.  ``fac`` and ``sub_cl`` are one union of
the members with their ``quotient_bits`` (or ``sub_bits``), without a memo.
``filt`` runs ``extension_closure``, the one extension-closure fixpoint of
the library, on the catalog's ``closure_rows`` and keeps the result under
``("filt", mask)``, the one closure memo: the joins of every lattice,
relative ones included, read it, exact by the argument above.
``lattice.build_lattice`` runs the fixpoint on rows it restricts to its
ambient, through a memo local to the walk that leaves ``op_cache`` as it
was, and ``is_wide`` under its own ``("wide", mask)`` entry.  Results that
are reused are kept in the catalog's ``op_cache`` through ``_cached``, the
one memo helper of the library: the catalog's own decompose memo and Hom
table and widelab's verdicts go through it too, each under a key tagged by
its kind.

``is_semibrick`` is the one semibrick test: bricks whose ``out_bits`` rows
miss the other members.  Wideness has one test, ``is_wide``: the candidate
simples come from the catalog's ``pair_bits``, they must form a semibrick,
and ``extension_closure`` rebuilds the class from them.  The lattice joins
that the interval verdicts read are extension closures too: the join of
torsion classes is the smallest torsion class containing their union, and
that union is already closed under quotients, so the join is ``filt`` of
the union (Ingalls-Thomas, arXiv:math/0612219); dually for torsion-free
classes.

The extension-closure operator ``filt`` works pairwise on the subfactor
table.  That computes the smallest extension-closed summand-closed class
containing the input, which agrees with iterated-extension closure on every
input this package feeds it (quotient-closed masks, subobject-closed masks,
semibricks); arbitrary masks may have a larger non-summand-closed closure
that masks cannot denote.
"""

import itertools

from .errors import NotWide


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


def _cut(b, within):
    return b if within is None else b & within


def fac(cat, b, within=None):
    """Closure under quotients, cut down to ``within``."""
    return _cut(_union_rows(cat.quotient_bits, b), within)


def sub_cl(cat, b, within=None):
    """Closure under subobjects, cut down to ``within``."""
    return _cut(_union_rows(cat.sub_bits, b), within)


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


def _perp(rows, b, ambient):
    out = ambient
    for i in indices(b):
        out &= ~rows[i]
    return out


def perp_right(cat, b, within=None):
    """Objects receiving no nonzero map from any member."""
    return _perp(cat.out_bits, b, _cut(cat.full_mask, within))


def perp_left(cat, b, within=None):
    """Objects sending no nonzero map to any member."""
    return _perp(cat.in_bits, b, _cut(cat.full_mask, within))


def tors_gen(cat, b, within=None):
    """Smallest torsion class containing the mask: filt after fac."""
    return filt(cat, fac(cat, b, within))


def torf_gen(cat, b, within=None):
    """Smallest torsion-free class containing the mask: filt after sub_cl."""
    return filt(cat, sub_cl(cat, b, within))


def is_semibrick(cat, b):
    """All members bricks, with no nonzero map between two of them."""
    for i in indices(b):
        if not cat.bricks[i] or cat.out_bits[i] & b & ~(1 << i):
            return False
    return True


def candidate_simples(cat, b):
    """The members with no nonzero proper subobject built from the mask: no
    nontrivial subfactor pair whose subobject part lies in it."""
    out = 0
    for i in indices(b):
        for u, q in cat.pair_bits[i]:
            if u and q and u & b == u:
                break
        else:
            out |= 1 << i
    return out


def is_wide(cat, b):
    """Wide = abelian exact subcategory; tested via its simple objects.

    The candidate simples must form a semibrick whose extension closure
    recovers the mask; both directions of that bijection are what wideness
    amounts to for summand-closed classes.
    """

    def run():
        s = candidate_simples(cat, b)
        return is_semibrick(cat, s) and extension_closure(s, cat.closure_rows) == b

    return _cached(cat, ("wide", b), run)


def simples_of_wide(cat, b):
    if not is_wide(cat, b):
        raise NotWide(f"{cat.mask_name(b)} is not wide")
    return candidate_simples(cat, b)


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
