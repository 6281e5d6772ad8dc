"""Subcategory operators on catalog masks.

A mask (frozenset of catalog indices) denotes the additive hull of its
members.  Every operator takes the catalog first.  The perpendiculars,
``fac``, ``sub_cl``, ``tors_gen`` and ``torf_gen`` admit an optional
``within`` mask, a wide subcategory W, as the ambient: the perpendiculars
are taken inside W, and the closures of a mask inside W are the closures
in the whole module category cut down to W.  ``filt`` takes no ``within``,
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

The operators are set algebra on the rows the catalog derives from its
tables: a perpendicular is the ambient minus the ``maps_out`` (or
``maps_in``) rows of the members.  ``fac`` and ``sub_cl`` are one union of
the members with their ``quotient_rows`` (or ``sub_rows``), without a memo.
``filt`` runs ``extension_closure``, the one extension-closure fixpoint of
the library, on the catalog's ``extension_rows`` (int bitsets, bit i for
catalog index i); ``lattice.build_lattice`` calls it on rows it restricts
to its ambient.  Results that are reused are kept in the catalog's
``op_cache`` through ``_cached``, the one memo helper of the library: the
catalog's own decompose and Hom-profile memos and widelab's verdicts go
through it too, each under a key tagged by its kind.

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


def _ambient(cat, within):
    return cat.full_mask if within is None else within


# Rows are passed to union and difference as a list: unpacking a generator
# instead grows the argument tuple by reallocation, which raised the peak RSS
# of an a6 verify by 1.4 MiB.


def part_rows(subfactor_sets, part):
    """Per member, the union of one part (0: u, 1: q) of its subfactor pairs."""
    return tuple(frozenset().union(*[p[part] for p in pairs]) for pairs in subfactor_sets)


def _union_rows(rows, members, within):
    out = frozenset(members).union(*[rows[i] for i in members])
    return out if within is None else out & within


def fac(cat, members, within=None):
    """Closure under quotients, cut down to ``within``."""
    return _union_rows(cat.quotient_rows, members, within)


def sub_cl(cat, members, within=None):
    """Closure under subobjects, cut down to ``within``."""
    return _union_rows(cat.sub_rows, members, within)


def bits(mask):
    """A mask as an int bitset: bit i set for catalog index i."""
    out = 0
    for i in mask:
        out |= 1 << i
    return out


def indices(bitset):
    """The set bits of an int bitset, in ascending order."""
    out = []
    while bitset:
        low = bitset & -bitset
        out.append(low.bit_length() - 1)
        bitset ^= low
    return out


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


def filt(cat, members):
    """Least summand-closed extension-closed mask containing the input."""

    def run():
        # j without a nontrivial pair is no extension of anything smaller
        rows = [(1 << j, uqs) for j, uqs in enumerate(cat.extension_rows) if uqs]
        return frozenset(indices(extension_closure(bits(members), rows)))

    return _cached(cat, ("filt", members), run)


def perp_right(cat, members, within=None):
    """Objects receiving no nonzero map from any member."""
    return _ambient(cat, within).difference(*[cat.maps_out[i] for i in members])


def perp_left(cat, members, within=None):
    """Objects sending no nonzero map to any member."""
    return _ambient(cat, within).difference(*[cat.maps_in[i] for i in members])


def tors_gen(cat, members, within=None):
    """Smallest torsion class containing the mask: filt after fac."""
    return filt(cat, fac(cat, members, within))


def torf_gen(cat, members, within=None):
    """Smallest torsion-free class containing the mask: filt after sub_cl."""
    return filt(cat, sub_cl(cat, members, within))


def is_semibrick(cat, members):
    """All members bricks, pairwise Hom-orthogonal in both directions."""
    for i in members:
        if not cat.bricks[i]:
            return False
        for j in members:
            if i != j and cat.hom_dim[i][j] != 0:
                return False
    return True


def candidate_simples(cat, members):
    """Members with no nonzero proper subobject built from the mask."""
    return frozenset(
        i
        for i in members
        if not any(u and q and u <= members for u, q in cat.subfactor_sets[i])
    )


def is_wide(cat, members):
    """Wide = abelian exact subcategory; tested via its simple objects.

    The candidate simples must form a semibrick whose extension closure
    recovers the mask; both directions of that bijection are what wideness
    amounts to for summand-closed classes.
    """

    def run():
        s = candidate_simples(cat, members)
        return is_semibrick(cat, s) and filt(cat, s) == members

    return _cached(cat, ("wide", members), run)


def simples_of_wide(cat, members):
    if not is_wide(cat, members):
        raise NotWide(f"{cat.mask_name(members)} is not wide")
    return candidate_simples(cat, members)


def serre_list(cat, members):
    """All Serre subcategories of a wide mask, one per subset of its simples.

    A tuple in deterministic order: by subset size, then sorted index tuple.
    """

    def run():
        simples = sorted(simples_of_wide(cat, members))
        return tuple(
            filt(cat, frozenset(c))
            for r in range(len(simples) + 1)
            for c in itertools.combinations(simples, r)
        )

    return _cached(cat, ("serre", members), run)
